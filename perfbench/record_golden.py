"""Record the pinned golden digests of every workload's default-seed reports.

Run from the repository root at the commit whose reports are pinned:

    PYTHONPATH=src python3 perfbench/record_golden.py

Seed-independent workloads are pinned for every seed.
"""

import contextlib
import hashlib
import io
import json

import workloads
from asl_forge import cli


def main() -> None:
    golden = {}
    for workload in workloads.NAMES:
        argvs = workloads.calls(workload, workloads.DEFAULT_SEED)
        digests = []
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            text = out.getvalue()
            problems = workloads.check_report(argv, json.loads(text))
            if code != 0 or problems:
                raise SystemExit(f"{' '.join(argv)}: exit code {code}, {problems}")
            digests.append(hashlib.sha256(text.encode()).hexdigest())
        golden[workload] = {
            "seed": (workloads.DEFAULT_SEED if workloads.seed_dependent(workload)
                     else None),
            "inputs_sha256": workloads.inputs_digest(argvs),
            "reports_sha256": digests,
        }
        print(f"{workload}: {len(digests)} reports pinned")
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=0) + "\n")


if __name__ == "__main__":
    main()
