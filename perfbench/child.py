"""Closed-loop runner for one workload, in a process of its own.

Runs the workload's `verify` calls in-process through `asl_forge.cli.main`,
one at a time, pass after pass, and checks every report.  With tracing on,
each untraced pass is followed by a traced one.  run.py starts this script
with src/ on PYTHONPATH:

    python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE

The last line of output is one JSON object of raw per-pass samples.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from asl_forge import cli
from tracer import Tracer, layer_metrics, self_time_table

OUT_DIR = Path(__file__).resolve().parent / "out"


class Pass:
    """Totals of one pass over the workload's calls."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.report_bytes = 0
        self.calls = 0
        self.problems: list[str] = []


def run_call(argv: list[str], digest: str | None, p: Pass) -> None:
    out = io.StringIO()
    problems = []
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a failed call must not stop the loop
        code = None
        problems.append(f"raised {exc!r}")
    p.wall_s += time.perf_counter() - t0
    p.cpu_s += time.process_time() - c0
    p.calls += 1
    text = out.getvalue()
    p.report_bytes += len(text.encode())
    if code != 0 and not problems:
        problems.append(f"exit code {code}")
    if digest is not None and hashlib.sha256(text.encode()).hexdigest() != digest:
        problems.append("report differs from the pinned golden")
    try:
        problems += workloads.check_report(argv, json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    if problems:
        p.problems.append(f"{' '.join(argv)}: {'; '.join(problems)}")


def run_pass(argvs: list[list[str]], golden: list[str] | None) -> Pass:
    p = Pass()
    for i, argv in enumerate(argvs):
        run_call(argv, golden[i] if golden else None, p)
    return p


def main() -> int:
    workload, seed, seconds, trace = (sys.argv[1], int(sys.argv[2]),
                                      float(sys.argv[3]), sys.argv[4] == "1")
    argvs = workloads.calls(workload, seed)
    golden = workloads.load_golden(workload, seed)
    plain: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict[str, float]] = []
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path.unlink(missing_ok=True)
    tracers = []
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        plain.append(run_pass(argvs, golden))
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(run_pass(argvs, golden))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
            layers.append(layer_metrics(tracer))
        now = time.perf_counter()
        # start another cycle only if it should end within the time asked for
        if now - start + (now - cycle) > seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    next_id = 0
    for tracer in tracers:
        next_id = tracer.write(spans_path, next_id)
    if tracers:
        for name, count, self_s in self_time_table(tracers[-1]):
            print(f"span {name:<44} {count:>9} spans {self_s:10.4f} s self")

    passes = plain + traced
    problems = [msg for p in passes for msg in p.problems]
    for msg in problems[:5]:
        print(f"FAILED {msg}")
    result = {
        "calls_per_pass": len(argvs),
        "pinned": golden is not None,
        "attempted": sum(p.calls for p in passes),
        "failed": len(problems),
        "wall_s": [p.wall_s for p in plain],
        "cpu_s": [p.cpu_s for p in plain],
        "peak_rss_mib": peak_rss_mib,
        "report_bytes": plain[0].report_bytes,
    }
    if trace:
        result["traced_wall_s"] = [p.wall_s for p in traced]
        # counts repeat exactly from pass to pass; times are medians
        result["layers"] = {k: v if isinstance(v, int)
                            else statistics.median(d[k] for d in layers)
                            for k, v in layers[0].items()}
        varied = [k for k, v in layers[0].items()
                  if isinstance(v, int) and any(d[k] != v for d in layers)]
        if varied:
            result["failed"] += 1
            print(f"FAILED counts varied between traced passes: {varied}")
        result["spans_file"] = str(spans_path.relative_to(OUT_DIR.parent.parent))
        result["spans"] = next_id
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
