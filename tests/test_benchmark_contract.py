"""The benchmark's entry points, run against this tree.

perfbench/ times `asl_forge.cli.main` on pinned workloads and checks each
report against its golden digest, but the unit tests never import it.
These guards run one seed-1 pass of each pinned workload and check every
report against its golden digest, so a renamed import or a changed
report byte shows up here and not only in a benchmark run.  They write
nothing under perfbench/: its workload module is executed from source,
and the set-up probe runs without writing bytecode.
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from asl_forge import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
workloads = SimpleNamespace(**runpy.run_path(str(PERFBENCH / "workloads.py")))


@pytest.mark.parametrize("workload", ["axiom1-deep", "mask-completion"])
def test_setup_probe_prints_one_float(workload):
    env = {k: v for k, v in os.environ.items() if k != "ASL_FORGE_THREADS"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "setup_probe.py"),
                           workload, "1"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    [line] = proc.stdout.splitlines()
    assert float(line) > 0


@pytest.mark.parametrize("workload,count", [("axiom1-deep", 1),
                                            ("mask-completion", 1600)])
def test_reports_match_the_golden_digests(workload, count):
    argvs = workloads.calls(workload, 1)[:count]
    golden = workloads.load_golden(workload, 1)
    assert len(argvs) == count and len(golden) >= count
    for argv, digest in zip(argvs, golden):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        text = out.getvalue()
        assert code == 0, argv
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv
        assert workloads.check_report(argv, json.loads(text)) == [], argv
