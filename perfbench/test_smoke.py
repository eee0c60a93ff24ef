"""Tests of the benchmark itself, on its seconds-long smoke configuration.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATED_COUNTS = ("linalg.rows_in", "linalg.pivots", "asl.monomials_enumerated",
                   "groebner.reduce_calls", "poly_core.add_calls")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def bench(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def result(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def printed(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[0] == name and line.split()[-1] == unit
               for line in lines if line.strip())


def test_end_to_end_metrics_are_printed_with_units_and_nothing_fails():
    lines, res = result(bench(0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert res["metrics"][m["name"]]["value"] > 0
        assert printed(lines, m["name"], m["unit"])
    assert any(line.split()[:2] == ["failed_share", "0"] for line in lines)


def test_per_layer_metrics_are_printed_and_counts_repeat_exactly():
    runs = [result(bench(1)) for _ in range(2)]
    for lines, res in runs:
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        for m in SPEC["per_layer"]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
            assert printed(lines, m["name"], m["unit"])
    first, second = (res["metrics"] for _, res in runs)
    for name in REPEATED_COUNTS:
        assert first[name]["value"] == second[name]["value"] > 0, name


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_report_checks_catch_wrong_counts():
    n, big_n = 2, 6
    degrees = [{"degree": d, "monomials": math.comb(d + big_n - 1, big_n - 1),
                "standard": workloads.standard_count(n, d)} for d in range(4)]
    for e in degrees:
        e["ideal_slice_rank"] = e["monomials"] - e["standard"]
    report = {"verdict": "pass", "sections": {"axiom1": {"degrees": degrees}}}
    argv = ["verify", "--n", "2", "--degree", "3"]
    assert workloads.check_report(argv, report) == []
    degrees[3]["standard"] += 1
    assert len(workloads.check_report(argv, report)) == 2

    mask_argv = ["verify", "--n", "3", "--pattern", "zero", "--mask", "[]"]
    cert = {"is_basis": True, "basis": [[], [], []], "pairs": [{}, {}, {}]}
    report = {"verdict": "pass", "sections": {"groebner": {"certificate": cert}}}
    assert workloads.check_report(mask_argv, report) == []
    cert["pairs"].pop()
    assert workloads.check_report(mask_argv, report) != []
