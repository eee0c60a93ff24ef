"""Benchmark of `asl-forge verify`, one workload per invocation.

    python3 perfbench/run.py --workload axiom1-deep --seed 1 --seconds 45 --trace 0

Set-up time is measured first in fresh processes.  The workload then runs
in a child process of its own: a closed loop of in-process `verify` calls,
one at a time, single-threaded, with ASL_FORGE_THREADS removed from the
environment.  Every report is checked.  Each metric named in BENCHMARK.json
is printed by name with its unit; the last line is one JSON object holding
the end-to-end metrics (--trace 0) or the per-layer metrics of a traced
run (--trace 1).  Exits 1 without a result when the source tree is missing
or a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh processes timed for setup_s; one more runs first to compile bytecode.
SETUP_RUNS = 11
# All child processes of one run end within this many seconds.
RUN_LIMIT_S = 170


def run_script(script: str, args: list, timeout: float) -> list[str]:
    """Run a perfbench script in a fresh interpreter; return its stdout lines."""
    env = {k: v for k, v in os.environ.items() if k != "ASL_FORGE_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run([sys.executable, str(HERE / script), *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout.splitlines()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setup = []
    if not trace:
        for _ in range(SETUP_RUNS + 1):
            lines = run_script("setup_probe.py", [workload, seed],
                               deadline - time.monotonic())
            setup.append(float(lines[-1]))
    lines = run_script("child.py", [workload, seed, seconds, int(trace)],
                       deadline - time.monotonic())
    for line in lines[:-1]:
        print(line)
    child = json.loads(lines[-1])
    child["setup_s"] = setup[1:]
    return child


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "asl_forge" / "__init__.py").is_file():
        print(f"error: no asl_forge package under {SRC}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        child = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wall = statistics.median(child["wall_s"])
    if args.trace:
        traced = statistics.median(child["traced_wall_s"])
        values = dict(child["layers"])
        values["cli.report_bytes"] = child["report_bytes"]
        values["trace.wall_s"] = traced
        values["trace.overhead_s"] = traced - wall
        listed = spec["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(child["cpu_s"]),
            "peak_rss_mib": child["peak_rss_mib"],
            "setup_s": statistics.median(child["setup_s"]),
        }
        listed = spec["end_to_end"]

    passes = len(child["wall_s"])
    print(f"workload {args.workload}, seed {args.seed}: {child['calls_per_pass']} "
          f"verify calls a pass, {passes} untraced passes"
          + (f" and {len(child['traced_wall_s'])} traced" if args.trace else "")
          + ", reports " + ("pinned to golden digests" if child["pinned"]
                            else "unpinned (verdict and closed forms checked)"))
    if args.trace:
        print(f"spans: {child['spans']} written to {child['spans_file']}")
    else:
        print(f"samples: wall_s and cpu_s are medians of {passes} passes, "
              f"setup_s of {len(child['setup_s'])} fresh processes")
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:<28} {values[m['name']]:.6g} {m['unit']}")
    print(f"{'failed_share':<28} {child['failed'] / child['attempted']:.6g} "
          f"({child['failed']} of {child['attempted']} calls)")
    print(json.dumps({"correct": child["failed"] == 0,
                      "attempted": child["attempted"],
                      "failed": child["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
