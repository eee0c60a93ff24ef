"""Workload inputs, pinned golden digests and independent report checks.

A workload is a fixed list of `asl-forge verify` argument lists built from
the seed.  This module uses only the standard library: the checks below
recompute every closed form with `math.comb` and never call asl_forge.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from itertools import combinations
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

# "smoke" is a seconds-long configuration for the benchmark's own test.
NAMES = ("axiom1-deep", "axiom1-wide", "mask-completion", "smoke")

# Default seed: the seed whose mask sets have pinned report digests.
DEFAULT_SEED = 1

# mask-completion: n=5 masks, each keeping an exact half of the
# off-diagonal entries, killed diagonals cycling through every pair and
# every triple (alternating).  Per-mask cost varies widely (coefficient of
# variation about 1 at n=5 and n=6), so a pass needs over a thousand masks
# for its time to repeat across seeds within a few percent.  At n=6 (about
# 0.13 s a mask) that many would not fit one run; at n=5 (about 0.023 s)
# 1,600 take about 37 s.
MASK_N = 5
MASK_COUNT = 1600


def _mask_argv(mask: list[list[int]]) -> list[str]:
    return ["verify", "--n", str(len(mask)), "--pattern", "zero",
            "--mask", json.dumps(mask, separators=(",", ":"))]


def masks(seed: int, n: int, count: int) -> list[list[list[int]]]:
    """`count` n-by-n zero masks drawn from the seed.

    Mask k kills the diagonals of the k-th entry of the interleaved list
    of all pairs and all triples; each mask keeps a uniformly random half
    of the off-diagonal entries, so every entry is kept with probability
    1/2 while the number kept does not vary.
    """
    kill_sets = [s for pair in zip(combinations(range(n), 2),
                                   combinations(range(n), 3)) for s in pair]
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng = random.Random(seed)
    out = []
    for k in range(count):
        killed = kill_sets[k % len(kill_sets)]
        keep = set(rng.sample(off, len(off) // 2))
        out.append([[int((i, j) in keep if i != j else i not in killed)
                     for j in range(n)] for i in range(n)])
    return out


def calls(workload: str, seed: int) -> list[list[str]]:
    """The argument lists one pass of the workload runs, in order."""
    if workload == "axiom1-deep":
        return [["verify", "--n", "4", "--degree", "5"]]
    if workload == "axiom1-wide":
        return [["verify", "--n", "8", "--degree", "3", "--field", "gf(32003)"]]
    if workload == "mask-completion":
        return [_mask_argv(m) for m in masks(seed, MASK_N, MASK_COUNT)]
    if workload == "smoke":
        return ([["verify", "--n", "2", "--degree", "3"]]
                + [_mask_argv(m) for m in masks(seed, 3, 2)])
    raise ValueError(f"unknown workload {workload!r}")


def seed_dependent(workload: str) -> bool:
    return workload in ("mask-completion", "smoke")


def inputs_digest(argvs: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(argvs).encode()).hexdigest()


def load_golden(workload: str, seed: int) -> list[str] | None:
    """Pinned report digests for this workload and seed, or None if unpinned.

    Raises ValueError when the pinned entry was recorded for other inputs,
    which means the input generator changed after the digests were taken.
    """
    entry = json.loads(GOLDEN_PATH.read_text()).get(workload)
    if entry is None or (entry["seed"] is not None and entry["seed"] != seed):
        return None
    if entry["inputs_sha256"] != inputs_digest(calls(workload, seed)):
        raise ValueError(f"golden digests for {workload} were recorded for "
                         "other inputs; re-record them at the pinned commit")
    return entry["reports_sha256"]


def arg(argv: list[str], flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def standard_count(n: int, d: int) -> int:
    """Degree-d monomials in n*n + n variables avoiding every x_i_i*y_i."""
    big_n = n * n + n
    return sum((-1) ** k * math.comb(n, k) * math.comb(d - 2 * k + big_n - 1, big_n - 1)
               for k in range(min(n, d // 2) + 1))


def check_report(argv: list[str], report: dict) -> list[str]:
    """Problems found in one verify report by closed-form recomputation."""
    problems = []
    if report.get("verdict") != "pass":
        problems.append(f"verdict {report.get('verdict')!r}")
    sections = report.get("sections", {})
    if "--mask" in argv:
        cert = sections.get("groebner", {}).get("certificate", {})
        k = len(cert.get("basis", []))
        if cert.get("is_basis") is not True:
            problems.append("certificate.is_basis is not true")
        if len(cert.get("pairs", [])) != math.comb(k, 2):
            problems.append(f"{len(cert.get('pairs', []))} pair records for "
                            f"a basis of {k}")
        return problems
    n = int(arg(argv, "--n", "0"))
    degree = int(arg(argv, "--degree", "4"))
    entries = sections.get("axiom1", {}).get("degrees", [])
    if [e.get("degree") for e in entries] != list(range(degree + 1)):
        problems.append("axiom1 degrees do not cover 0..degree")
    big_n = n * n + n
    for e in entries:
        d = e["degree"]
        if e["monomials"] != math.comb(d + big_n - 1, big_n - 1):
            problems.append(f"degree {d}: monomials {e['monomials']}")
        if e["standard"] != standard_count(n, d):
            problems.append(f"degree {d}: standard {e['standard']}")
        if e["ideal_slice_rank"] != e["monomials"] - e["standard"]:
            problems.append(f"degree {d}: ideal_slice_rank {e['ideal_slice_rank']}")
    return problems
