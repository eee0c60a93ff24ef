"""Acceptance checks.

One test per shipped guarantee, in order. Each prints a single
``[PASS]``/``[FAIL]`` line so the suite can be skimmed from the log:

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import os
import random
import subprocess
import sys
import time

import oracles
from asl_forge import (
    MatrixPattern,
    buchberger,
    build_poset,
    count_standard_monomials,
    expected_incomparable_pairs,
    initial_ideal,
    is_groebner,
    matrix_product_ideal,
    reduce,
    verify,
)
from asl_forge import cli


def report(label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_generic_generators_certified_groebner_under_one_second():
    timings = []
    for n in range(2, 7):
        _, gens = matrix_product_ideal(MatrixPattern.generic(n))
        start = time.perf_counter()
        cert = is_groebner(gens)
        timings.append(time.perf_counter() - start)
        assert cert.is_basis
        assert len(cert.pairs) == math.comb(n, 2)
        assert all(p.criterion == "coprime" for p in cert.pairs)
    report(
        "generic generators are a Groebner basis via the coprime criterion, n=2..6",
        max(timings) < 1.0,
        f"max {max(timings) * 1000:.0f}ms per n",
    )


def test_initial_ideal_is_minimally_generated_by_diagonal_products():
    ok = True
    for n in range(2, 7):
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(n))
        init = initial_ideal(is_groebner(gens))
        expected = {
            ctx.monomial({ctx.x(i, i): 1, ctx.y(i): 1}) for i in range(1, n + 1)
        }
        minimal = set(init)
        ok = ok and minimal == expected
        ok = ok and all(
            not oracles.monomial_divides(a, b)
            for a in minimal for b in minimal if a != b
        )
    report("initial ideal is minimally generated by x_i_i*y_i, n=2..6", ok)


def test_poset_leaves_exactly_the_diagonal_pairs_incomparable():
    ok = True
    for n in range(2, 9):
        poset = build_poset(n)  # construction rejects antisymmetry breaks
        found = {frozenset(p) for p in poset.incomparable_pairs()}
        expected = {frozenset(p) for p in expected_incomparable_pairs(n)}
        ok = ok and found == expected and len(found) == n
    report("only the diagonal pairs (x_i_i, y_i) are incomparable, n=2..8", ok)


def test_straightening_axiom_one_holds_at_bounded_degree():
    start = time.perf_counter()
    ok = True
    for n, bound in ((1, 4), (2, 4), (3, 3)):
        rep = verify(MatrixPattern.generic(n), bound)["sections"]["axiom1"]
        ok = ok and rep["verdict"] == "pass"
        ok = ok and all(e["count_matches"] for e in rep["degrees"])
        if n == 2:
            ok = ok and rep["degrees"][2]["standard"] == 19
    ok = ok and count_standard_monomials(2, 2) == 19
    elapsed = time.perf_counter() - start
    report(
        "standard monomials form a basis of the quotient up to the degree bound",
        ok and elapsed < 30.0,
        f"{elapsed:.1f}s total",
    )


def test_straightening_axiom_two_holds():
    ok = all(verify(MatrixPattern.generic(n), 0)["sections"]["axiom2"]["verdict"]
             == "pass" for n in range(2, 7))
    report("straightening expansions exist with strictly smaller factors, n=2..6", ok)


def test_symmetric_pattern_generators_stay_groebner():
    ok = True
    for n in range(2, 6):
        _, gens = matrix_product_ideal(MatrixPattern.symmetric(n))
        ok = ok and bool(is_groebner(gens))
    report("symmetric-matrix generators remain a Groebner basis, n=2..5", ok)


def _random_mask(rng, n, keep_diagonal):
    while True:
        mask = [
            [1 if (i == j and keep_diagonal) else rng.random() < 0.5
             for j in range(n)]
            for i in range(n)
        ]
        if not keep_diagonal and all(mask[i][i] for i in range(n)):
            mask[rng.randrange(n)][rng.randrange(n)] = False
            continue
        return [[bool(v) for v in row] for row in mask]


def test_zero_patterns_complete_and_reduce_members_to_zero(tmp_path):
    rng = random.Random(414213)
    checked_members = 0
    ok = True
    for trial in range(20):
        n = 2 + trial % 2
        pattern = MatrixPattern.zero_pattern(_random_mask(rng, n, True))
        ctx, gens = matrix_product_ideal(pattern)
        basis = buchberger(gens)
        ok = ok and bool(is_groebner(basis))
        for _ in range(3):
            member = ctx.zero
            for g in gens:
                coeff = ctx.field.coerce(rng.randint(-4, 4))
                exps = {
                    v: rng.randint(0, 2)
                    for v in rng.sample(ctx.variables, 2)
                }
                member = member + oracles.term_multiple(g, coeff,
                                                        ctx.monomial(exps))
            if member:
                ok = ok and not reduce(member, basis)
                checked_members += 1
    ok = ok and checked_members >= 50

    # masks that kill a diagonal entry still terminate; the report must
    # mark the straightening sections as skipped rather than claim them
    for trial in range(6):
        n = 2 + trial % 2
        mask = _random_mask(rng, n, False)
        out = tmp_path / f"zero_{trial}.json"
        code = cli.main([
            "verify", "--n", str(n), "--pattern", "zero",
            "--mask", json.dumps(mask), "--degree", "2",
            "--output", str(out),
        ])
        rep = json.loads(out.read_text())
        ok = ok and code == 0 and rep["verdict"] == "pass"
        ok = ok and rep["sections"]["axiom1"]["status"] == "skipped"
        ok = ok and rep["sections"]["axiom2"]["status"] == "skipped"
    report(
        "random zero patterns: completion terminates, membership reduces to zero,"
        " straightening skipped when the diagonal degenerates",
        ok,
        f"{checked_members} members checked",
    )


def test_verification_report_is_byte_stable():
    def run(threads=None):
        env = {k: v for k, v in os.environ.items() if k != "ASL_FORGE_THREADS"}
        if threads is not None:
            env["ASL_FORGE_THREADS"] = str(threads)
        proc = subprocess.run(
            [sys.executable, "-m", "asl_forge", "verify", "--n", "3"],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    first, second, threaded = run(), run(), run(threads=8)
    report(
        "verify --n 3 output is byte-identical across reruns and thread counts",
        first == second == threaded,
        f"{len(first)} bytes",
    )
