"""Variable poset, standard monomials, straightening, axiom reports."""

import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from asl_forge import (
    CoefficientField,
    GeneratorSet,
    GroebnerCertificate,
    InitialIdeal,
    MatrixPattern,
    Monomial,
    POSET_NOTE,
    Poset,
    Variable,
    build_poset,
    count_standard_monomials,
    expected_incomparable_pairs,
    initial_ideal,
    is_groebner,
    matrix_product_ideal,
    reduce,
    verify,
    verify_axiom1,
    verify_axiom2,
)
from asl_forge.asl import (
    _axiom1_degrees,
    _chain_counts,
    _hilbert_numerator,
    axiom1_work,
)


class TestBuildPoset:
    def test_n2_covers_frozen(self):
        p = build_poset(2)
        x, y = Variable.x, Variable.y
        assert set(p.covers()) == {
            (x(1, 2), x(2, 1)),
            (x(2, 1), x(2, 2)),
            (x(2, 2), x(1, 1)),
            (x(2, 1), y(2)),
            (y(2), y(1)),
            (x(2, 2), y(1)),
            (y(2), x(1, 1)),
        }

    def test_n1_antichain(self):
        p = build_poset(1)
        assert p.covers() == []
        assert p.incomparable_pairs() == ((Variable.x(1, 1), Variable.y(1)),)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            build_poset(0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_only_diagonal_pairs_incomparable(self, n):
        p = build_poset(n)
        found = {frozenset(pair) for pair in p.incomparable_pairs()}
        expected = {frozenset(pair) for pair in expected_incomparable_pairs(n)}
        assert found == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closure_agrees_with_networkx_on_covers(self, n):
        # rebuild the closure from the exported covers through networkx
        # and re-derive the incomparable pairs
        p = build_poset(n)
        found = oracles.incomparable_pairs(p.elements, p.covers())
        expected = expected_incomparable_pairs(n)
        assert {frozenset(q) for q in found} == {frozenset(q) for q in expected}

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_every_element_in_some_cover(self, n):
        p = build_poset(n)
        touched = {e for cover in p.covers() for e in cover}
        assert touched == set(p.elements)

    def test_structure_n3(self):
        p = build_poset(3)
        x, y = Variable.x, Variable.y
        # the off-diagonal chain sits below everything else
        assert p.leq(x(1, 2), x(3, 3)) and p.leq(x(1, 2), y(3))
        # bridge relations place y_2 between the diagonal neighbors
        assert p.leq(x(3, 3), y(2)) and p.leq(y(2), x(1, 1))
        assert not p.comparable(x(2, 2), y(2))


def multiples(ctx, reports, d):
    """The degree-d multiples of the minimal mismatches the reports list.

    Every mismatch is a multiple of a listed one of no larger degree, so
    these include every degree-d mismatch; rendered and sorted.
    """
    listed = {name for entry in reports[:d + 1] for name in entry["mismatches"]}
    minimal = [m for k in range(d + 1) for m in oracles.monomials_of_degree(ctx, k)
               if str(m) in listed]
    assert len(minimal) == len(listed)
    return sorted(str(m) for m in oracles.monomials_of_degree(ctx, d)
                  if any(oracles.monomial_divides(g, m) for g in minimal))


def non_standard(ctx, poset, d):
    """The degree-d monomials the axiom-1 check calls non-standard.

    Against an empty initial ideal every monomial is normal, so the
    check's mismatches are the non-standard monomials.
    """
    _, gens = matrix_product_ideal(MatrixPattern.generic(ctx.n))
    reports = _axiom1_degrees(ctx, gens, InitialIdeal(ctx, []), poset, d)
    return multiples(ctx, reports, d)


def straightening(gens, poset):
    """verify_axiom2's report on gens over the pairs the poset leaves incomparable."""
    return verify_axiom2(is_groebner(gens), poset)


def relation(report, alpha, beta):
    """The report's entry for the pair (alpha, beta)."""
    [entry] = [e for e in report["relations"]
               if (e["alpha"], e["beta"]) == (alpha, beta)]
    return entry


class TestStandardMonomials:
    def test_examples_n2(self):
        ctx, _ = matrix_product_ideal(MatrixPattern.generic(2))
        p = build_poset(2)
        assert non_standard(ctx, p, 0) == []  # the monomial 1
        degree2 = non_standard(ctx, p, 2)
        assert "x_1_1*y_1" in degree2
        assert "x_1_2*y_2" not in degree2
        degree3 = non_standard(ctx, p, 3)
        assert "x_2_2^2*y_2" in degree3
        assert "x_1_1^3" not in degree3

    @pytest.mark.parametrize("n,dmax", [(1, 4), (2, 4), (3, 3)])
    def test_standard_iff_normal(self, n, dmax):
        # standard in the poset sense must agree with lying outside the
        # staircase of diagonal products
        ctx, _ = matrix_product_ideal(MatrixPattern.generic(n))
        p = build_poset(n)
        diag = [(ctx.x(i, i), ctx.y(i)) for i in range(1, n + 1)]
        for d in range(dmax + 1):
            divisible = []
            for m in oracles.monomials_of_degree(ctx, d):
                exps = dict(m.factors())
                if any(a in exps and b in exps for a, b in diag):
                    divisible.append(str(m))
            assert non_standard(ctx, p, d) == sorted(divisible)

    def test_chain_factors_sorted(self):
        # x_1_1*y_1 reduces to -x_1_2^2*x_2_2*y_1, whose factors form a
        # chain with a repeated factor; against an antichain they do not
        ctx, _ = matrix_product_ideal(MatrixPattern.generic(2))
        m = ctx.monomial
        gens = GeneratorSet(ctx, [ctx.polynomial({
            m({ctx.x(1, 1): 1, ctx.y(1): 1}): 1,
            m({ctx.y(1): 1, ctx.x(1, 2): 2, ctx.x(2, 2): 1}): 1})])
        p = build_poset(2)
        entry = relation(straightening(gens, p), "x_1_1", "y_1")
        assert entry["status"] == "pass"
        [term] = entry["expansion"]
        assert term == {"c": "-1", "chain": ["x_1_2", "x_1_2", "x_2_2", "y_1"]}
        by_name = {v.name: v for v in p.elements}
        chain = [by_name[name] for name in term["chain"]]
        for a, b in zip(chain, chain[1:]):
            assert p.leq(a, b)
        antichain = Poset(p.elements, [])
        entry = relation(straightening(gens, antichain), "x_1_1", "y_1")
        assert entry["non_standard_term"] == "x_1_2^2*x_2_2*y_1"


class TestStraighten:
    def test_n2_example(self):
        entry = axiom2(2)["relations"][0]
        assert (entry["alpha"], entry["beta"]) == ("x_1_1", "y_1")
        assert entry["expansion"] == [{"c": "-1", "chain": ["x_1_2", "y_2"]}]

    def test_n3_middle_row(self):
        entry = relation(axiom2(3), "x_2_2", "y_2")
        chains = {(tuple(term["chain"]), term["c"]) for term in entry["expansion"]}
        assert chains == {(("x_2_1", "y_1"), "-1"), (("x_2_3", "y_3"), "-1")}

    def test_n1_empty_expansion(self):
        entry = axiom2(1)["relations"][0]
        assert entry["expansion"] == []
        assert entry["minimal_factors"] == []

    def test_pair_outside_the_ring_raises(self):
        # build_poset(3) holds x_3_3 and y_3, which the n = 2 ring lacks
        _, gens = matrix_product_ideal(MatrixPattern.generic(2))
        with pytest.raises(ValueError, match="not the ring's variables"):
            verify_axiom2(is_groebner(gens), build_poset(3))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_poset_on_other_elements_raises(self, n):
        # a poset on more variables, on the same variables in another
        # order, or missing one variable is not the ring's variable poset
        _, gens = matrix_product_ideal(MatrixPattern.generic(n))
        certificate = is_groebner(gens)
        init = initial_ideal(certificate)
        base = build_poset(n)
        others = [build_poset(n + 1),
                  Poset(base.elements[::-1], base.covers()),
                  Poset(base.elements[1:],
                        [c for c in base.covers() if base.elements[0] not in c])]
        for poset in others:
            with pytest.raises(ValueError, match="not the ring's variables"):
                verify_axiom1(certificate, init, poset, 2)
            with pytest.raises(ValueError, match="not the ring's variables"):
                verify_axiom2(certificate, poset)

    def test_non_standard_expansion_fails(self):
        # against a bare antichain every two-variable monomial is
        # non-standard, so no expansion can be written as chains
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(2))
        report = straightening(gens, Poset(build_poset(2).elements, []))
        assert report["verdict"] == "fail"
        assert not report["incomparable_as_expected"]
        assert len(report["relations"]) == 15  # every pair of 6 variables
        entry = relation(report, "x_1_1", "y_1")
        assert entry == {"alpha": "x_1_1", "beta": "y_1", "status": "fail",
                         "non_standard_term": "x_1_2*y_2"}
        # a normal product is its own, non-standard, normal form
        assert relation(report, "x_1_2", "y_2")["non_standard_term"] == "x_1_2*y_2"

    def test_minimal_factor_not_below_alpha_fails(self):
        # x_1_1 <= x_1_2 <= y_2 keeps x_1_1 and y_1 incomparable and the
        # expansion -x_1_2*y_2 standard, but its least factor is above x_1_1
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(2))
        x, y = Variable.x, Variable.y
        poset = Poset(build_poset(2).elements, [(x(1, 1), x(1, 2)), (x(1, 2), y(2))])
        report = straightening(gens, poset)
        assert report["verdict"] == "fail"
        entry = relation(report, "x_1_1", "y_1")
        assert entry["expansion"] == [{"c": "-1", "chain": ["x_1_2", "y_2"]}]
        assert entry["minimal_below_alpha"] is False
        assert entry["minimal_below_beta"] is False
        assert entry["difference_reduces_to_zero"]
        assert entry["status"] == "fail"

    def test_expansion_matches_normal_form(self):
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(4))
        by_name = {v.name: v for v in ctx.variables}
        report = axiom2(4)
        assert len(report["relations"]) == 4
        for i, entry in enumerate(report["relations"], start=1):
            assert (entry["alpha"], entry["beta"]) == (f"x_{i}_{i}", f"y_{i}")
            rebuilt = ctx.zero
            for term in entry["expansion"]:
                m = ctx.one
                for name in term["chain"]:
                    m = oracles.monomial_mul(m, ctx.monomial({by_name[name]: 1}))
                rebuilt = rebuilt + ctx.polynomial({m: term["c"]})
            product = ctx.polynomial(
                {ctx.monomial({ctx.x(i, i): 1, ctx.y(i): 1}): 1})
            assert not reduce(product - rebuilt, gens)
            assert oracles.is_member(ctx, gens, product - rebuilt)

    def test_json_shape(self):
        assert axiom2(2)["relations"][0] == {
            "alpha": "x_1_1",
            "beta": "y_1",
            "status": "pass",
            "expansion": [{"c": "-1", "chain": ["x_1_2", "y_2"]}],
            "minimal_factors": ["x_1_2"],
            "minimal_below_alpha": True,
            "minimal_below_beta": True,
            "difference_reduces_to_zero": True,
        }


class TestCounting:
    def test_pinned_values(self):
        assert count_standard_monomials(2, 2) == 19
        assert count_standard_monomials(1, 3) == 2
        assert count_standard_monomials(3, 2) == 75
        assert count_standard_monomials(5, 0) == 1
        assert count_standard_monomials(2, -1) == 0

    def test_matches_enumeration(self):
        for n in (1, 2, 3):
            for d in range(7):
                assert count_standard_monomials(n, d) == oracles.count_standard(n, d)

    @settings(max_examples=30)
    @given(st.integers(1, 3), st.integers(0, 5))
    def test_never_exceeds_total(self, n, d):
        N = n * n + n
        total = math.comb(d + N - 1, N - 1)
        assert 0 < count_standard_monomials(n, d) <= total

    @pytest.mark.parametrize("n,dmax", [(1, 5), (2, 4), (3, 3)])
    def test_axiom1_work_counts_monomials_and_rows(self, n, dmax):
        ctx, _ = matrix_product_ideal(MatrixPattern.generic(n))
        for D in range(dmax + 1):
            visited = sum(len(list(oracles.monomials_of_degree(ctx, d)))
                          for d in range(D + 1))
            rows = sum(n * len(list(oracles.monomials_of_degree(ctx, d - 2)))
                       for d in range(D + 1))
            assert axiom1_work(n, D) == visited + rows

    def test_axiom1_work_pinned(self):
        # the benchmark's two axiom-1 workloads, then the first sizes over
        # the command line's 2,000,000 bound
        assert axiom1_work(4, 5) == 60_214
        assert axiom1_work(8, 3) == 68_109
        assert axiom1_work(8, 4) == 1_304_583
        assert axiom1_work(5, 6) == 2_179_672
        assert axiom1_work(4, 8) == 4_029_025

    def test_monomials_of_degree_enumeration(self):
        ctx, _ = matrix_product_ideal(MatrixPattern.generic(2))
        for d in range(4):
            ms = list(oracles.monomials_of_degree(ctx, d))
            assert len(ms) == math.comb(d + 5, 5)
            assert len(set(ms)) == len(ms)
            assert all(m.total_degree == d for m in ms)


def axiom1(n, d, field=None):
    return verify(MatrixPattern.generic(n), d, field)["sections"]["axiom1"]


def axiom2(n):
    return verify(MatrixPattern.generic(n), 0)["sections"]["axiom2"]


def random_poset(rng, variables):
    """Relations of a random partial order on the variables.

    Each pair in a random linear order is related with one density drawn
    per poset, so posets run from near-antichains to near-chains.
    """
    order = rng.sample(list(variables), len(variables))
    density = rng.choice((0.2, 0.5, 0.8))
    return [(a, b) for k, a in enumerate(order) for b in order[k + 1:]
            if rng.random() < density]


def _against_dense(ctx, gens, init, relations, bound):
    """Check ``_axiom1_degrees`` against a scan of dense exponent tuples.

    The poset is given by its relations, whose closure the oracle takes
    through networkx.  Per degree: the counts; each listed mismatch is a
    dense mismatch of its degree that no mismatch of lower degree
    divides; every dense mismatch is a multiple of a listed one; the flag
    says no dense mismatch has degree <= d; and the basis check, whose
    pivots come from dense elimination of the same Macaulay rows (the
    slice's, for quadric generators).  Returns the reports and the set of
    directions (standard or not) seen among the mismatches.
    """
    variables = ctx.variables
    nv = len(variables)
    tc = oracles.closure(variables, relations)
    pairs = {(p, q) for p in range(nv) for q in range(nv)
             if p == q or tc.has_edge(variables[p], variables[q])
             or tc.has_edge(variables[q], variables[p])}
    dense_init = [oracles.to_dense(g, nv) for g in init]
    reports = _axiom1_degrees(ctx, gens, init, Poset(variables, relations), bound)
    assert len(reports) == bound + 1
    directions, mismatched, listed = set(), {}, []
    for d, entry in enumerate(reports):
        total = standard = normal = 0
        lower = list(mismatched.values())  # the mismatches of degree < d
        non_normal = set()
        for e in oracles.dense_monomials(nv, d):
            support = [p for p in range(nv) if e[p]]
            std = all((p, q) in pairs for p in support for q in support)
            nrm = not any(oracles.divides(g, e) for g in dense_init)
            total += 1
            standard += std
            normal += nrm
            if not nrm:
                non_normal.add(e)
            if std != nrm:
                directions.add(std)
                mismatched["*".join(
                    variables[p].name + (f"^{e[p]}" if e[p] > 1 else "")
                    for p in support) or "1"] = e
        assert entry["degree"] == d
        assert (entry["monomials"], entry["standard"], entry["normal"]) == (
            total, standard, normal)
        assert entry["mismatches"] == sorted(entry["mismatches"])
        for name in entry["mismatches"]:
            e = mismatched[name]
            assert sum(e) == d
            assert not any(oracles.divides(f, e) for f in lower)
            listed.append(e)
        assert all(any(oracles.divides(f, e) for f in listed)
                   for e in mismatched.values())
        assert entry["standard_equals_normal"] == (not mismatched)
        pivots = oracles.macaulay_pivots_descending(ctx, gens, d)
        assert entry["ideal_slice_rank"] == len(pivots)
        assert entry["basis_check"] == (pivots == non_normal)
    return reports, directions


class TestAxiom1:
    @pytest.mark.parametrize("n,d", [(1, 4), (2, 4), (3, 3)])
    def test_passes(self, n, d):
        report = axiom1(n, d)
        assert report["verdict"] == "pass"
        assert report["degree_bound"] == d
        assert report["poset_note"] == POSET_NOTE
        assert len(report["degrees"]) == d + 1
        for entry in report["degrees"]:
            assert entry["standard_equals_normal"]
            assert entry["count_matches"]
            assert entry["basis_check"]
            assert entry["mismatches"] == []

    def test_generic_counts_match_the_closed_forms_at_depth(self):
        # every degree of the generic n = 4 check up to 7, against the
        # monomial count in N = 20 variables and the inclusion-exclusion
        # count of standard monomials
        report = axiom1(4, 7)
        assert report["verdict"] == "pass"
        assert len(report["degrees"]) == 8
        for d, entry in enumerate(report["degrees"]):
            assert entry["monomials"] == math.comb(d + 19, 19)
            standard = count_standard_monomials(4, d)
            assert entry["standard"] == standard == entry["normal"]
            assert entry["standard_equals_normal"]

    def test_n2_standard_counts(self):
        # inclusion-exclusion by hand: 21-2, 56-12, 126-42+1
        report = axiom1(2, 4)
        assert [e["standard"] for e in report["degrees"]] == [1, 6, 19, 44, 85]
        assert [e["monomials"] for e in report["degrees"]] == [1, 6, 21, 56, 126]

    def test_rank_complements_standard(self):
        report = axiom1(3, 3)
        for e in report["degrees"]:
            assert e["ideal_slice_rank"] + e["standard"] == e["monomials"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts_equal_hilbert_function_of_initial_ideal(self, n):
        # the initial ideal's Hilbert function, counted from its reported
        # generators, against the scan count, the closed form and the rank
        report = verify(MatrixPattern.generic(n), 4)
        names = [f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
        names += [f"y_{j}" for j in range(1, n + 1)]
        generators = report["sections"]["initial_ideal"]["generators"]
        gens = [[oracles.monomial_json(g).get(name, 0) for name in names]
                for g in generators]
        for d, entry in enumerate(report["sections"]["axiom1"]["degrees"]):
            expected = oracles.hilbert_count(gens, len(names), d)
            assert entry["normal"] == expected
            assert entry["count_formula"] == expected
            assert entry["monomials"] - entry["ideal_slice_rank"] == expected

    def test_over_prime_field(self):
        report = axiom1(2, 3, CoefficientField.prime(7))
        assert report["verdict"] == "pass"
        assert report["field"] == "GF(7)"

    def test_degree_bound_validation(self):
        with pytest.raises(ValueError):
            verify(MatrixPattern.generic(2), -1)
        with pytest.raises(ValueError):
            verify(MatrixPattern.zero_pattern([[1, 0], [0, 1]]), -1)

    def test_failed_certificate_checks_no_degree(self):
        # x_1_1*x_1_2 and g_1 share x_1_1, and their S-polynomial
        # -x_1_2^2*y_2 is irreducible, so the pair check fails; axiom 1
        # then reports failure without eliminating any slice
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(2))
        extra = GeneratorSet(ctx, list(gens) + [
            ctx.polynomial({ctx.monomial({ctx.x(1, 1): 1, ctx.x(1, 2): 1}): 1})])
        certificate = is_groebner(extra)
        assert not certificate.is_basis
        report = verify_axiom1(certificate, None, build_poset(2), 3)
        assert report["verdict"] == "fail"
        assert not report["groebner_verified"] and report["degrees"] == []

    @pytest.mark.parametrize("n,d,dropped",
                             [(2, 2, False), (2, 3, False), (3, 3, False),
                              (2, 3, True)],
                             ids=["2-2", "2-3", "3-3", "dropped-cover-2-3"])
    def test_extra_relation_yields_oracle_mismatches(self, n, d, dropped):
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(n))
        certificate = is_groebner(gens)
        base = build_poset(n)
        if dropped:
            # without the cover x_2_2 <= y_1 the normal x_2_2*y_1 is not standard
            cover = (Variable.x(2, 2), Variable.y(1))
            relations = [c for c in base.covers() if c != cover]
        else:
            # x_1_1 <= y_1 makes the non-normal x_1_1*y_1 standard
            cover = (Variable.x(1, 1), Variable.y(1))
            relations = base.covers() + [cover]
        poset = Poset(base.elements, relations)
        init = initial_ideal(certificate)
        reports = _axiom1_degrees(ctx, gens, init, poset, d)
        expected = oracles.standard_normal_mismatches(
            n, d, [(a.name, b.name) for a, b in relations])
        assert expected
        assert not reports[d]["standard_equals_normal"]
        # the one minimal mismatch, the cover's product, and its degree-d multiples
        assert [e["mismatches"] for e in reports] == [
            [], [], [f"{cover[0]}*{cover[1]}"]] + [[]] * (d - 2)
        assert [e["standard_equals_normal"] for e in reports] == [
            True, True] + [False] * (d - 1)
        found = multiples(ctx, reports, d)
        if dropped:
            # a multiple that x_1_1*y_1 or x_2_2*y_2 divides is in both ideals
            normal = {str(m) for m in oracles.monomials_of_degree(ctx, d)
                      if init.is_normal(m)}
            found = [m for m in found if m in normal]
        assert found == expected
        axiom2 = verify_axiom2(certificate, poset)
        assert axiom2["incomparable_as_expected"] is False
        if dropped:
            assert [(e["standard"], e["normal"]) for e in reports[2:]] == [
                (18, 19), (40, 44)]

    @pytest.mark.parametrize("d", [2, 3])
    def test_dropped_generator_fails_basis_check(self, d):
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(3))
        entry = _axiom1_degrees(ctx, GeneratorSet(ctx, list(gens)[:-1]),
                                initial_ideal(is_groebner(gens)),
                                build_poset(3), d)[d]
        assert entry["standard_equals_normal"] and entry["count_matches"]
        assert entry["ideal_slice_rank"] < entry["monomials"] - entry["normal"]
        assert not entry["basis_check"]

    def test_normal_pivot_fails_basis_check(self):
        # the slice rank still matches, but one pivot, x_3_1*y_1, is normal
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(3))
        swapped = ctx.polynomial({ctx.monomial({ctx.x(3, 1): 1, ctx.y(1): 1}): 1})
        entry = _axiom1_degrees(ctx, GeneratorSet(ctx, list(gens)[:-1] + [swapped]),
                                initial_ideal(is_groebner(gens)),
                                build_poset(3), 2)[2]
        assert entry["ideal_slice_rank"] == entry["monomials"] - entry["normal"]
        assert not entry["basis_check"]

    def test_pivots_of_another_degree_fail_basis_check(self):
        # rows shift each generator by the degree d-2 multipliers, so a
        # cubic generator x_1_1^2*y_1 gives d-1 pivots of degree d+1, all
        # multiples of x_1_1*y_1: as many as the degree-d non-normal
        # monomials, but not the same monomials
        ctx, _ = matrix_product_ideal(MatrixPattern.generic(1))
        x, y = ctx.x(1, 1), ctx.y(1)
        cubic = GeneratorSet(ctx, [ctx.polynomial({ctx.monomial({x: 2, y: 1}): 1})])
        init = InitialIdeal(ctx, [ctx.monomial({x: 1, y: 1})])
        chain = Poset(ctx.variables, [(x, y)])
        for entry in _axiom1_degrees(ctx, cubic, init, chain, 4)[2:]:
            assert entry["ideal_slice_rank"] == entry["monomials"] - entry["normal"]
            assert not entry["basis_check"]

    def test_comparability_built_once_and_no_monomial_per_row(self, monkeypatch):
        # a generic verify builds one Poset, whose constructor makes the
        # comparability bitmasks, and reads the incomparable pairs and both
        # axioms' "standard" off them with no Poset.comparable call,
        # whatever the degree bound.  Monomials and Macaulay rows are heap
        # keys, so the Monomials built do not grow with the rows eliminated
        # (234 more at n = 3, degree 4)
        counts = Counter()
        real_poset = Poset.__init__
        real_comparable, real_init = Poset.comparable, Monomial.__init__

        def poset_init(self, *args):
            counts["poset"] += 1
            real_poset(self, *args)

        def comparable(self, a, b):
            counts["comparable"] += 1
            return real_comparable(self, a, b)

        def monomial_init(self, *args):
            counts["monomial"] += 1
            real_init(self, *args)
        monkeypatch.setattr(Poset, "__init__", poset_init)
        monkeypatch.setattr(Poset, "comparable", comparable)
        monkeypatch.setattr(Monomial, "__init__", monomial_init)
        for n, bounds in ((3, (3, 4)), (4, (2, 3))):
            seen = {}
            for bound in bounds:
                counts.clear()
                report = verify(MatrixPattern.generic(n), bound)
                assert report["verdict"] == "pass"
                seen[bound] = (counts["poset"], counts["comparable"],
                               counts["monomial"])
            assert seen[bounds[0]] == seen[bounds[1]]
            assert seen[bounds[1]][:2] == (1, 0)

    def test_row_shift_past_the_order_bound_raises(self, monkeypatch):
        # with 4-bit fields the order encodes total degree at most 7.  At
        # degree 8 a generator term (degree 2) and a multiplier (degree 6)
        # each have a key in range, but their sum, a Macaulay row term,
        # does not; the bound is checked once, before any slice is
        # eliminated
        from asl_forge import asl, poly_core
        monkeypatch.setattr(poly_core, "EXPONENT_BITS", 4)
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(1))
        chain = Poset(ctx.variables, [(ctx.x(1, 1), ctx.y(1))])
        entry = _axiom1_degrees(ctx, gens, InitialIdeal(ctx, []), chain, 7)[7]
        assert entry["ideal_slice_rank"] == 6  # x_1_1*y_1 times 6 monomials
        certificate = is_groebner(gens)
        init = initial_ideal(certificate)
        poset = build_poset(1)
        assert verify_axiom1(certificate, init, poset, 7)["verdict"] == "pass"
        with pytest.raises(ValueError, match="total degree 8"):
            verify_axiom1(certificate, init, poset, 8)
        started = []
        staircase = asl.staircase
        monkeypatch.setattr(asl, "staircase", lambda rows, field: (
            started.append("staircase") or staircase(rows, field)))
        with pytest.raises(ValueError, match="total degree 8"):
            _axiom1_degrees(ctx, gens, InitialIdeal(ctx, []), chain, 8)
        assert started == []
        # positive control: within the bound the wrapper is reached once
        # per slice
        _axiom1_degrees(ctx, gens, InitialIdeal(ctx, []), chain, 7)
        assert started == ["staircase"] * 8

    # The four test_walk_matches_dense_brute_force* tests keep the names
    # and parameter ids they had when they checked the monomial walk that
    # these routes replaced: the chain counts, the Hilbert numerator and
    # the minimal mismatches, each against the dense scan, on posets
    @pytest.mark.parametrize("bound,seed", [
        pytest.param(bound, seed, id=str(seed) if bound == 4 else f"{bound}-{seed}")
        for bound in (4, 1, 2, 6) for seed in range(8)])
    def test_walk_matches_dense_brute_force(self, bound, seed):
        # random posets on the variables of the generic n = 2 ring, and
        # random initial ideals of every kind, against a scan of dense
        # exponent tuples: per degree the counts, the minimal mismatches,
        # the flag and the basis check, whose pivots come from dense
        # elimination of the generic slice; seed 0 keeps the true initial
        # ideal
        kind = ("generic", "squarefree", "non-squarefree", "cubic", "unit",
                "empty", "squarefree", "non-squarefree")[seed]
        rng = random.Random(seed)
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(2))
        variables = ctx.variables
        generators = []
        if kind == "generic":
            generators = list(initial_ideal(is_groebner(gens)))
        elif kind == "unit":
            generators = [ctx.one]
        elif kind != "empty":
            for k in range(rng.randint(1, 3)):
                if kind == "squarefree":
                    e = Counter(rng.sample(variables, rng.randint(2, 3)))
                elif kind == "cubic":
                    e = Counter(rng.choices(variables, k=3))
                elif k == 0:  # one square or cube, then degree 2 or 3
                    e = Counter({rng.choice(variables): rng.randint(2, 3)})
                else:
                    e = Counter(rng.choices(variables, k=rng.randint(2, 3)))
                generators.append(ctx.monomial(e))
        init = InitialIdeal(ctx, generators)
        dense_init = [oracles.to_dense(g, len(variables)) for g in init]
        degrees = {sum(e) for e in dense_init}
        assert {"generic": degrees == {2}, "unit": degrees == {0},
                "empty": not degrees, "cubic": degrees == {3},
                "squarefree": degrees and max(map(max, dense_init)) == 1,
                "non-squarefree": degrees and max(map(max, dense_init)) >= 2,
                }[kind]
        reports, _ = _against_dense(ctx, gens, init, random_poset(rng, variables),
                                    bound)
        if kind == "generic":
            assert all(e["basis_check"] for e in reports)

    @pytest.mark.parametrize("bound,n", [
        (bound, n) for bound in (1, 2, 4) for n in (2, 3)] + [(6, 2)])
    def test_walk_matches_dense_brute_force_on_every_quotient_shape(self, n, bound):
        # one initial ideal with generators of every shape: x_a is linear,
        # x_b^2 a square, x_c*x_d and x_c*x_e share x_c, and the cubic
        # x_d^2*x_e shares x_d and x_e with them, so the Hilbert numerator
        # splits on shared variables and its colon ideals lose degree
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(n))
        variables = ctx.variables
        nv = len(variables)
        for seed in range(3):
            rng = random.Random(seed)
            a, b, c, d, e = rng.sample(variables, 5)
            init = InitialIdeal(ctx, [
                ctx.monomial(g) for g in ({a: 1}, {b: 2}, {c: 1, d: 1},
                                          {c: 1, e: 1}, {d: 2, e: 1})])
            assert len(init) == 5  # each generator is minimal
            reports, directions = _against_dense(
                ctx, gens, init, random_poset(rng, variables), bound)
            assert reports[1]["normal"] == nv - 1  # only x_a is non-normal
            assert reports[1]["mismatches"] == [a.name]  # a chain of one
            if bound >= 4:
                assert directions == {True, False}

    @pytest.mark.parametrize("ideal", ["generic", "unit"])
    @pytest.mark.parametrize("bound", [0, 1])
    def test_walk_matches_dense_brute_force_at_the_edge_bounds(self, bound, ideal):
        # bound 0 reads only the monomial 1, and bound 1 the variables too;
        # the unit ideal makes the monomial 1 itself non-normal
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(2))
        nv = len(ctx.variables)
        rng = random.Random(bound)
        init = (initial_ideal(is_groebner(gens)) if ideal == "generic"
                else InitialIdeal(ctx, [ctx.one]))
        reports, _ = _against_dense(ctx, gens, init,
                                    random_poset(rng, ctx.variables), bound)
        assert [e["monomials"] for e in reports] == [1, nv][:bound + 1]
        assert reports[0]["normal"] == int(ideal == "generic")

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bound", [2, 3, 4])
    def test_walk_matches_dense_brute_force_on_a_mixed_slice(self, n, bound,
                                                             monkeypatch):
        # g_1 loses its leading term, so its lead x_1_n*y_n is a normal
        # quadric, and g_n becomes the cubic x_1_1*g_n; the initial ideal
        # stays that of the generic generators.  Their unbuilt pivots get
        # the full pivot test; at n = 3 the unbuilt multiples of g_2's
        # lead, a non-normal quadric, are certified by that lead alone; and
        # rows whose lead is already a pivot are built.  At degree 4 one
        # slice holds all three kinds
        from asl_forge import asl
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(n))
        init = initial_ideal(is_groebner(gens))
        nv = len(ctx.variables)
        first, *middle, last = gens
        x = Counter([ctx.x(1, 1)])
        cubic = {ctx.monomial(Counter(dict(m.factors())) + x): c
                 for c, m in last.terms}
        mixed = [ctx.polynomial({m: c for c, m in first.terms[1:]}), *middle,
                 ctx.polynomial(cubic)]
        assert str(mixed[0].leading_monomial()) == f"x_1_{n}*y_{n}"
        assert mixed[-1].leading_monomial().total_degree == 3
        slices = []
        staircase = asl.staircase
        monkeypatch.setattr(asl, "staircase", lambda rows, field: (
            slices.append(staircase(rows, field)) or slices[-1]))
        reports, _ = _against_dense(ctx, GeneratorSet(ctx, mixed), init,
                                    build_poset(n).covers(), bound)
        dense_init = [oracles.to_dense(g, nv) for g in init]
        kinds = []
        for pivots in slices:
            certified = tested = built = 0
            for row in pivots.values():
                if type(row) is dict:
                    built += 1
                    continue
                lead = ctx.order.monomial(row[0][0])
                if lead.total_degree == 2 and any(
                        oracles.divides(g, oracles.to_dense(lead, nv))
                        for g in dense_init):
                    certified += 1
                else:
                    tested += 1
            kinds.append((certified, tested, built))
        assert not any(e["basis_check"] for e in reports[2:])
        # as many pivots as non-normal monomials: only the pivot test fails
        for entry in reports[2:4]:
            assert entry["ideal_slice_rank"] == entry["monomials"] - entry["normal"]
        assert all(tested for _, tested, _ in kinds[2:])
        if n == 3 and bound == 4:
            assert all(kinds[4])

    def test_checks_the_set_its_certificate_carries(self):
        # g_1 alone is a basis, but its initial ideal leaves x_2_2*y_2
        # normal, and that monomial is not standard
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(2))
        poset = build_poset(2)
        fewer = is_groebner(GeneratorSet(ctx, list(gens)[:1]))
        assert fewer.is_basis
        report = verify_axiom1(fewer, initial_ideal(fewer), poset, 2)
        assert report["verdict"] == "fail"
        assert report["degrees"][2]["mismatches"] == ["x_2_2*y_2"]
        # an equal set checked separately passes
        again = is_groebner(GeneratorSet(ctx, list(gens)))
        assert verify_axiom1(again, initial_ideal(again), poset, 2)["verdict"] == "pass"

    def test_unit_initial_ideal_makes_every_monomial_non_normal(self):
        # the monomial 1 in the ideal: it is standard, so it is the one
        # minimal mismatch, and standard differs from normal from degree 0
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(1))
        chain = Poset(ctx.variables, [(ctx.x(1, 1), ctx.y(1))])
        reports = _axiom1_degrees(ctx, gens, InitialIdeal(ctx, [ctx.one]), chain, 2)
        assert [e["normal"] for e in reports] == [0, 0, 0]
        assert [e["standard"] for e in reports] == [1, 2, 3]
        assert [e["mismatches"] for e in reports] == [["1"], [], []]
        assert [e["standard_equals_normal"] for e in reports] == [False] * 3
        assert [e["basis_check"] for e in reports] == [False, False, False]

    def test_cubic_generator_first_fails_at_its_own_degree(self):
        # x_1_2^3 added to the generic initial ideal is standard (its
        # support is one variable), so standard and normal agree up to
        # degree 2 and differ from degree 3 on
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(2))
        certificate = is_groebner(gens)
        cube = ctx.monomial({ctx.x(1, 2): 3})
        init = InitialIdeal(ctx, [*initial_ideal(certificate), cube])
        poset = build_poset(2)
        report = verify_axiom1(certificate, init, poset, 4)
        assert report["verdict"] == "fail"
        assert [e["mismatches"] for e in report["degrees"]] == [
            [], [], [], ["x_1_2^3"], []]
        assert [e["standard_equals_normal"] for e in report["degrees"]] == [
            True, True, True, False, False]
        assert [e["standard"] - e["normal"] for e in report["degrees"]] == [
            0, 0, 0, 1, 6]
        assert verify_axiom1(certificate, init, poset, 2)["verdict"] == "pass"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_chain_counts_give_the_closed_form(self, n):
        # the monomials on the poset's chains, sum_k c_k C(d-1, k-1),
        # against inclusion-exclusion over the diagonal quadrics
        N = n * n + n
        chains = _chain_counts(build_poset(n), 12)
        assert chains[:2] == [N, N * (N - 1) // 2 - n]
        for d in range(13):
            standard = (sum(c * math.comb(d - 1, k) for k, c in enumerate(chains))
                        if d else 1)
            assert standard == count_standard_monomials(n, d)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_generic_numerator_is_that_of_n_coprime_quadrics(self, n):
        # (1 - t^2)^n, cut at the bound
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(n))
        init = initial_ideal(is_groebner(gens))
        bound = 2 * n + 2
        expected = [0] * (bound + 1)
        for k in range(n + 1):
            expected[2 * k] = (-1) ** k * math.comb(n, k)
        assert _hilbert_numerator(ctx.order, init.packed, bound) == expected
        assert _hilbert_numerator(ctx.order, init.packed, 1) == [1, 0]

    def test_numerator_splits_shared_variables(self):
        # (a^2, a*b): (1 - t^2) - t^2 * K((a)) = 1 - 2t^2 + t^3, and the
        # unit ideal's numerator is 0
        ctx, _ = matrix_product_ideal(MatrixPattern.generic(1))
        a, b = ctx.variables
        init = InitialIdeal(ctx, [ctx.monomial({a: 2}), ctx.monomial({a: 1, b: 1})])
        assert _hilbert_numerator(ctx.order, init.packed, 5) == [1, 0, -2, 1, 0, 0]
        assert _hilbert_numerator(ctx.order, init.packed, 2) == [1, 0, -2]
        unit = InitialIdeal(ctx, [ctx.one])
        assert _hilbert_numerator(ctx.order, unit.packed, 3) == [0, 0, 0, 0]


class TestAxiom2:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_passes(self, n):
        report = axiom2(n)
        assert report["verdict"] == "pass"
        assert report["incomparable_as_expected"]
        assert len(report["relations"]) == n
        for entry in report["relations"]:
            assert entry["status"] == "pass"
            assert len(entry["expansion"]) == n - 1
            assert entry["minimal_below_alpha"]
            assert entry["minimal_below_beta"]
            assert entry["difference_reduces_to_zero"]

    def test_n1_vacuous(self):
        report = axiom2(1)
        assert report["verdict"] == "pass"
        assert report["relations"][0]["expansion"] == []

    def test_witnesses_are_genuine(self):
        # recheck the reported minimal factors through the poset itself
        report = axiom2(3)
        p = build_poset(3)
        by_name = {v.name: v for v in p.elements}
        for entry in report["relations"]:
            alpha = by_name[entry["alpha"]]
            beta = by_name[entry["beta"]]
            assert not p.comparable(alpha, beta)
            for term in entry["expansion"]:
                chain = [by_name[s] for s in term["chain"]]
                assert p.leq(chain[0], alpha) and p.leq(chain[0], beta)
                for a, b in zip(chain, chain[1:]):
                    assert p.leq(a, b)

    def test_note_embedded(self):
        assert axiom2(2)["poset_note"] == POSET_NOTE

    def test_checks_the_set_its_certificate_carries(self):
        # without g_1, x_1_1*y_1 is its own normal form, which is not standard
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(2))
        fewer = is_groebner(GeneratorSet(ctx, list(gens)[1:]))
        assert fewer.is_basis
        report = verify_axiom2(fewer, build_poset(2))
        assert report["verdict"] == "fail"
        assert relation(report, "x_1_1", "y_1") == {
            "alpha": "x_1_1", "beta": "y_1", "status": "fail",
            "non_standard_term": "x_1_1*y_1"}
        assert relation(report, "x_2_2", "y_2")["status"] == "pass"


NOT_INTS = [True, 2.0, "2", None]


@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
def test_sizes_and_degree_bounds_must_be_ints(value):
    # True == 1 and 2.0 == 2, yet each would reach the report as written
    # ("n": true) or fail deep in the ring or the order; all are refused
    from asl_forge import RingContext
    ctx, gens = matrix_product_ideal(MatrixPattern.generic(1))
    certificate = is_groebner(gens)
    calls = [lambda: MatrixPattern(value), lambda: RingContext(value),
             lambda: build_poset(value), lambda: count_standard_monomials(value, 1),
             lambda: count_standard_monomials(1, value),
             lambda: verify(MatrixPattern.generic(1), value),
             lambda: verify_axiom1(certificate, initial_ideal(certificate),
                                   build_poset(1), value)]
    for call in calls:
        with pytest.raises(ValueError, match="must be an int"):
            call()


@pytest.mark.parametrize("pattern,reason", [
    (MatrixPattern.generic(2), "generators are not a basis"),
    (MatrixPattern.zero_pattern([[0, 1], [1, 1]]),
     "completion failed the pair check"),
], ids=["generic", "zero"])
def test_failed_certificate_fails_the_report(pattern, reason, monkeypatch,
                                             capsys):
    # a pair check that reports failure must fail the report, whatever
    # the generators are; the command line then exits 1 with the report
    from asl_forge import asl
    from asl_forge.cli import main

    def failing(gens):
        cert = is_groebner(gens)
        return GroebnerCertificate(False, cert.pairs, cert.basis)

    monkeypatch.setattr(asl, "is_groebner", failing)
    report = verify(pattern, 2)
    sections = report["sections"]
    assert sections["groebner"]["status"] == "fail"
    assert sections["initial_ideal"] == {"status": "fail", "reason": reason}
    if pattern.kind == "generic":
        assert sections["axiom1"]["verdict"] == "fail"
        assert sections["axiom1"]["degrees"] == []
    assert report["verdict"] == "fail"
    argv = ["verify", "--n", "2", "--degree", "2"]
    if pattern.kind == "zero_pattern":
        argv += ["--pattern", "zero", "--mask", "[[0, 1], [1, 1]]"]
    capsys.readouterr()
    assert main(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "fail"
    assert out["sections"]["initial_ideal"] == {"status": "fail", "reason": reason}
