"""Division, S-pairs, Buchberger, certificates, initial ideals."""

import hashlib
import math
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from asl_forge import (
    CoefficientField,
    GeneratorSet,
    GroebnerCertificate,
    InitialIdeal,
    MatrixPattern,
    NotGroebnerError,
    Polynomial,
    RingContext,
    SPairRecord,
    buchberger,
    initial_ideal,
    is_groebner,
    matrix_product_ideal,
    reduce,
)
from asl_forge import groebner
from asl_forge.groebner import _divisor_entry, _pair_remainder
from asl_forge.poly_core import EXPONENT_BITS

# the order encodes monomials of total degree below this bound
BOUND = 1 << (EXPONENT_BITS - 1)


def generic(n):
    return matrix_product_ideal(MatrixPattern.generic(n))


def poly(ctx, *terms):
    """terms: (coefficient, {variable: exponent}) pairs."""
    acc = {}
    for c, exps in terms:
        m = ctx.monomial(exps)
        acc[m] = acc.get(m, 0) + c
    return ctx.polynomial(acc)


def random_combination(ctx, gens, rng, max_mult_terms=3):
    """A visibly-in-the-ideal element: sum of random term multiples of gens."""
    f = ctx.zero
    for g in gens:
        for _ in range(rng.randint(0, max_mult_terms)):
            exps = {}
            for _ in range(rng.randint(0, 2)):
                v = rng.choice(ctx.variables)
                exps[v] = exps.get(v, 0) + 1
            f = f + oracles.term_multiple(g, Fraction(rng.randint(-4, 4)),
                                          ctx.monomial(exps))
    return f


def times(f, g):
    """f * g as a sum of term multiples of g."""
    total = f.ctx.zero
    for c, m in f.terms:
        total = total + oracles.term_multiple(g, c, m)
    return total


def pair_remainder(polys, a, b):
    """The kernel's remainder of S(polys[a], polys[b]) by all of polys.

    The lcm of the leads comes from the oracle, not from the order's
    packed lcm, and is passed packed as the kernel takes it.
    """
    ctx = polys[0].ctx
    table = [_divisor_entry(ctx, f) for f in polys]
    lcm = oracles.monomial_lcm(polys[a].leading_monomial(),
                               polys[b].leading_monomial())
    return _pair_remainder(ctx, table, a, b,
                           ctx.order.packed(ctx.order.heap_key(lcm)))


class TestReduce:
    def test_straightening_normal_form(self):
        ctx, gens = generic(2)
        f = poly(ctx, (1, {ctx.x(1, 1): 1, ctx.y(1): 1}))
        assert reduce(f, gens) == poly(ctx, (-1, {ctx.x(1, 2): 1, ctx.y(2): 1}))

    def test_generator_reduces_to_zero(self):
        ctx, gens = generic(2)
        assert not reduce(gens[0], gens)
        assert not reduce(ctx.zero, gens)

    def test_product_normal_form_n3(self):
        # x_1_1*x_2_2*y_1*y_2 rewrites like the product of the two
        # straightened factors, and lands outside the staircase
        ctx, gens = generic(3)
        f = poly(ctx, (1, {ctx.x(1, 1): 1, ctx.x(2, 2): 1,
                           ctx.y(1): 1, ctx.y(2): 1}))
        nf = reduce(f, gens)
        factor1 = reduce(poly(ctx, (1, {ctx.x(1, 1): 1, ctx.y(1): 1})), gens)
        factor2 = reduce(poly(ctx, (1, {ctx.x(2, 2): 1, ctx.y(2): 1})), gens)
        assert nf == reduce(times(factor1, factor2), gens)
        init = initial_ideal(is_groebner(gens))
        assert all(init.is_normal(m) for _, m in nf.terms)
        assert oracles.is_member(ctx, gens, f - nf)

    def test_full_tail_reduction(self):
        # every term of the remainder is irreducible, not just the lead
        ctx, gens = generic(2)
        f = poly(ctx,
                 (1, {ctx.x(1, 2): 1, ctx.x(1, 1): 1, ctx.y(1): 1}),
                 (1, {ctx.y(2): 2}))
        r = reduce(f, gens)
        leads = [g.leading_monomial() for g in gens]
        for _, m in r.terms:
            assert not any(oracles.monomial_divides(lm, m) for lm in leads)

    def test_division_contract_on_random_ideal_elements(self):
        rng = random.Random(11)
        ctx, gens = generic(2)
        for _ in range(25):
            f = random_combination(ctx, gens, rng)
            # the generators are a Groebner basis, so members divide exactly
            assert not reduce(f, gens)
            assert oracles.is_member(ctx, gens, f)

    def test_reduce_idempotent_and_linear(self):
        rng = random.Random(5)
        ctx, gens = generic(2)
        for _ in range(20):
            f = random_combination(ctx, gens, rng) + poly(
                ctx, (Fraction(rng.randint(-3, 3)),
                      {ctx.x(1, 2): rng.randint(0, 2), ctx.y(1): 1}))
            g = random_combination(ctx, gens, rng)
            rf, rg = reduce(f, gens), reduce(g, gens)
            assert reduce(rf, gens) == rf
            a, b = Fraction(3, 2), Fraction(-2)
            one, scale = ctx.one, oracles.term_multiple
            assert (reduce(scale(f, a, one) + scale(g, b, one), gens)
                    == scale(rf, a, one) + scale(rg, b, one))


@st.composite
def small_polys(draw, ctx, max_terms=4, max_degree=3,
                coefficients=st.integers(-3, 3)):
    """A polynomial with up to max_terms terms of degree <= max_degree."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = {}
        for _ in range(draw(st.integers(0, max_degree))):
            v = draw(st.sampled_from(ctx.variables))
            exps[v] = exps.get(v, 0) + 1
        m = ctx.monomial(exps)
        terms[m] = terms.get(m, 0) + draw(coefficients)
    return ctx.polynomial(terms)


_RING2 = RingContext(2)

# ints and true fractions; a leading coefficient other than +-1 makes
# every division step divide coefficients
_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))
_NONUNIT_LEAD = small_polys(_RING2, coefficients=_RATIONALS).filter(
    lambda f: f and abs(f.terms[0][0]) != 1)


def exact_coefficients(*polys):
    """True when every coefficient is an int or a Fraction, never a float or bool."""
    return all(type(c) in (int, Fraction) for f in polys for c, _ in f.terms)


class TestDivisionAgainstOracle:
    # divisors are arbitrary lists, almost never Groebner bases, so the
    # first-divisor selection rule decides the remainder
    @staticmethod
    def check(f, divisors):
        r = reduce(f, divisors)
        _, want_r = oracles.dense_divide(
            _RING2, oracles.dense_poly(_RING2, f),
            [oracles.dense_poly(_RING2, g) for g in divisors])
        assert oracles.dense_poly(_RING2, r) == want_r
        assert exact_coefficients(r)

    @settings(max_examples=150)
    @given(small_polys(_RING2, max_terms=5),
           st.lists(small_polys(_RING2).filter(bool), min_size=1, max_size=3))
    def test_divide_matches_dict_and_max_loop(self, f, divisors):
        self.check(f, divisors)

    @settings(max_examples=150)
    @given(small_polys(_RING2, max_terms=5, coefficients=_RATIONALS),
           st.lists(_NONUNIT_LEAD, min_size=1, max_size=3))
    def test_rational_division_matches_fraction_oracle(self, f, divisors):
        self.check(f, divisors)

    def test_divisor_order_changes_the_remainder(self):
        # f = x^2 y + x y^2 + y^2 by [xy - 1, y^2 - 1] and by the reverse
        # list, x = x_1_1 > y = x_2_2 (Cox, Little and O'Shea, 2.3)
        ctx = _RING2
        x, y = ctx.x(1, 1), ctx.x(2, 2)
        f = poly(ctx, (1, {x: 2, y: 1}), (1, {x: 1, y: 2}), (1, {y: 2}))
        g1 = poly(ctx, (1, {x: 1, y: 1}), (-1, {}))
        g2 = poly(ctx, (1, {y: 2}), (-1, {}))
        assert reduce(f, [g1, g2]) == poly(ctx, (1, {x: 1}), (1, {y: 1}), (1, {}))
        assert reduce(f, [g2, g1]) == poly(ctx, (2, {x: 1}), (1, {}))


def random_poly(ctx, rng, terms, lead=None):
    """Up to `terms` random terms of degree <= 3; `lead` replaces the
    leading coefficient of a nonzero result."""
    acc = {}
    for _ in range(terms):
        m = ctx.monomial({v: rng.randint(1, 2)
                          for v in rng.sample(ctx.variables, rng.randint(0, 2))})
        acc[m] = acc.get(m, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    f = ctx.polynomial(acc)
    if lead is None or not f:
        return f
    return Polynomial(ctx, ((ctx.field.coerce(lead), f.terms[0][1]),) + f.terms[1:])


def lifted(ctx, f):
    """Dense form of f; a GF(p) coefficient is lifted to its residue."""
    nv = len(ctx.variables)
    return {oracles.to_dense(m, nv): Fraction(getattr(c, "residue", c))
            for c, m in f.terms}


def image(field, dense):
    """A dense QQ result of lifted inputs, mapped into the field.

    Over GF(p) each coefficient is reduced mod p, which commutes with the
    division as long as every denominator is a unit mod p.
    """
    if field.p is None:
        return dense
    residues = {m: c.numerator * pow(c.denominator, -1, field.p) % field.p
                for m, c in dense.items()}
    return {m: Fraction(r) for m, r in residues.items() if r}


class TestNonUnitLeadingCoefficients:
    # the division skips dividing by a leading coefficient only when it is
    # the field's one; a lead of 2 or -3 (4 over GF(7)) must still divide
    @pytest.mark.parametrize("field", [CoefficientField.rationals(),
                                       CoefficientField.prime(7)],
                             ids=lambda f: f.name)
    def test_reduce_and_pair_checks_match_oracle(self, field):
        ctx = RingContext(2, field=field)
        rng = random.Random(7)
        for _ in range(60):
            # mixed leads, so that no pair's S-polynomial is only rescaled
            divisors = [g for g in (random_poly(ctx, rng, 3, rng.choice([2, -3]))
                                    for _ in range(rng.randint(1, 3))) if g]
            if not divisors:
                continue
            dense = [lifted(ctx, g) for g in divisors]
            f = random_poly(ctx, rng, 5)
            _, want = oracles.dense_divide(ctx, lifted(ctx, f), dense)
            assert lifted(ctx, reduce(f, divisors)) == image(field, want)
            cert = is_groebner(GeneratorSet(ctx, divisors))
            for rec in cert.pairs:
                if rec.criterion == "reduced":
                    _, r = oracles.dense_divide(ctx, oracles.dense_s_polynomial(
                        ctx, dense[rec.i], dense[rec.j]), dense)
                    assert rec.remainder_zero == (not image(field, r))
                    assert lifted(ctx, pair_remainder(divisors, rec.i, rec.j)) \
                        == image(field, r)


class TestSPolynomial:
    # S-polynomials are never built: each pair is seeded into the division
    # loop, so the kernel's pair remainders are what these tests check
    @settings(max_examples=150)
    @given(st.lists(_NONUNIT_LEAD, min_size=2, max_size=4))
    def test_matches_fraction_oracle(self, polys):
        dense = [oracles.dense_poly(_RING2, f) for f in polys]
        zero = {}
        for a in range(len(polys)):
            for b in range(a + 1, len(polys)):
                r = pair_remainder(polys, a, b)
                _, want = oracles.dense_divide(
                    _RING2, oracles.dense_s_polynomial(_RING2, dense[a], dense[b]),
                    dense)
                assert oracles.dense_poly(_RING2, r) == want
                assert exact_coefficients(r)
                zero[a, b] = not want
        for rec in is_groebner(GeneratorSet(_RING2, polys)).pairs:
            if rec.criterion == "reduced":
                assert rec.remainder_zero == zero[rec.i, rec.j]

    def test_self_pair_vanishes(self):
        ctx, gens = generic(2)
        lopsided = poly(ctx, (3, {ctx.x(1, 1): 2}), (2, {ctx.y(1): 2}))
        polys = list(gens) + [lopsided]
        for k in range(len(polys)):
            assert not pair_remainder(polys, k, k)

    def test_generic_pair_reduces_to_zero(self):
        ctx, gens = generic(2)
        assert not pair_remainder(list(gens), 0, 1)

    def test_cancellation_drops_below_lcm(self):
        # the leading terms cancel, so the remainder of S(f, g) by
        # [f, g] lies strictly below lcm(LM(f), LM(g))
        rng = random.Random(7)
        ctx, gens = generic(3)
        pool = list(oracles.monomials_of_degree(ctx, 2))
        for _ in range(25):
            f = poly(ctx, *(((rng.randint(1, 5)), dict(rng.choice(pool).factors()))
                            for _ in range(2)))
            g = poly(ctx, *(((rng.randint(1, 5)), dict(rng.choice(pool).factors()))
                            for _ in range(2)))
            if not f or not g:
                continue
            lcm = oracles.monomial_lcm(f.leading_monomial(), g.leading_monomial())
            for _, m in pair_remainder([f, g], 0, 1).terms:
                assert ctx.order.compare(m, lcm) == -1


class TestExponentBound:
    # past the bound a key would misorder silently, so it must raise instead
    def test_monomial_at_the_bound_is_refused(self):
        ctx, gens = generic(2)
        x = ctx.x(1, 1)
        below = ctx.monomial({x: BOUND - 1})
        assert ctx.order.heap_key(below) < ctx.order.heap_key(ctx.one)
        assert reduce(Polynomial(ctx, ((1, below),)), gens) == poly(
            ctx, (1, {x: BOUND - 1}))
        for exps in ({x: BOUND}, {x: 2 ** EXPONENT_BITS},
                     {x: BOUND - 1, ctx.y(2): 1}):
            m = ctx.monomial(exps)
            with pytest.raises(ValueError, match="total degree"):
                ctx.order.heap_key(m)
            with pytest.raises(ValueError, match="total degree"):
                reduce(Polynomial(ctx, ((1, m),)), gens)

    def test_division_product_past_the_bound_is_refused(self):
        # x_1_1 leads x_1_1 - y_1^2, so each division step raises the degree
        ctx = RingContext(1)
        x, y = ctx.x(1, 1), ctx.y(1)
        g = poly(ctx, (1, {x: 1}), (-1, {y: 2}))
        assert reduce(poly(ctx, (1, {x: 3})), [g]) == poly(ctx, (1, {y: 6}))
        with pytest.raises(ValueError, match="total degree"):
            reduce(poly(ctx, (1, {x: BOUND // 2 + 1})), [g])

    def test_lcm_past_the_bound_is_refused(self):
        ctx = RingContext(1)
        x, y = ctx.x(1, 1), ctx.y(1)
        gens = GeneratorSet(ctx, [poly(ctx, (1, {x: 1, y: BOUND - 2})),
                                  poly(ctx, (1, {x: 2}))])
        for check in (is_groebner, buchberger):
            with pytest.raises(ValueError, match="total degree"):
                check(gens)


class TestBuchberger:
    def test_generic_already_reduced(self):
        ctx, gens = generic(2)
        basis = buchberger(gens)
        assert list(basis) == list(gens)

    def test_principal_ideal(self):
        ctx, _ = generic(2)
        f = poly(ctx, (3, {ctx.x(1, 2): 2}), (6, {ctx.y(1): 1}))
        basis = buchberger(GeneratorSet(ctx, [f]))
        assert list(basis) == [f.monic()]

    def test_zero_pattern_completion(self):
        # killing x_2_2 forces one new degree-3 element
        ctx, gens = matrix_product_ideal(MatrixPattern.zero_pattern([[1, 1], [1, 0]]))
        basis = buchberger(gens)
        expected = [
            poly(ctx, (1, {ctx.x(1, 1): 1, ctx.y(1): 1}),
                 (1, {ctx.x(1, 2): 1, ctx.y(2): 1})),
            poly(ctx, (1, {ctx.x(1, 2): 1, ctx.x(2, 1): 1, ctx.y(2): 1})),
            poly(ctx, (1, {ctx.x(2, 1): 1, ctx.y(1): 1})),
        ]
        assert list(basis) == expected
        assert is_groebner(basis).is_basis

    def test_fixed_point(self):
        ctx, gens = matrix_product_ideal(MatrixPattern.zero_pattern([[1, 1], [1, 0]]))
        basis = buchberger(gens)
        again = buchberger(GeneratorSet(ctx, list(basis)))
        assert list(again) == list(basis)

    def test_membership_via_reduction(self):
        rng = random.Random(23)
        ctx, gens = matrix_product_ideal(MatrixPattern.zero_pattern([[1, 1], [1, 0]]))
        basis = buchberger(gens)
        for _ in range(25):
            f = random_combination(ctx, gens, rng)
            assert not reduce(f, basis)
            assert oracles.is_member(ctx, gens, f)

    def test_buchberger_makes_reduced_sets(self):
        # the input is not interreduced first: the second element's
        # leading monomial repeats the first's, and its tail survives as
        # the monic y_1 only through the completion
        ctx, _ = generic(2)
        f = poly(ctx, (1, {ctx.x(1, 1): 1}))
        g = poly(ctx, (2, {ctx.x(1, 1): 1}), (2, {ctx.y(1): 1}))
        reduced = buchberger(GeneratorSet(ctx, [f, g]))
        assert list(reduced) == [f, poly(ctx, (1, {ctx.y(1): 1}))]
        assert list(buchberger(GeneratorSet(ctx, [ctx.zero]))) == []
        assert list(buchberger(GeneratorSet(ctx, []))) == []


FIELDS = [CoefficientField.rationals()] + [CoefficientField.prime(p)
                                           for p in (2, 3, 32003)]


@st.composite
def masks(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    return [draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
            for _ in range(n)]


def parse(ctx, text):
    """A polynomial from its printed form, e.g. "2*x_2_1^2 - y_1 + 3"."""
    by_name = {v.name: v for v in ctx.variables}
    terms = {}
    for sign, body in re.findall(r"(^-?|[+-]) *([^ +-][^+-]*)", text):
        factors = body.strip().split("*")
        c = -1 if sign.strip() == "-" else 1
        if factors[0].isdigit():
            c *= int(factors.pop(0))
        exps = {}
        for f in factors:
            name, _, e = f.partition("^")
            exps[by_name[name]] = int(e or 1)
        terms[ctx.monomial(exps)] = c
    return ctx.polynomial(terms)


def dense_set(ctx, polys):
    """Polynomials in the form oracles.reduced_groebner_basis returns."""
    return frozenset(tuple(sorted(oracles.dense_poly(ctx, f).items()))
                     for f in polys)


class TestCompletionFuzz:
    @settings(max_examples=100, deadline=None)
    @given(masks(), st.sampled_from(FIELDS), st.randoms(use_true_random=False))
    def test_completion_is_a_basis_of_the_same_ideal(self, mask, field, rng):
        ctx, gens = matrix_product_ideal(MatrixPattern.zero_pattern(mask), field)
        basis = buchberger(gens)
        assert is_groebner(basis).is_basis
        assert all(not reduce(g, basis) for g in gens)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert list(buchberger(GeneratorSet(ctx, shuffled))) == list(basis)
        if field.p is None:
            assert all(oracles.is_member(ctx, gens, b) for b in basis)

    # small enough that a completion without criteria stays fast.  The
    # example is the one drawn by --hypothesis-seed=18, on which the
    # reference completion ran for minutes while it took pairs last in,
    # first out; by smallest lcm degree it takes milliseconds
    @settings(max_examples=200, deadline=None)
    @given(st.lists(small_polys(_RING2, max_terms=3, max_degree=2).filter(bool),
                    min_size=1, max_size=3))
    @example([parse(_RING2, t) for t in (
        "-x_1_1 - 3*x_2_2*y_2 - 3*y_1", "x_1_1*x_2_2 + 3*x_2_2*y_1 - 2",
        "-2*x_1_1*y_1 - 2*x_1_1*x_2_1 + x_1_1")])
    def test_inhomogeneous_inputs_match_reference_completion(self, polys):
        basis = buchberger(GeneratorSet(_RING2, polys))
        assert dense_set(_RING2, basis) == oracles.reduced_groebner_basis(_RING2, polys)


@pytest.mark.parametrize("texts", [
    # dropping an old pair whose lcm equals lcm(a, t) or lcm(b, t)
    ["2*x_2_1^2", "2*y_2^2 - 1", "-2*x_2_1*y_2 + 2*x_1_2^2 - 1"],
    # dropping every new pair that shares an lcm instead of keeping one
    ["-x_2_1*x_2_2 + x_2_2", "x_2_1*y_1 - 2*y_2 - x_2_1",
     "-x_2_2*y_1 - 2*x_2_2 - y_1*y_2"],
    # either of the two
    ["2*x_2_1*y_1 - 2*x_1_2*y_1 - y_1", "x_1_1*y_1 - x_2_1*x_2_2",
     "-2*x_1_1*x_2_1 - y_2^2 + 2*y_1"],
])
def test_pair_criteria_edge_cases(texts):
    # inputs on which a criterion with one of the strictness conditions
    # removed returns a wrong basis; the zero masks never reach these cases
    polys = [parse(_RING2, t) for t in texts]
    assert [str(f) for f in polys] == texts
    basis = buchberger(GeneratorSet(_RING2, polys))
    assert dense_set(_RING2, basis) == oracles.reduced_groebner_basis(_RING2, polys)


def every_mask(n):
    for bits in product((0, 1), repeat=n * n):
        yield [list(bits[i * n:(i + 1) * n]) for i in range(n)]


@pytest.fixture
def divided(monkeypatch):
    """The polynomials groebner._remainder divides while the test runs.

    Within buchberger only the final reduced-basis pass calls it.
    """
    calls = []
    remainder = groebner._remainder

    def spy(ctx, table, f):
        calls.append(f)
        return remainder(ctx, table, f)

    monkeypatch.setattr(groebner, "_remainder", spy)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_criteria_sound_on_every_mask(n, divided):
    # buchberger drops pairs by the Gebauer-Moeller criteria; a reference
    # completion that reduces every pair must reach the same reduced basis,
    # and the certificate must still check every pair.  The completed
    # tails are already reduced, so the final pass divides nothing
    for mask in every_mask(n):
        ctx, gens = matrix_product_ideal(MatrixPattern.zero_pattern(mask))
        basis = buchberger(gens)
        assert dense_set(ctx, basis) == oracles.reduced_groebner_basis(ctx, gens), mask
        cert = is_groebner(basis)
        leads = [b.leading_monomial() for b in basis]
        assert len(cert.pairs) == math.comb(len(basis), 2)
        for rec in cert.pairs:
            coprime = oracles.coprime(leads[rec.i], leads[rec.j])
            assert rec.criterion == ("coprime" if coprime else "reduced")
    assert divided == []


def test_completion_reduces_the_pinned_pair_sequence(monkeypatch):
    # the work, not only the result: the (a, b) pairs buchberger hands to
    # the pair reduction, in order, over every n=3 mask and two fields.
    # The digest was recorded with the list-rebuilding update that the
    # index loops replaced; a change to the criteria or the order moves it
    calls = []

    def spy(ctx, table, a, b, lcm):
        calls.append((a, b))
        return _pair_remainder(ctx, table, a, b, lcm)

    monkeypatch.setattr(groebner, "_pair_remainder", spy)
    lines = []
    for field in (CoefficientField.rationals(), CoefficientField.prime(3)):
        for mask in every_mask(3):
            start = len(calls)
            buchberger(matrix_product_ideal(MatrixPattern.zero_pattern(mask), field)[1])
            lines.append(f"{field.name} {mask} {calls[start:]}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(calls), digest) == (
        1786, "1a0586eab3989fd75b4c9faed4969abcb49511e7d6c51d1b3034b9204ba8e4e4")


class TestReducedBasisPass:
    # the final pass divides only a survivor whose tail a leading monomial
    # divides; every other survivor is kept as it is, made monic
    def test_reducible_tail_is_divided(self, divided):
        # coprime leads, so no pair is reduced: only the pass can take the
        # y_1 out of the first element's tail
        ctx, _ = generic(2)
        f = poly(ctx, (2, {ctx.x(1, 1): 1}), (2, {ctx.y(1): 1}))
        g = poly(ctx, (-3, {ctx.y(1): 1}), (1, {ctx.x(1, 2): 1}))
        basis = buchberger(GeneratorSet(ctx, [f, g]))
        assert divided == [f]
        assert list(basis) == [poly(ctx, (1, {ctx.x(1, 1): 1}),
                                    (Fraction(1, 3), {ctx.x(1, 2): 1})),
                               g.monic()]
        assert dense_set(ctx, basis) == oracles.reduced_groebner_basis(ctx, [f, g])

    def test_repeated_lead_is_dropped(self, divided):
        # the second element repeats the first's lead and is dropped; the
        # survivors' tails are irreducible, so nothing is divided
        ctx, _ = generic(2)
        f = poly(ctx, (1, {ctx.x(1, 1): 1}))
        g = poly(ctx, (2, {ctx.x(1, 1): 1}), (2, {ctx.y(1): 1}))
        basis = buchberger(GeneratorSet(ctx, [f, g]))
        assert divided == []
        assert list(basis) == [f, poly(ctx, (1, {ctx.y(1): 1}))]
        assert dense_set(ctx, basis) == oracles.reduced_groebner_basis(ctx, [f, g])


class TestCertificates:
    def test_generic_all_coprime(self):
        for n in range(2, 7):
            ctx, gens = generic(n)
            cert = is_groebner(gens)
            assert cert.is_basis
            assert len(cert.pairs) == n * (n - 1) // 2
            assert all(p.criterion == "coprime" for p in cert.pairs)
            assert all(p.remainder_zero for p in cert.pairs)

    def test_incomplete_set_rejected(self):
        ctx, _ = generic(2)
        gens = GeneratorSet(ctx, [
            poly(ctx, (1, {ctx.x(1, 1): 1, ctx.y(1): 1}),
                 (1, {ctx.x(1, 2): 1, ctx.y(2): 1})),
            poly(ctx, (1, {ctx.x(1, 1): 1})),
        ])
        cert = is_groebner(gens)
        assert not cert.is_basis
        assert [(p.criterion, p.remainder_zero) for p in cert.pairs] \
            == [("reduced", False)]

    def test_singleton_trivially_groebner(self):
        ctx, _ = generic(2)
        cert = is_groebner(GeneratorSet(ctx, [poly(ctx, (1, {ctx.y(1): 2}))]))
        assert cert.is_basis and cert.pairs == ()

    def test_pair_record_is_a_value(self):
        rec = SPairRecord(0, 1, "coprime", True)
        same = SPairRecord(i=0, j=1, criterion="coprime", remainder_zero=True)
        assert rec == same and hash(rec) == hash(same)
        assert rec != SPairRecord(0, 1, "reduced", True)
        assert (rec.i, rec.j, rec.criterion, rec.remainder_zero) == (0, 1, "coprime", True)
        with pytest.raises(AttributeError):
            rec.remainder_zero = False
        with pytest.raises(TypeError):
            SPairRecord(0, 1, "coprime")

    def test_certificate_is_a_value(self):
        ctx, gens = generic(2)
        cert, again = is_groebner(gens), is_groebner(gens)
        assert cert == again and hash(cert) == hash(again)
        copy = is_groebner(GeneratorSet(ctx, list(gens)))
        assert cert == copy and hash(cert) == hash(copy)
        assert cert != is_groebner(GeneratorSet(ctx, list(gens)[:1]))
        assert cert == GroebnerCertificate(is_basis=True, pairs=cert.pairs,
                                           basis=cert.basis)
        assert cert != GroebnerCertificate(False, cert.pairs, cert.basis)
        for name in ("is_basis", "pairs", "other"):
            with pytest.raises(AttributeError):
                setattr(cert, name, None)
        with pytest.raises(AttributeError):
            del cert.basis

    def test_certificate_json_shape(self):
        ctx, gens = generic(2)
        cert = is_groebner(gens)
        data = {"is_basis": cert.is_basis,
                "pairs": [oracles.pair_json(p) for p in cert.pairs],
                "basis": [oracles.polynomial_json(f) for f in cert.basis]}
        assert data["is_basis"] is True
        assert data["pairs"] == [
            {"i": 0, "j": 1, "criterion": "coprime", "remainder_zero": True}]
        assert len(data["basis"]) == 2


class TestInitialIdeal:
    def test_generic_diagonal_products(self):
        ctx, gens = generic(3)
        init = initial_ideal(is_groebner(gens))
        expected = {ctx.monomial({ctx.x(i, i): 1, ctx.y(i): 1})
                    for i in range(1, 4)}
        assert set(init) == expected

    def test_principal(self):
        ctx, _ = generic(2)
        f = poly(ctx, (2, {ctx.x(1, 1): 1, ctx.y(2): 1}), (1, {ctx.y(1): 1}))
        init = initial_ideal(is_groebner(GeneratorSet(ctx, [f])))
        assert list(init) == [ctx.monomial({ctx.x(1, 1): 1, ctx.y(2): 1})]

    def test_zero_pattern_minimal_generators(self):
        ctx, gens = matrix_product_ideal(MatrixPattern.zero_pattern([[1, 1], [1, 0]]))
        basis = buchberger(gens)
        init = initial_ideal(is_groebner(basis))
        expected = {
            ctx.monomial({ctx.x(1, 1): 1, ctx.y(1): 1}),
            ctx.monomial({ctx.x(2, 1): 1, ctx.y(1): 1}),
            ctx.monomial({ctx.x(1, 2): 1, ctx.x(2, 1): 1, ctx.y(2): 1}),
        }
        assert set(init) == expected
        gens_list = list(init)
        for a in gens_list:
            for b in gens_list:
                assert a == b or not oracles.monomial_divides(a, b)
        # each initial generator is witnessed by an actual ideal element
        for b in basis:
            assert oracles.is_member(ctx, gens, b)

    def test_requires_groebner_input(self):
        ctx, gens = matrix_product_ideal(MatrixPattern.zero_pattern([[1, 1], [1, 0]]))
        with pytest.raises(NotGroebnerError):
            initial_ideal(is_groebner(gens))

    def test_reads_the_set_its_certificate_carries(self):
        # the raw generators are no basis, and their two leading monomials
        # miss x_1_2*x_2_1*y_2; the completion's certificate gives all three
        ctx, gens = matrix_product_ideal(MatrixPattern.zero_pattern([[1, 1], [1, 0]]))
        with pytest.raises(NotGroebnerError):
            initial_ideal(is_groebner(gens))
        basis = buchberger(gens)
        init = initial_ideal(is_groebner(basis))
        assert len(init) == 3
        assert ctx.monomial({ctx.x(1, 2): 1, ctx.x(2, 1): 1, ctx.y(2): 1}) in set(init)
        assert initial_ideal(is_groebner(GeneratorSet(ctx, list(basis)))) == init

    @settings(max_examples=150)
    @given(st.lists(small_polys(_RING2, max_terms=1, max_degree=4).filter(bool),
                    max_size=6))
    def test_minimal_generators_match_dense_scan(self, polys):
        # degree-screened minimality and the packed is_normal test against
        # an all-pairs scan of dense exponents, duplicates included
        ms = [f.leading_monomial() for f in polys] * 2
        init = InitialIdeal(_RING2, ms)
        nv = len(_RING2.variables)
        dense = {oracles.to_dense(m, nv) for m in ms}
        minimal = {e for e in dense
                   if not any(d != e and oracles.divides(d, e) for d in dense)}
        assert {oracles.to_dense(g, nv) for g in init} == minimal
        for d in range(4):
            for m in oracles.monomials_of_degree(_RING2, d):
                e = oracles.to_dense(m, nv)
                assert init.is_normal(m) == (
                    not any(oracles.divides(g, e) for g in minimal))

    def test_minimality_drops_redundant(self):
        ctx, _ = generic(2)
        f = poly(ctx, (1, {ctx.y(1): 1}))
        g = poly(ctx, (1, {ctx.y(1): 2}))  # lead divisible by f's
        init = initial_ideal(is_groebner(buchberger(GeneratorSet(ctx, [f, g]))))
        assert list(init) == [ctx.monomial({ctx.y(1): 1})]


class TestNormalMonomials:
    def test_examples(self):
        ctx, gens = generic(2)
        init = initial_ideal(is_groebner(gens))
        assert init.is_normal(ctx.monomial({ctx.x(1, 1): 1, ctx.y(2): 1}))
        assert not init.is_normal(
            ctx.monomial({ctx.x(1, 1): 1, ctx.y(1): 1, ctx.x(1, 2): 1}))
        assert init.is_normal(ctx.one)

    def test_degree2_count_19(self):
        ctx, gens = generic(2)
        init = initial_ideal(is_groebner(gens))
        normal = [m for m in oracles.monomials_of_degree(ctx, 2)
                  if init.is_normal(m)]
        assert len(normal) == 19

    @pytest.mark.parametrize("n,dmax", [(1, 4), (2, 4), (3, 3)])
    def test_slice_pivots_match_staircase(self, n, dmax):
        # the ideal's degree slice, echelonized by an independent
        # elimination, pivots exactly on the non-normal monomials
        ctx, gens = generic(n)
        init = initial_ideal(is_groebner(gens))
        nv = len(ctx.variables)
        for d in range(dmax + 1):
            non_normal = {oracles.to_dense(m, nv)
                          for m in oracles.monomials_of_degree(ctx, d)
                          if not init.is_normal(m)}
            assert oracles.slice_pivots_descending(ctx, gens, d) == non_normal


def test_completed_initial_ideal_counts_slice_ranks():
    # dim I_d = dim in(I)_d: the Hilbert function of the completion's
    # initial ideal, by inclusion-exclusion, against dense elimination
    # of the original generators' slices
    rng = random.Random(2024)
    for _ in range(24):
        n = rng.randint(1, 3)
        mask = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        ctx, gens = matrix_product_ideal(MatrixPattern.zero_pattern(mask))
        nv = len(ctx.variables)
        init = [oracles.to_dense(m, nv)
                for m in initial_ideal(is_groebner(buchberger(gens)))]
        for d in range(4):
            rank = len(oracles.slice_pivots_descending(ctx, gens, d))
            assert (math.comb(d + nv - 1, nv - 1)
                    - oracles.hilbert_count(init, nv, d)) == rank


def test_generator_set_drops_zero_polynomials():
    ctx, _ = generic(2)
    f = poly(ctx, (1, {ctx.y(1): 1}))
    gens = GeneratorSet(ctx, [ctx.zero, f, ctx.zero])
    assert list(gens) == [f]
    assert len(GeneratorSet(ctx, [])) == 0


def test_coprime_criterion_is_sound():
    # for coprime leading monomials the S-polynomial must reduce to zero;
    # spot-check the dismissal on the generic pairs instead of trusting it
    for n in (2, 3, 4):
        ctx, gens = generic(n)
        polys = list(gens)
        for a in range(len(polys)):
            for b in range(a + 1, len(polys)):
                assert oracles.coprime(polys[a].leading_monomial(),
                                       polys[b].leading_monomial())
                assert not pair_remainder(polys, a, b)
