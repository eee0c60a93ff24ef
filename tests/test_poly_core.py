"""Kernel tests: the block order, exact arithmetic, JSON round-trips."""

import gc
import random
import weakref
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from asl_forge import (
    CoefficientField,
    ContextMismatchError,
    FpElement,
    MatrixPattern,
    RingContext,
    Variable,
    ZeroPolynomialError,
    product_generators,
    verify,
)
from asl_forge.poly_core import EXPONENT_BITS, PRIME_BOUND, _is_prime


def mask_ring(n, rng):
    """The ring of a random zero mask: each entry kept with probability 1/2.

    Its diagonal and off-diagonal variables interleave in the layout, and
    some diagonal variables are missing, as in the rings masks build.
    """
    return RingContext(n, [Variable.x(i, j) for i in range(1, n + 1)
                           for j in range(1, n + 1) if rng.random() < 0.5])


_MASK_RNG = random.Random(30)
MASK_CONTEXTS = [mask_ring(n, _MASK_RNG) for n in range(1, 7) for _ in range(3)]
CONTEXTS = [RingContext(n) for n in range(1, 5)] + MASK_CONTEXTS


def oracle_key(ctx):
    """Ascending sort key from the independent scan comparator."""
    return cmp_to_key(lambda a, b: oracles.block_compare(ctx, a, b))


def mono(ctx, positions):
    exps = {}
    for p in positions:
        v = ctx.variables[p % len(ctx.variables)]
        exps[v] = exps.get(v, 0) + 1
    return ctx.monomial(exps)


@st.composite
def ctx_with_monomials(draw, count, max_degree=6):
    ctx = draw(st.sampled_from(CONTEXTS))
    ms = tuple(
        mono(ctx, draw(st.lists(st.integers(0, 40), max_size=max_degree)))
        for _ in range(count))
    return (ctx,) + ms


@st.composite
def ctx_with_polys(draw, count, max_terms=4):
    ctx = draw(st.sampled_from(CONTEXTS))
    polys = []
    for _ in range(count):
        terms = {}
        for _ in range(draw(st.integers(0, max_terms))):
            m = mono(ctx, draw(st.lists(st.integers(0, 40), max_size=4)))
            c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
            terms[m] = terms.get(m, 0) + c
        polys.append(ctx.polynomial(terms))
    return (ctx,) + tuple(polys)


class TestOrderConditions:
    def test_diagonal_descending_and_dominant(self):
        # single-variable comparisons pinned for every n up to 8
        for n in range(1, 9):
            ctx = RingContext(n)
            order = ctx.order
            for i in range(1, n):
                a = ctx.monomial({ctx.x(i, i): 1})
                b = ctx.monomial({ctx.x(i + 1, i + 1): 1})
                assert order.compare(a, b) == 1
            xnn = ctx.monomial({ctx.x(n, n): 1})
            for v in ctx.variables:
                if v.is_diagonal:
                    continue
                assert order.compare(ctx.monomial({v: 1}), xnn) == -1

    def test_examples_n2(self):
        ctx = RingContext(2)
        order = ctx.order
        m = ctx.monomial
        assert order.compare(m({ctx.x(1, 1): 1}), m({ctx.x(2, 2): 1})) == 1
        assert order.compare(m({ctx.x(1, 2): 1}), m({ctx.x(2, 2): 1})) == -1
        assert order.compare(m({ctx.y(2): 1}), m({ctx.x(2, 2): 1})) == -1
        assert order.compare(ctx.one, ctx.one) == 0
        # any monomial with a diagonal factor beats any without
        assert order.compare(m({ctx.x(1, 1): 1, ctx.y(1): 1}),
                             m({ctx.x(1, 2): 1, ctx.y(2): 1})) == 1

    def test_tail_tiebreak_is_pinned(self):
        # x_1_2*y_1 < x_1_2*y_2 under the documented tail order
        ctx = RingContext(2)
        a = ctx.monomial({ctx.x(1, 2): 1, ctx.y(1): 1})
        b = ctx.monomial({ctx.x(1, 2): 1, ctx.y(2): 1})
        assert ctx.order.compare(a, b) == -1

    def test_degree2_tail_monomials_totally_ordered(self):
        # brute force: every pair of distinct degree-2 tail monomials
        # compares strictly, and the order is transitive
        ctx = RingContext(2)
        tail = [ctx.x(1, 2), ctx.x(2, 1), ctx.y(1), ctx.y(2)]
        ms = []
        for a in range(4):
            for b in range(a, 4):
                exps = {tail[a]: 1}
                exps[tail[b]] = exps.get(tail[b], 0) + 1
                ms.append(ctx.monomial(exps))
        ranked = sorted(ms, key=oracle_key(ctx))
        for i in range(len(ranked)):
            for j in range(i + 1, len(ranked)):
                assert oracles.block_compare(ctx, ranked[i], ranked[j]) == -1
                assert ctx.order.compare(ranked[i], ranked[j]) == -1

    @settings(max_examples=150)
    @given(ctx_with_monomials(2))
    def test_antisymmetry_and_totality(self, data):
        ctx, a, b = data
        c = ctx.order.compare(a, b)
        assert c in (-1, 0, 1)
        assert ctx.order.compare(b, a) == -c
        assert (c == 0) == (a == b)

    @settings(max_examples=200)
    @given(ctx_with_monomials(2))
    def test_heap_key_reverses_the_order(self, data):
        # the heap key is built sparsely; check it against the dense scan
        ctx, a, b = data
        ka, kb = ctx.order.heap_key(a), ctx.order.heap_key(b)
        assert (ka > kb) - (ka < kb) == oracles.block_compare(ctx, b, a)
        assert ctx.order.heap_key(a) is ka  # cached

    def test_equal_contexts_built_apart_are_compatible(self):
        r1, r2 = RingContext(2), RingContext(2)
        a = r1.monomial({Variable.x(1, 1): 1})
        b = r2.monomial({Variable.y(1): 1})
        assert r1.polynomial({a: 1, b: 1}) == r2.polynomial({b: 1, a: 1})
        assert r1.order.compare(a, b) == 1
        f = r1.polynomial({a: 1})
        assert f - r2.polynomial({r2.monomial({Variable.x(1, 1): 1}): 1}) == r1.zero

    @settings(max_examples=150)
    @given(ctx_with_monomials(3))
    def test_transitivity(self, data):
        ctx, a, b, c = data
        ms = sorted([a, b, c], key=oracle_key(ctx))
        assert ctx.order.compare(ms[0], ms[2]) <= 0
        if ctx.order.compare(ms[0], ms[1]) <= 0 <= ctx.order.compare(ms[2], ms[1]):
            assert ctx.order.compare(ms[0], ms[2]) <= 0

    @settings(max_examples=150)
    @given(ctx_with_monomials(3))
    def test_multiplicativity(self, data):
        ctx, a, b, w = data
        mul = oracles.monomial_mul
        assert ctx.order.compare(a, b) == ctx.order.compare(mul(a, w), mul(b, w))

    @settings(max_examples=150)
    @given(ctx_with_monomials(1))
    def test_one_is_minimum(self, data):
        ctx, m = data
        assert ctx.order.compare(ctx.one, m) <= 0
        grown = oracles.monomial_mul(m, ctx.monomial({ctx.variables[0]: 1}))
        assert ctx.order.compare(m, grown) == -1

    @settings(max_examples=200)
    @given(ctx_with_monomials(2))
    def test_agrees_with_scan_oracle(self, data):
        ctx, a, b = data
        assert ctx.order.compare(a, b) == oracles.block_compare(ctx, a, b)

    @pytest.mark.parametrize("ctx", MASK_CONTEXTS,
                             ids=lambda c: f"n{c.n}-{len(c.variables)}vars")
    def test_mask_rings_sort_like_the_scan_oracle(self, ctx):
        # the rings zero masks build, which full rings do not cover: heap
        # keys sort like the scan comparator, and each key decodes back
        rng = random.Random(len(ctx.variables))
        ms = list({mono(ctx, [rng.randrange(40) for _ in range(rng.randint(0, 6))])
                   for _ in range(80)})
        by_key = sorted(ms, key=ctx.order.heap_key)
        assert by_key == sorted(ms, key=oracle_key(ctx), reverse=True)
        for m in ms:
            assert ctx.order.monomial(ctx.order.heap_key(m)) == m


def packed(m):
    return m.ctx.order.packed(m.ctx.order.heap_key(m))


def packed_divides(order, a, b):
    """The documented guard-bit divisibility test on packed vectors."""
    return ((b | order.guard) - a) & order.guard == order.guard


@st.composite
def mask_ring_exponents(draw, count):
    """A ring of a random n <= 4 mask and `count` dense exponent vectors.

    Rings include n=1, and masks without diagonal entries; exponents are
    small or up to a cap that keeps an lcm below the degree bound.
    """
    n = draw(st.integers(1, 4))
    kept = [Variable.x(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
            if draw(st.booleans())]
    ctx = RingContext(n, kept)
    nv = len(ctx.variables)
    cap = (1 << (EXPONENT_BITS - 1)) // (2 * nv) - 1
    exponent = st.one_of(st.integers(0, 3), st.integers(0, cap))
    return ctx, [tuple(draw(st.lists(exponent, min_size=nv, max_size=nv)))
                 for _ in range(count)]


def dense_monomial(ctx, e):
    return ctx.monomial({ctx.variables[p]: x for p, x in enumerate(e)})


class TestMonomialAlgebra:
    def test_div_lcm_coprime(self):
        ctx = RingContext(2)
        order = ctx.order
        a = packed(ctx.monomial({ctx.x(1, 1): 2, ctx.y(1): 1}))
        b = packed(ctx.monomial({ctx.x(1, 1): 1, ctx.y(2): 3}))
        lcm = order.lcm(a, b)
        assert packed_divides(order, a, lcm) and packed_divides(order, b, lcm)
        assert lcm == packed(ctx.monomial({ctx.x(1, 1): 2, ctx.y(1): 1,
                                           ctx.y(2): 3}))
        assert order.degree(lcm) == 6
        assert not packed_divides(order, a, b)
        assert order.support(a) & order.support(b)
        assert not (order.support(packed(ctx.monomial({ctx.y(1): 1})))
                    & order.support(packed(ctx.monomial({ctx.y(2): 1}))))

    @settings(max_examples=300)
    @given(mask_ring_exponents(2))
    def test_int_key_matches_dense_order(self, data):
        ctx, (ea, eb) = data
        a, b = dense_monomial(ctx, ea), dense_monomial(ctx, eb)
        ka, kb = ctx.order.heap_key(a), ctx.order.heap_key(b)
        assert type(ka) is int
        assert (kb > ka) - (kb < ka) == oracles.dense_compare(ctx, ea, eb)
        product = dense_monomial(ctx, tuple(x + y for x, y in zip(ea, eb)))
        assert ctx.order.heap_key(product) == ka + kb
        assert sum(e * ctx.order.weights[p] for p, e in enumerate(ea)) == ka
        assert ctx.order.monomial(ka) == a

    @settings(max_examples=300)
    @given(mask_ring_exponents(2))
    def test_packed_operations_match_dense(self, data):
        ctx, (ea, eb) = data
        order = ctx.order
        a, b = packed(dense_monomial(ctx, ea)), packed(dense_monomial(ctx, eb))
        divisible = oracles.divides(ea, eb)
        assert packed_divides(order, a, b) == divisible
        if divisible:
            assert b - a == packed(dense_monomial(
                ctx, tuple(y - x for x, y in zip(ea, eb))))
        assert order.lcm(a, b) == packed(dense_monomial(
            ctx, tuple(max(x, y) for x, y in zip(ea, eb))))
        assert (not order.support(a) & order.support(b)) == (
            not any(min(x, y) for x, y in zip(ea, eb)))
        assert order.degree(a) == sum(ea)

    @pytest.mark.parametrize("ctx", [
        RingContext(1, []), RingContext(1),
        RingContext(2, [Variable.x(1, 2), Variable.x(2, 1)])])
    def test_small_rings_sort_like_the_dense_order(self, ctx):
        # n=1 without and with its diagonal, and a ring with no diagonal:
        # every monomial of degree <= 3, sorted by key and by the oracle
        ms = [m for d in range(4)
              for m in (dense_monomial(ctx, e)
                        for e in oracles.dense_monomials(len(ctx.variables), d))]
        by_key = sorted(ms, key=ctx.order.heap_key)
        assert by_key == sorted(ms, key=oracle_key(ctx), reverse=True)

    def test_context_mismatch_rejected(self):
        a = RingContext(2).monomial({Variable.x(1, 1): 1})
        b = RingContext(3).monomial({Variable.x(1, 1): 1})
        with pytest.raises(ContextMismatchError):
            a.ctx.order.compare(a, b)
        with pytest.raises(ContextMismatchError):
            a.ctx.polynomial({b: 1})

    @settings(max_examples=100)
    @given(ctx_with_monomials(2))
    def test_exponent_accessors(self, data):
        ctx, a, b = data
        prod = oracles.monomial_mul(a, b)
        assert prod.total_degree == a.total_degree + b.total_degree
        ea, eb, ep = dict(a.factors()), dict(b.factors()), dict(prod.factors())
        for v in ctx.variables:
            assert ep.get(v, 0) == ea.get(v, 0) + eb.get(v, 0)


def times(f, g):
    """f * g as a sum of term multiples of g."""
    total = f.ctx.zero
    for c, m in f.terms:
        total = total + oracles.term_multiple(g, c, m)
    return total


class TestPolynomialArithmetic:
    @settings(max_examples=100)
    @given(ctx_with_polys(3))
    def test_ring_axioms(self, data):
        ctx, f, g, h = data
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert times(f, g) == times(g, f)
        assert times(f, g + h) == times(f, g) + times(f, h)
        assert f + ctx.zero == f
        assert not (f - f)

    @settings(max_examples=100)
    @given(ctx_with_polys(1))
    def test_terms_strictly_descending(self, data):
        ctx, f = data
        ms = [m for _, m in f.terms]
        assert all(oracles.block_compare(ctx, a, b) == 1
                   for a, b in zip(ms, ms[1:]))
        assert all(c for c, _ in f.terms)

    @settings(max_examples=100)
    @given(ctx_with_polys(2))
    def test_leading_term_of_product(self, data):
        ctx, f, g = data
        if not f or not g:
            return
        cf, mf = f.leading_term()
        cg, mg = g.leading_term()
        assert times(f, g).leading_monomial() == oracles.monomial_mul(mf, mg)
        assert times(f, g).leading_term()[0] == cf * cg

    def test_leading_term_examples(self):
        ctx = RingContext(2)
        g1 = ctx.polynomial({
            ctx.monomial({ctx.x(1, 1): 1, ctx.y(1): 1}): 1,
            ctx.monomial({ctx.x(1, 2): 1, ctx.y(2): 1}): 1,
        })
        c, m = g1.leading_term()
        assert c == 1 and m == ctx.monomial({ctx.x(1, 1): 1, ctx.y(1): 1})
        g2 = ctx.polynomial({
            ctx.monomial({ctx.x(2, 1): 1, ctx.y(1): 1}): 1,
            ctx.monomial({ctx.x(2, 2): 1, ctx.y(2): 1}): 1,
        })
        prod = times(g1, g2)
        assert prod.leading_monomial() == ctx.monomial(
            {ctx.x(1, 1): 1, ctx.x(2, 2): 1, ctx.y(1): 1, ctx.y(2): 1})

    def test_zero_polynomial_has_no_leading_term(self):
        ctx = RingContext(2)
        with pytest.raises(ZeroPolynomialError):
            ctx.zero.leading_term()
        assert str(ctx.zero) == "0"

    def test_monic(self):
        ctx = RingContext(2)
        f = ctx.polynomial({ctx.monomial({ctx.x(1, 1): 1}): Fraction(3, 2),
                            ctx.one: -3})
        assert f.monic().terms == ((1, f.leading_monomial()), (-2, ctx.one))

    @pytest.mark.parametrize("field", [CoefficientField.rationals(),
                                       CoefficientField.prime(3)], ids=str)
    def test_monic_of_zero_is_zero(self, field):
        zero = RingContext(2, field=field).zero
        assert zero.monic() is zero and not zero.terms

    @settings(max_examples=100)
    @given(ctx_with_polys(1))
    def test_monic_matches_fraction_oracle(self, data):
        # the generated coefficients mix ints and true fractions, so the
        # leading coefficient is rarely 1
        ctx, f = data
        if not f:
            return
        g = f.monic()
        assert oracles.dense_poly(ctx, g) == oracles.dense_monic(
            ctx, oracles.dense_poly(ctx, f))
        assert {type(c) for c, _ in g.terms} <= {int, Fraction}

    def test_str_rendering(self):
        ctx = RingContext(2)
        f = ctx.polynomial({
            ctx.monomial({ctx.x(1, 1): 2, ctx.y(1): 1}): Fraction(1, 2),
            ctx.monomial({ctx.y(2): 1}): -1,
        })
        assert str(f) == "1/2*x_1_1^2*y_1 - y_2"


class TestSerialization:
    def test_variable_names(self):
        assert Variable.x(1, 2).name == "x_1_2"
        assert Variable.y(3).name == "y_3"

    def test_generator_shape(self):
        ctx = RingContext(2)
        g1 = ctx.polynomial({
            ctx.monomial({ctx.x(1, 1): 1, ctx.y(1): 1}): 1,
            ctx.monomial({ctx.x(1, 2): 1, ctx.y(2): 1}): 1,
        })
        assert oracles.polynomial_json(g1) == [
            {"c": "1", "m": {"x_1_1": 1, "y_1": 1}},
            {"c": "1", "m": {"x_1_2": 1, "y_2": 1}},
        ]

    def test_fraction_coefficients_render_num_den(self):
        ctx = RingContext(1)
        f = ctx.polynomial({ctx.monomial({ctx.x(1, 1): 1}): Fraction(-3, 7)})
        assert oracles.polynomial_json(f) == [{"c": "-3/7", "m": {"x_1_1": 1}}]

    @settings(max_examples=100)
    @given(ctx_with_polys(1))
    def test_json_round_trip(self, data):
        ctx, f = data
        assert oracles.polynomial_from_json(ctx, oracles.polynomial_json(f)) == f


class TestCoefficientFields:
    def test_rationals_coercion(self):
        field = CoefficientField.rationals()
        assert field.name == "QQ"
        assert field.coerce("2/3") == Fraction(2, 3)
        assert field.coerce(5) == Fraction(5)
        with pytest.raises(TypeError):
            field.coerce(1.5)

    def test_rationals_stay_integers_until_a_true_fraction(self):
        field = CoefficientField.rationals()
        for value, want in ((True, 1), (False, 0), ("4/2", 2), (Fraction(6, 3), 2),
                            (-7, -7), ("-0", 0)):
            c = field.coerce(value)
            assert type(c) is int and c == want
        assert field.coerce("3/6") == Fraction(1, 2)
        assert field.div(5, 1) == 5 and type(field.div(5, 1)) is int
        assert type(field.div(4, -2)) is int and field.div(4, -2) == -2
        for a, b in ((6, -3), (7, -1), (0, -5)):
            q = field.div(a, b)
            assert type(q) is int and q == a // b
        assert field.div(3, 2) == Fraction(3, 2)
        assert field.div(1, 2) == Fraction(1, 2) and field.div(-3, -6) == Fraction(1, 2)
        assert type(field.div(Fraction(3, 2), Fraction(1, 2))) is int
        with pytest.raises(ZeroDivisionError):
            field.div(1, 0)
        ctx = RingContext(1)
        m = ctx.monomial({ctx.x(1, 1): 1})
        f = ctx.polynomial({m: Fraction(3, 2), ctx.one: True})
        assert [type(c) for c, _ in f.terms] == [Fraction, int]
        assert str(f) == "3/2*x_1_1 + 1"
        assert oracles.polynomial_json(f)[1]["c"] == "1"

    def test_prime_field(self):
        field = CoefficientField.prime(7)
        assert field.name == "GF(7)"
        a = field.coerce(10)
        assert a == FpElement(3, 7)
        assert a + field.coerce(4) == field.zero
        assert (a / field.coerce(5)) * field.coerce(5) == a
        assert field.div(a, field.coerce(5)) == a / field.coerce(5) == FpElement(2, 7)
        assert -field.coerce(1) == field.coerce(6)
        with pytest.raises(ZeroDivisionError):
            a / field.zero

    def test_prime_field_coercion_branches(self):
        field = CoefficientField.prime(7)
        a = FpElement(3, 7)
        assert field.coerce(a) is a
        # a foreign element is the error that mixing it in arithmetic gives
        for mixed in (lambda: field.coerce(FpElement(1, 5)),
                      lambda: FpElement(1, 7) + FpElement(1, 5)):
            with pytest.raises(ValueError, match="^mixed prime-field arithmetic$"):
                mixed()
        assert field.coerce("10") == field.coerce("-4") == a
        with pytest.raises(ValueError):
            field.coerce("1/2")
        for value in (1.5, Fraction(1, 2), None):
            with pytest.raises(TypeError, match=r"^cannot coerce .* into GF\(7\)$"):
                field.coerce(value)

    @pytest.mark.parametrize("p", [None, 7])
    def test_constants_are_set_once(self, p, monkeypatch):
        # hot loops read field.one and field.zero; reading them must not
        # coerce again
        field = CoefficientField(p)
        one, zero = field.coerce(1), field.coerce(0)
        calls = []
        real_coerce = CoefficientField.coerce

        def spy(self, value):
            calls.append(value)
            return real_coerce(self, value)
        monkeypatch.setattr(CoefficientField, "coerce", spy)
        for _ in range(3):
            assert field.one == one and field.zero == zero
        assert calls == []

    def test_nonprime_rejected(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(ValueError):
                CoefficientField.prime(bad)
        CoefficientField.prime(97)
        CoefficientField.prime(10007)

    def test_primality_agrees_with_trial_division(self):
        assert [p for p in range(10**5) if _is_prime(p)] == [
            p for p in range(10**5) if oracles.is_prime(p)]

    def test_pseudoprimes_rejected(self):
        # 561 is a Carmichael number; the second is a strong pseudoprime
        # to every base up to 23, the third (psi_12) to every base up to 37
        assert 149491 * 747451 * 34233211 == 3825123056546413051
        assert 399165290221 * 798330580441 == 318665857834031151167461
        for bad in (561, 3825123056546413051, 318665857834031151167461):
            with pytest.raises(ValueError, match="not prime"):
                CoefficientField.prime(bad)

    def test_large_prime_accepted(self):
        assert CoefficientField.prime(2**61 - 1).name == f"GF({2**61 - 1})"

    def test_modulus_above_bound_refused(self):
        with pytest.raises(ValueError, match="bound"):
            CoefficientField.prime(PRIME_BOUND)

    def test_gf_polynomials_normalize(self):
        ctx = RingContext(2, field=CoefficientField.prime(3))
        m = ctx.monomial({ctx.x(1, 1): 1})
        f = ctx.polynomial({m: 2}) + ctx.polynomial({m: 1})
        assert f == ctx.zero

    def test_context_equality_includes_field(self):
        assert RingContext(2) == RingContext(2)
        assert RingContext(2) != RingContext(2, field=CoefficientField.prime(5))
        symmetric, _ = product_generators(MatrixPattern.symmetric(2))
        assert RingContext(2) != symmetric
        assert RingContext(2) != RingContext(3)


def test_symmetric_context_drops_subdiagonal():
    ctx, _ = product_generators(MatrixPattern.symmetric(3))
    names = [v.name for v in ctx.variables]
    assert "x_2_1" not in names and "x_3_2" not in names
    assert "x_1_2" in names and "x_3_3" in names
    assert names == ["x_1_1", "x_1_2", "x_1_3", "x_2_2", "x_2_3", "x_3_3",
                     "y_1", "y_2", "y_3"]
    with pytest.raises(ValueError):
        ctx.x(2, 1)


def test_variable_validation():
    with pytest.raises(ValueError):
        Variable("z", None, 1)
    with pytest.raises(ValueError):
        Variable.x(0, 1)
    with pytest.raises(ValueError):
        Variable.y(0)
    with pytest.raises(ValueError):
        RingContext(0)
    with pytest.raises(ValueError):
        RingContext(2).monomial({Variable.x(1, 1): -1})
    for xs in ([Variable.x(1, 1), Variable.x(1, 1)], [Variable.y(1)],
               [Variable.x(1, 3)]):
        with pytest.raises(ValueError):
            RingContext(2, xs)


@pytest.mark.parametrize("lookup", ["x", "y", "position"])
def test_variables_outside_the_ring_are_refused(lookup):
    # Variable.y(3) and Variable.x(3, 1) are variables, but not of a ring
    # with n = 2; the refusal is a plain ValueError
    ctx = RingContext(2)
    call = {"x": lambda: ctx.x(3, 1), "y": lambda: ctx.y(3),
            "position": lambda: ctx.position(Variable.y(3))}[lookup]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    name = "x_3_1" if lookup == "x" else "y_3"
    assert str(info.value) == f"{name} is not a variable of this ring"


class TestValueTypes:
    # the records are immutable values: equal fields make equal, equally
    # hashed objects, and no field can be reassigned
    def test_variable(self):
        v = Variable("x", 1, 2)
        assert v == Variable(kind="x", i=1, j=2) == Variable.x(1, 2)
        assert hash(v) == hash(Variable.x(1, 2))
        assert v != Variable.x(2, 1) and Variable.y(1) == Variable("y", None, 1)
        assert (v.kind, v.i, v.j, v.name, repr(v)) == ("x", 1, 2, "x_1_2", "x_1_2")
        with pytest.raises(AttributeError):
            v.i = 3
        with pytest.raises(AttributeError):
            v.label = "a"

    @pytest.mark.parametrize("args,message", [
        (("z", None, 1), "variable kind must be 'x' or 'y', got 'z'"),
        (("x", None, 1), "x variables need row and column indices >= 1"),
        (("x", 1, 0), "x variables need row and column indices >= 1"),
        (("y", 1, 1), "y variables carry a single column index >= 1"),
        (("y", None, 0), "y variables carry a single column index >= 1"),
    ])
    def test_variable_messages(self, args, message):
        with pytest.raises(ValueError) as info:
            Variable(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("i,j", [(True, 2), (1.0, 2), (1, True), (2, 1.0),
                                     ("1", 2)])
    def test_variable_indices_must_be_ints(self, i, j):
        # True == 1 and 1.0 == 1: a value check alone made x_True_2 equal
        # to x_1_2, hashed alike, yet printed apart.  Interning keys on the
        # argument types too, so an interned x_1_2 is no way around it
        assert Variable.x(1, 2) is Variable.x(1, 2)
        with pytest.raises(ValueError, match="^variable indices must be ints$"):
            Variable.x(i, j)
        with pytest.raises(ValueError, match="^variable indices must be ints$"):
            Variable("x", i, j)
        with pytest.raises(ValueError, match="^variable indices must be ints$"):
            Variable.y(j if type(j) is not int else i)
        assert Variable.x(1, 2).name == "x_1_2" and Variable.y(2).name == "y_2"

    def test_ring_lists_no_bool_index(self):
        with pytest.raises(ValueError, match="indices must be ints"):
            RingContext(2, [Variable.x(True, 1), Variable.x(2, 2)])
        ctx = RingContext(2, [Variable.x(1, 1), Variable.x(2, 2)])
        assert repr(ctx) == "RingContext(n=2, x=[x_1_1, x_2_2], field=QQ)"

    def test_fp_element(self):
        a = FpElement(2, 7)
        assert a == FpElement(residue=2, p=7) and hash(a) == hash(FpElement(2, 7))
        assert a != FpElement(2, 11) and a != FpElement(3, 7) and a != 2
        assert repr(a) == "FpElement(residue=2, p=7)" and str(a) == "2"
        for name in ("residue", "p", "other"):
            with pytest.raises(AttributeError):
                setattr(a, name, 1)
        with pytest.raises(AttributeError):
            del a.residue
        # no sequence behaviour: an int times an element is no repetition
        with pytest.raises(TypeError):
            3 * a
        with pytest.raises(TypeError):
            len(a)
        with pytest.raises(ValueError, match="mixed prime-field arithmetic"):
            a + 1
        with pytest.raises(ValueError, match="mixed prime-field arithmetic"):
            a * FpElement(2, 11)


class TestRingLifetime:
    # a ring's order holds the ring by weak reference and its monomial 1
    # is built on demand, so nothing a ring holds refers back to it and
    # reference counting alone frees it

    def test_ring_freed_without_the_cyclic_collector(self):
        gc.disable()
        try:
            ctx = RingContext(2)
            ref = weakref.ref(ctx)
            order = ctx.order
            m = order.monomial(order.heap_key(ctx.monomial({ctx.x(1, 1): 2})))
            assert m.ctx is ctx and str(m) == "x_1_1^2"
            del ctx, order
            assert ref() is not None  # m still holds its ring
            del m
            assert ref() is None
        finally:
            gc.enable()

    def test_verify_leaves_no_cyclic_garbage(self):
        zero = MatrixPattern.zero_pattern([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
        generic = MatrixPattern.generic(3)
        verify(zero, 2), verify(generic, 3)  # warm any import-time caches
        gc.collect()
        gc.disable()
        try:
            assert verify(zero, 2)["verdict"] == "pass"
            assert verify(generic, 3)["verdict"] == "pass"
            assert gc.collect() == 0
        finally:
            gc.enable()
