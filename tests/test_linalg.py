"""Row echelon elimination of ideal slices, against the dense oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from asl_forge import CoefficientField, MatrixPattern, matrix_product_ideal
from asl_forge.linalg import _pivot_row, staircase


def row(f, q=0):
    """A library polynomial as a staircase row: (multiplier key, terms)."""
    key = f.ctx.order.heap_key
    return q, tuple((key(m), c) for c, m in f.terms)


def as_dict(f):
    """The heap-key-indexed dict row of a library polynomial."""
    return dict(row(f)[1])


def read(pivots, field):
    """Every pivot's row as a dict, building the unbuilt ones."""
    return {lead: _pivot_row(pivots, lead, field) for lead in list(pivots)}


def macaulay_polys(ctx, gens, degree):
    """Every degree-d monomial multiple of every (quadric) generator."""
    return [oracles.term_multiple(g, 1, m)
            for m in oracles.monomials_of_degree(ctx, degree - 2) for g in gens]


def dense_pivots(ctx, pivots):
    """The pivot keys, decoded into dense exponent tuples."""
    nv = len(ctx.variables)
    return {oracles.to_dense(ctx.order.monomial(k), nv) for k in pivots}


def dense_rows(ctx, rows):
    """{pivot: row} dict rows, every key decoded into a dense exponent tuple."""
    nv = len(ctx.variables)
    decode = ctx.order.monomial
    return {oracles.to_dense(decode(lead), nv): {
                oracles.to_dense(decode(k), nv): c for k, c in r.items()}
            for lead, r in rows.items()}


def fraction_echelon(ctx, polys):
    """The oracle's echelon rows of ``polys``, pivoting on the largest monomial."""
    def largest(r):
        best = None
        for col in r:
            if best is None or oracles.dense_compare(ctx, col, best) > 0:
                best = col
        return best
    return oracles.eliminate([oracles.dense_poly(ctx, f) for f in polys], largest)


@pytest.mark.parametrize("n,dmax", [(1, 4), (2, 4), (3, 4)])
def test_pivots_match_dense_oracle(n, dmax):
    ctx, gens = matrix_product_ideal(MatrixPattern.generic(n))
    for d in range(dmax + 1):
        pivots = staircase(map(row, macaulay_polys(ctx, gens, d)), ctx.field)
        assert (dense_pivots(ctx, pivots)
                == oracles.slice_pivots_descending(ctx, gens, d))


@pytest.mark.parametrize("n,dmax", [(1, 4), (2, 4), (3, 4)])
def test_prime_field_pivots_match_dense_oracle(n, dmax):
    # the oracle eliminates over QQ only; the generators have coefficients
    # 1, so these slices pivot on the same monomials over GF(32003)
    ctx, gens = matrix_product_ideal(MatrixPattern.generic(n),
                                     CoefficientField.prime(32003))
    qctx, qgens = matrix_product_ideal(MatrixPattern.generic(n))
    for d in range(dmax + 1):
        pivots = staircase(map(row, macaulay_polys(ctx, gens, d)), ctx.field)
        assert (dense_pivots(ctx, pivots)
                == oracles.slice_pivots_descending(qctx, qgens, d))


def test_prime_field_unit_pivot_is_not_divided(monkeypatch):
    # a GF(p) coefficient is an FpElement, which never equals the int 1
    field = CoefficientField.prime(7)
    ctx, gens = matrix_product_ideal(MatrixPattern.generic(2), field)
    divisors = []
    real_div = CoefficientField.div

    def spy(self, a, b):
        divisors.append(b)
        return real_div(self, a, b)
    monkeypatch.setattr(CoefficientField, "div", spy)
    g = gens[0]
    lead = ctx.order.heap_key(g.leading_monomial())
    assert read(staircase([row(g)], field), field) == {lead: as_dict(g)}
    assert divisors == []
    scaled = oracles.term_multiple(g, 3, ctx.one)
    assert (read(staircase([row(scaled)], field), field)
            == read(staircase([row(g)], field), field))
    assert divisors and all(b == field.coerce(3) for b in divisors)


def test_pivot_rows_are_normalized_and_led_by_their_pivot():
    ctx, gens = matrix_product_ideal(MatrixPattern.generic(2))
    pivots = staircase(map(row, macaulay_polys(ctx, gens, 5)), ctx.field)
    assert pivots
    decode = ctx.order.monomial
    for lead, r in read(pivots, ctx.field).items():
        assert r[lead] == 1
        assert all(oracles.block_compare(ctx, decode(lead), decode(k)) == 1
                   for k in r if k != lead)


# degree 5 for n = 2 has many rows sharing a leading monomial, so the
# elimination does real work and the order it meets the rows in matters
_CTX, _GENS = matrix_product_ideal(MatrixPattern.generic(2))
_POLYS = macaulay_polys(_CTX, _GENS, 5)
_ROWS = [row(f) for f in _POLYS]
_PIVOTS = set(staircase(_ROWS, _CTX.field))


@settings(max_examples=25, deadline=None)
@given(st.permutations(_ROWS))
def test_pivot_set_independent_of_row_order(rows):
    assert set(staircase(rows, _CTX.field)) == _PIVOTS


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_POLYS),
                          st.builds(Fraction, st.integers(-6, 6).filter(bool),
                                    st.sampled_from([1, 2, 3]))),
                max_size=12))
def test_scaled_rows_match_fraction_oracle(scaled):
    # rows with leading coefficients other than 1, both ints and true
    # fractions, so that normalizing a pivot row divides coefficients
    polys = [oracles.term_multiple(f, c, _CTX.one) for f, c in scaled]
    got = read(staircase(map(row, polys), _CTX.field), _CTX.field)
    assert dense_rows(_CTX, got) == fraction_echelon(_CTX, polys)
    assert all(type(c) in (int, Fraction)
               for r in got.values() for c in r.values())


def crossed_rows(field, scale):
    """Rows lead(g_b)*(scale*g_a) and lead(g_a)*g_b of generic n = 2, one lead.

    Each row is a generator's terms with a multiplier key, so the first
    row enters unbuilt and the second reduces against it.  Returns the
    ring, both rows and the two shifted generators as polynomials.
    """
    ctx, gens = matrix_product_ideal(MatrixPattern.generic(2), field)
    key = ctx.order.heap_key
    ga, gb = gens[0], gens[1]
    ma, mb = ga.leading_monomial(), gb.leading_monomial()
    scaled = oracles.term_multiple(ga, scale, ctx.one)
    rows = [row(scaled, key(mb)), row(gb, key(ma))]
    return ctx, rows, (oracles.term_multiple(scaled, 1, mb),
                       oracles.term_multiple(gb, 1, ma))


@pytest.mark.parametrize("scale", [1, Fraction(-2, 3)])
def test_row_reduces_against_an_unbuilt_pivot(scale):
    ctx, rows, polys = crossed_rows(CoefficientField.rationals(), scale)
    lead = ctx.order.heap_key(polys[0].leading_monomial())
    unit = as_dict(oracles.term_multiple(polys[0], 1 / Fraction(scale), ctx.one))
    alone = staircase(rows[:1], ctx.field)
    assert alone[lead] is rows[0][1]  # unbuilt
    assert _pivot_row(alone, lead, ctx.field) == unit
    pivots = staircase(rows, ctx.field)
    # the first row's pivot was built when the second reduced against it
    assert type(pivots[lead]) is dict
    assert pivots[lead] == unit
    assert pivots[lead][lead] == 1
    assert len(pivots) == 2
    assert (dense_rows(ctx, read(pivots, ctx.field))
            == fraction_echelon(ctx, polys))


def test_prime_field_unbuilt_pivot_is_normalized_when_built(monkeypatch):
    field = CoefficientField.prime(7)
    ctx, rows, polys = crossed_rows(field, 3)
    divisors = []
    real_div = CoefficientField.div

    def spy(self, a, b):
        divisors.append(b)
        return real_div(self, a, b)
    monkeypatch.setattr(CoefficientField, "div", spy)
    lead = ctx.order.heap_key(polys[0].leading_monomial())
    unit = as_dict(oracles.term_multiple(polys[0], 5, ctx.one))  # 3 * 5 = 1
    alone = staircase(rows[:1], field)
    assert alone == {lead: rows[0][1]} and divisors == []  # still unbuilt
    assert _pivot_row(alone, lead, field) == unit
    assert divisors and all(b == field.coerce(3) for b in divisors)
    pivots = staircase(rows, field)
    assert type(pivots[lead]) is dict
    assert pivots[lead] == unit
    assert pivots[lead][lead] == field.one
    assert divisors and all(b == field.coerce(3) for b in divisors)
    [other] = set(pivots) - {lead}
    assert _pivot_row(pivots, other, field)[other] == field.one


def test_distinct_leads_build_no_row():
    # every Macaulay row of the one generic n = 1 generator has its own
    # lead, so each enters unbuilt: its pivot holds the generator's terms
    ctx, gens = matrix_product_ideal(MatrixPattern.generic(1))
    key = ctx.order.heap_key
    [g] = gens
    terms = row(g)[1]
    rows = [(key(m), terms) for m in oracles.monomials_of_degree(ctx, 3)]
    pivots = staircase(rows, ctx.field)
    assert len(pivots) == len(rows) == 4
    assert all(pivots[q + terms[0][0]] is t for q, t in rows)
    assert all(r is terms for r in pivots.values())


@pytest.mark.parametrize("field", [CoefficientField.rationals(),
                                   CoefficientField.prime(32003)],
                         ids=["QQ", "GF"])
def test_shared_leads_match_dense_oracle(field):
    # g_0 + g_k shares g_0's lead, so these rows reach unbuilt pivots and
    # their remainders find leads no row starts with; the span, and so the
    # pivot set, is that of the generic ideal
    ctx, gens = matrix_product_ideal(MatrixPattern.generic(2), field)
    qctx, qgens = matrix_product_ideal(MatrixPattern.generic(2))
    key = ctx.order.heap_key
    mixed = [row(gens[0])[1]] + [row(gens[0] + g)[1] for g in gens[1:]]
    for d in range(2, 5):
        rows = [(key(m), terms) for m in oracles.monomials_of_degree(ctx, d - 2)
                for terms in mixed]
        assert (dense_pivots(ctx, staircase(rows, field))
                == oracles.slice_pivots_descending(qctx, qgens, d))
