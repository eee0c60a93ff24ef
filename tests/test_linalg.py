"""Row echelon elimination of ideal slices, against the dense oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from asl_forge import CoefficientField, MatrixPattern, matrix_product_ideal
from asl_forge.linalg import staircase


def row(f):
    """The heap-key-indexed row of a library polynomial."""
    key = f.ctx.order.heap_key
    return {key(m): c for c, m in f.terms}


def macaulay_polys(ctx, gens, degree):
    """Every degree-d monomial multiple of every (quadric) generator."""
    return [oracles.term_multiple(g, 1, m)
            for m in oracles.monomials_of_degree(ctx, degree - 2) for g in gens]


def dense_pivots(ctx, pivots):
    """The pivot keys, decoded into dense exponent tuples."""
    nv = len(ctx.variables)
    return {oracles.to_dense(ctx.order.monomial(k), nv) for k in pivots}


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
    assert staircase([row(g)], field) == {lead: row(g)}
    assert divisors == []
    scaled = oracles.term_multiple(g, 3, ctx.one)
    assert staircase([row(scaled)], field) == staircase([row(g)], field)
    assert divisors and all(b == field.coerce(3) for b in divisors)


def test_pivot_rows_are_normalized_and_led_by_their_pivot():
    ctx, gens = matrix_product_ideal(MatrixPattern.generic(2))
    pivots = staircase(map(row, macaulay_polys(ctx, gens, 5)), ctx.field)
    assert pivots
    decode = ctx.order.monomial
    for lead, r in pivots.items():
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
    nv = len(_CTX.variables)

    def largest(r):
        best = None
        for col in r:
            if best is None or oracles.dense_compare(_CTX, col, best) > 0:
                best = col
        return best
    want = oracles.eliminate([oracles.dense_poly(_CTX, f) for f in polys], largest)
    got = staircase(map(row, polys), _CTX.field)
    decode = _CTX.order.monomial
    assert {oracles.to_dense(decode(lead), nv): {
                oracles.to_dense(decode(k), nv): c for k, c in r.items()}
            for lead, r in got.items()} == want
    assert all(type(c) in (int, Fraction)
               for r in got.values() for c in r.values())
