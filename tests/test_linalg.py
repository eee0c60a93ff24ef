"""Row echelon elimination of ideal slices, against the dense oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from asl_forge import (
    CoefficientField,
    MatrixPattern,
    matrix_product_ideal,
    monomials_of_degree,
)
from asl_forge.linalg import staircase


def macaulay_rows(ctx, gens, degree):
    """Every degree-d monomial multiple of every (quadric) generator."""
    return [g.mul_term(1, m)
            for m in monomials_of_degree(ctx, degree - 2) for g in gens]


@pytest.mark.parametrize("n,dmax", [(1, 4), (2, 4), (3, 4)])
def test_pivots_match_dense_oracle(n, dmax):
    ctx, gens = matrix_product_ideal(MatrixPattern.generic(n))
    nv = len(ctx.variables)
    for d in range(dmax + 1):
        pivots = staircase(macaulay_rows(ctx, gens, d))
        assert ({oracles.to_dense(m, nv) for m in pivots}
                == oracles.slice_pivots_descending(ctx, gens, d))


@pytest.mark.parametrize("n,dmax", [(1, 4), (2, 4), (3, 4)])
def test_prime_field_pivots_match_dense_oracle(n, dmax):
    # the oracle eliminates over QQ only; the generators have coefficients
    # 1, so these slices pivot on the same monomials over GF(32003)
    ctx, gens = matrix_product_ideal(MatrixPattern.generic(n),
                                     CoefficientField.prime(32003))
    qctx, qgens = matrix_product_ideal(MatrixPattern.generic(n))
    nv = len(ctx.variables)
    for d in range(dmax + 1):
        pivots = staircase(macaulay_rows(ctx, gens, d))
        assert ({oracles.to_dense(m, nv) for m in pivots}
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
    assert staircase([g]) == {g.leading_monomial(): {m: c for c, m in g.terms}}
    assert divisors == []
    scaled = g.mul_term(3, ctx.one)
    assert staircase([scaled]) == staircase([g])
    assert divisors and all(b == field.coerce(3) for b in divisors)


def test_pivot_rows_are_normalized_and_led_by_their_pivot():
    ctx, gens = matrix_product_ideal(MatrixPattern.generic(2))
    pivots = staircase(macaulay_rows(ctx, gens, 5))
    assert pivots
    for lead, row in pivots.items():
        assert row[lead] == 1
        assert all(oracles.block_compare(ctx, lead, m) == 1
                   for m in row if m != lead)


# degree 5 for n = 2 has many rows sharing a leading monomial, so the
# elimination does real work and the order it meets the rows in matters
_CTX, _GENS = matrix_product_ideal(MatrixPattern.generic(2))
_ROWS = macaulay_rows(_CTX, _GENS, 5)
_PIVOTS = set(staircase(_ROWS))


@settings(max_examples=25, deadline=None)
@given(st.permutations(_ROWS))
def test_pivot_set_independent_of_row_order(rows):
    assert set(staircase(rows)) == _PIVOTS


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_ROWS),
                          st.builds(Fraction, st.integers(-6, 6).filter(bool),
                                    st.sampled_from([1, 2, 3]))),
                max_size=12))
def test_scaled_rows_match_fraction_oracle(scaled):
    # rows with leading coefficients other than 1, both ints and true
    # fractions, so that normalizing a pivot row divides coefficients
    rows = [row.mul_term(c, _CTX.one) for row, c in scaled]
    nv = len(_CTX.variables)

    def largest(row):
        best = None
        for col in row:
            if best is None or oracles.dense_compare(_CTX, col, best) > 0:
                best = col
        return best
    want = oracles.eliminate([oracles.dense_poly(_CTX, f) for f in rows], largest)
    got = staircase(rows)
    assert {oracles.to_dense(lead, nv): {oracles.to_dense(m, nv): c
                                         for m, c in row.items()}
            for lead, row in got.items()} == want
    assert all(type(c) in (int, Fraction)
               for row in got.values() for c in row.values())
