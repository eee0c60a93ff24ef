"""Sparse row elimination of polynomial slices.

A degree slice of a homogeneous ideal is a subspace of the span of the
monomials of that degree.  Each row is a dict mapping Monomial to
coefficient, built once from a polynomial spanning the slice.
Elimination brings the rows to (not reduced) row echelon form, always
pivoting on the row's leading monomial, the one with the smallest heap
key.  The pivot set is then exactly the set of leading monomials
realized in the slice, which is the same pivot set classical Gaussian
elimination with columns scanned in descending monomial order would
produce.
"""

from __future__ import annotations

from .poly_core import Monomial


def _scale_into(target: dict, source: dict, factor) -> None:
    for m, c in source.items():
        s = target.get(m)
        s = c * factor if s is None else s + c * factor
        if s:
            target[m] = s
        elif m in target:
            del target[m]


def staircase(polys) -> dict[Monomial, dict]:
    """Reduce polynomials to row echelon form; return {pivot monomial: row}.

    Each polynomial becomes a row, which is reduced against the stored
    pivot rows until its leading monomial is not yet a pivot, then stored
    under that monomial.  Each returned row has coefficient 1 on its
    pivot and the pivot is the row's leading monomial; rows are not
    inter-reduced, so a row may still contain smaller pivot monomials.
    The pivot set is the set of leading monomials of the polynomials'
    span, so it is independent of the input order.
    """
    pivots: dict[Monomial, dict] = {}
    for f in polys:
        key = f.ctx.order.heap_key
        row = {m: c for c, m in f.terms}
        while row:
            lead = min(row, key=key)
            hit = pivots.get(lead)
            if hit is None:
                break
            _scale_into(row, hit, -row[lead])
        if not row:
            continue
        lc = row[lead]
        field = f.ctx.field
        if lc != field.one:
            div = field.div
            row = {m: div(c, lc) for m, c in row.items()}
        pivots[lead] = row
    return pivots
