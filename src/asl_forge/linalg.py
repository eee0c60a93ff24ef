"""Sparse row elimination keyed by monomials.

A degree slice of a homogeneous ideal is a subspace of the span of the
monomials of that degree.  Rows here are sparse vectors mapping Monomial
to coefficient.  Elimination brings the rows to (not reduced) row echelon
form, always pivoting on the largest monomial present in a row (largest
under the ring's order).  The pivot set is then exactly the set of
leading monomials realized in the slice, which is the same pivot set
classical Gaussian elimination with columns scanned in descending monomial
order would produce.
"""

from __future__ import annotations

from .poly_core import Monomial, Polynomial


Row = dict


def row_from_polynomial(f: Polynomial) -> Row:
    return {m: c for c, m in f.terms}


def _scale_into(target: Row, source: Row, factor) -> None:
    for m, c in source.items():
        s = target.get(m)
        s = c * factor if s is None else s + c * factor
        if s:
            target[m] = s
        elif m in target:
            del target[m]


def staircase(rows, sort_key) -> dict[Monomial, Row]:
    """Reduce rows to row echelon form; return {pivot monomial: row}.

    Each incoming row is reduced against the stored pivot rows until its
    largest monomial is not yet a pivot, then stored under that monomial.
    Each returned row has coefficient 1 on its pivot and the pivot is the
    row's largest monomial; rows are not inter-reduced, so a row may
    still contain smaller pivot monomials.  The pivot set is the set of
    leading monomials of the rows' span, so it is independent of the
    input row order.
    """
    pivots: dict[Monomial, Row] = {}
    for raw in rows:
        row = dict(raw)
        while row:
            lead = max(row, key=sort_key)
            hit = pivots.get(lead)
            if hit is None:
                break
            _scale_into(row, hit, -row[lead])
        if not row:
            continue
        lc = row[lead]
        if lc != 1:
            row = {m: c / lc for m, c in row.items()}
        pivots[lead] = row
    return pivots
