"""Sparse row elimination of polynomial slices.

A degree slice of a homogeneous ideal is a subspace of the span of the
monomials of that degree.  Each row is a dict mapping a monomial's heap
key (``MonomialOrder.heap_key``) to its coefficient; no ``Monomial`` is
built.  Elimination brings the rows to (not reduced) row echelon form,
always pivoting on the row's leading monomial, the one with the smallest
key.  The pivot set is then exactly the set of leading monomials realized
in the slice, which is the same pivot set classical Gaussian elimination
with columns scanned in descending monomial order would produce.
"""

from __future__ import annotations

from .poly_core import CoefficientField


def _scale_into(target: dict, source: dict, factor) -> None:
    for k, c in source.items():
        s = target.get(k)
        s = c * factor if s is None else s + c * factor
        if s:
            target[k] = s
        elif k in target:
            del target[k]


def staircase(rows, field: CoefficientField) -> dict[int, dict]:
    """Reduce key-indexed rows to row echelon form; return {pivot key: row}.

    Each row is copied, then reduced against the stored pivot rows until
    its leading key is not yet a pivot, then stored under that key.  Each
    returned row has coefficient 1 on its pivot and the pivot is the
    row's smallest key; rows are not inter-reduced, so a row may still
    contain larger pivot keys.  The pivot set is the set of leading
    monomials of the rows' span, so it is independent of the input order.
    """
    pivots: dict[int, dict] = {}
    one = field.one
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            hit = pivots.get(lead)
            if hit is None:
                break
            _scale_into(row, hit, -row[lead])
        if not row:
            continue
        lc = row[lead]
        if lc != one:
            div = field.div
            row = {k: div(c, lc) for k, c in row.items()}
        pivots[lead] = row
    return pivots
