"""Sparse row elimination of polynomial slices.

A degree slice of a homogeneous ideal is a subspace of the span of the
monomials of that degree, here heap keys (``MonomialOrder.heap_key``),
which add under multiplication.  A row arrives unbuilt, as a multiplier
key q and a generator's (key, coefficient) terms, leading (smallest) key
first.  Elimination brings the rows to (not reduced) row echelon form,
pivoting on each row's leading monomial; a row with a new lead enters
unchanged, so it is built only when a later row reduces against it.  The
pivot set is the set of leading monomials realized in the slice, as in
classical Gaussian elimination with columns in descending monomial order.
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


def _pivot_row(pivots: dict, lead: int, field: CoefficientField) -> dict:
    """Pivot ``lead``'s unit row; an unbuilt one is built and cached first."""
    row = pivots[lead]
    if type(row) is not dict:
        shift, lc, div = lead - row[0][0], row[0][1], field.div
        row = pivots[lead] = ({t + shift: c for t, c in row} if lc == field.one
                              else {t + shift: div(c, lc) for t, c in row})
    return row


def staircase(rows, field: CoefficientField) -> dict[int, dict | tuple]:
    """Reduce (q, terms) rows to row echelon form; return {pivot key: row}.

    A row whose lead q + terms[0][0] is new is stored unbuilt, as
    ``terms``; any other is built, reduced against the pivot rows it
    reaches (``_pivot_row`` builds them) until its lead is new, made unit
    and stored.  A pivot's row, read by ``_pivot_row``, has coefficient 1
    on the pivot, its smallest key; rows are not inter-reduced.  The
    pivot set is the set of leading monomials of the rows' span,
    independent of the input order and of which rows are built.
    """
    pivots: dict = {}
    for q, terms in rows:
        if pivots.setdefault(q + terms[0][0], terms) is terms:
            continue  # a new lead, or this same row again
        row = {t + q: c for t, c in terms}
        while row:
            lead = min(row)
            if lead not in pivots:
                lc = row[lead]
                if lc != field.one:
                    row = {k: field.div(c, lc) for k, c in row.items()}
                pivots[lead] = row
                break
            _scale_into(row, _pivot_row(pivots, lead, field), -row[lead])
    return pivots
