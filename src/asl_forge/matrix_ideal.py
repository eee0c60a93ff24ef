"""Matrix patterns and the ideal of entries of a matrix-vector product.

The central object is the ideal generated by the n entries of X*Y, where
X is an n-by-n matrix whose entries are indeterminates or 0 (generic,
symmetric, or with a prescribed zero pattern) and Y is the column vector
(y_1, ..., y_n).  Each generator is g_i = sum_j X[i][j] * y_j, a quadric
linear in the y block.  ``MatrixPattern.entry`` names the variable at each
position of X, and the ring carries only the variables the pattern keeps.
"""

from __future__ import annotations

from collections import namedtuple

from .groebner import GeneratorSet
from .poly_core import (
    CoefficientField,
    Monomial,
    Polynomial,
    RingContext,
    Variable,
    check_size,
)

PATTERN_KINDS = ("generic", "symmetric", "zero_pattern")


class MatrixPattern(namedtuple("MatrixPattern", "n kind mask")):
    """Shape of the matrix X: generic, symmetric, or entries zeroed by mask.

    ``mask`` is only meaningful for kind "zero_pattern": mask[i][j] == 1
    keeps entry (i+1, j+1), 0 forces it to zero.
    """

    __slots__ = ()

    def __new__(cls, n: int, kind: str = "generic",
                mask: tuple[tuple[int, ...], ...] | None = None):
        check_size(n)
        if kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind {kind!r}")
        if kind == "zero_pattern":
            if mask is None:
                raise ValueError("zero_pattern requires a mask")
            rows = mask if isinstance(mask, (tuple, list)) else ()
            if len(rows) != n or any(
                    not isinstance(r, (tuple, list)) or len(r) != n
                    for r in rows):
                raise ValueError("mask must be an n-by-n matrix")
            # a type check, not only a value one: 1.0 == 1, and no float
            # or string may be coerced into a kept or zeroed entry
            if any(type(v) is not int or v not in (0, 1)
                   for r in mask for v in r):
                raise ValueError("mask entries must be 0 or 1")
        elif mask is not None:
            raise ValueError(f"mask is only valid for zero_pattern, not {kind!r}")
        return tuple.__new__(cls, (n, kind, mask))

    @classmethod
    def generic(cls, n: int) -> "MatrixPattern":
        return cls(n, "generic")

    @classmethod
    def symmetric(cls, n: int) -> "MatrixPattern":
        return cls(n, "symmetric")

    @classmethod
    def zero_pattern(cls, mask) -> "MatrixPattern":
        """Pattern from an n-by-n mask of booleans or the integers 0 and 1."""
        try:
            rows = tuple(tuple(int(v) if isinstance(v, bool) else v for v in row)
                         for row in mask)
        except TypeError:  # the mask or one of its rows is not iterable
            rows = ()
        if not rows:
            raise ValueError("mask must be an n-by-n matrix")
        return cls(len(rows), "zero_pattern", rows)

    def to_json_dict(self) -> dict:
        out: dict = {"n": self.n, "kind": self.kind}
        if self.kind == "zero_pattern":
            out["mask"] = [[bool(v) for v in row] for row in self.mask]
        return out

    def entry(self, i: int, j: int) -> Variable | None:
        """1-based: the variable at X[i][j], or None where X is zero.

        A symmetric pattern reads entry (i, j) as x_min(i,j)_max(i,j).
        """
        if self.kind == "symmetric":
            return Variable.x(min(i, j), max(i, j))
        if self.kind == "zero_pattern" and not self.mask[i - 1][j - 1]:
            return None
        return Variable.x(i, j)


def product_generators(pattern: MatrixPattern,
                       field: CoefficientField | None = None
                       ) -> tuple[RingContext, list[Polynomial]]:
    """The ring of the pattern and the entries of X*Y in row order.

    The ring carries the distinct entries the pattern keeps, in row-major
    order of first appearance, then y_1..y_n.  g_i = sum_j X[i][j] * y_j
    over the kept entries of row i.  Always returns n polynomials: an
    all-zero row of a zero pattern gives the zero polynomial.  Each term
    x*y_j is built from the ring positions of x and y_j, which follow from
    the layout, so no term looks a variable up.
    """
    n = pattern.n
    kept: dict[Variable, int] = {}  # entry -> ring position
    rows = [[(kept.setdefault(x, len(kept)), j)
             for j in range(1, n + 1) if (x := pattern.entry(i, j)) is not None]
            for i in range(1, n + 1)]
    ctx = RingContext(n, kept, field=field)
    y_first = len(kept) - 1  # y_j sits at position y_first + j
    key, one = ctx.order.heap_key, ctx.field.one
    gens = []
    for row in rows:
        terms = sorted((Monomial(ctx, ((p, 1), (y_first + j, 1)), 2)
                        for p, j in row), key=key)
        gens.append(Polynomial(ctx, tuple((one, m) for m in terms)))
    return ctx, gens


def matrix_product_ideal(pattern: MatrixPattern,
                         field: CoefficientField | None = None
                         ) -> tuple[RingContext, GeneratorSet]:
    """One-call construction: ring context plus the entry ideal of X*Y.

    Identically-zero entries of the product (possible for degenerate
    masks) are dropped by the GeneratorSet constructor.
    """
    ctx, gens = product_generators(pattern, field)
    return ctx, GeneratorSet(ctx, gens)
