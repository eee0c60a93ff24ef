"""Matrix patterns and the ideal of entries of a matrix-vector product.

The central object is the ideal generated by the n entries of X*Y, where
X is an n-by-n matrix of indeterminates (generic, symmetric, or with a
prescribed zero pattern) and Y is the column vector (y_1, ..., y_n).  Each
generator is g_i = sum_j x_i_j * y_j, a quadric linear in the y block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import GeneratorSet
from .poly_core import CoefficientField, Polynomial, RingContext

PATTERN_KINDS = ("generic", "symmetric", "zero_pattern")


@dataclass(frozen=True)
class MatrixPattern:
    """Shape of the matrix X: generic, symmetric, or entries zeroed by mask.

    ``mask`` is only meaningful for kind "zero_pattern": mask[i][j] == 1
    keeps entry (i+1, j+1), 0 forces it to zero.
    """

    n: int
    kind: str = "generic"
    mask: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("matrix size n must be >= 1")
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.kind == "zero_pattern":
            if self.mask is None:
                raise ValueError("zero_pattern requires a mask")
            rows = self.mask if isinstance(self.mask, (tuple, list)) else ()
            if len(rows) != self.n or any(
                    not isinstance(r, (tuple, list)) or len(r) != self.n
                    for r in rows):
                raise ValueError("mask must be an n-by-n matrix")
            # a type check, not only a value one: 1.0 == 1, and no float
            # or string may be coerced into a kept or zeroed entry
            if any(type(v) is not int or v not in (0, 1)
                   for r in self.mask for v in r):
                raise ValueError("mask entries must be 0 or 1")
        elif self.mask is not None:
            raise ValueError(f"mask is only valid for zero_pattern, not {self.kind!r}")

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
            raise ValueError("mask must be an n-by-n matrix") from None
        return cls(len(rows), "zero_pattern", rows)

    @classmethod
    def from_json_dict(cls, data: dict) -> "MatrixPattern":
        try:
            n = int(data["n"])
            kind = data["kind"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed pattern description: {exc}") from None
        mask = data.get("mask")
        if kind == "zero_pattern":
            if mask is None:
                raise ValueError("zero_pattern requires a mask")
            pattern = cls.zero_pattern(mask)
            if pattern.n != n:
                raise ValueError("mask size disagrees with n")
            return pattern
        if mask is not None:
            raise ValueError(f"mask is only valid for zero_pattern, not {kind!r}")
        return cls(n, kind)

    def to_json_dict(self) -> dict:
        out: dict = {"n": self.n, "kind": self.kind}
        if self.kind == "zero_pattern":
            out["mask"] = [[bool(v) for v in row] for row in self.mask]
        return out

    def entry_is_zero(self, i: int, j: int) -> bool:
        """1-based query: is X[i][j] forced to zero by the pattern?"""
        if self.kind == "zero_pattern":
            return self.mask[i - 1][j - 1] == 0
        return False

    def keeps_diagonal(self) -> bool:
        """True when every diagonal entry of X survives the pattern."""
        return all(not self.entry_is_zero(i, i) for i in range(1, self.n + 1))

    def ring_context(self, field: CoefficientField | None = None) -> RingContext:
        return RingContext(self.n, symmetric=(self.kind == "symmetric"),
                           field=field)


def product_generators(pattern: MatrixPattern,
                       field: CoefficientField | None = None
                       ) -> tuple[RingContext, list[Polynomial]]:
    """The ring of the pattern and the entries of X*Y in row order.

    g_i = sum_j x_i_j * y_j over the entries the pattern keeps; a symmetric
    pattern reads entry (i, j) as x_min(i,j)_max(i,j).  Always returns n
    polynomials: an all-zero row of a zero pattern gives the zero polynomial.
    """
    ctx = pattern.ring_context(field)
    n = pattern.n
    symmetric = pattern.kind == "symmetric"
    gens = []
    for i in range(1, n + 1):
        terms = {}
        for j in range(1, n + 1):
            if pattern.entry_is_zero(i, j):
                continue
            x = ctx.x(min(i, j), max(i, j)) if symmetric else ctx.x(i, j)
            terms[ctx.monomial({x: 1, ctx.y(j): 1})] = 1
        gens.append(ctx.polynomial(terms))
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
