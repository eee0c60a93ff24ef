"""Exact sparse polynomial kernel with a diagonal-first block monomial order.

The ring has variables x_i_j (the entries of an n-by-n matrix that a
pattern keeps; all n*n by default) and y_j (entries of a length-n column
vector), with coefficients in the rationals or in a prime field GF(p).
Monomials compare by the exponents of the diagonal variables the ring
has, x_1_1, ..., x_n_n, lexicographically first; ties fall through to a
graded reverse-lexicographic comparison on the remaining variables.  As
single variables this gives

    x_1_1 > x_2_2 > ... > x_n_n  >  every off-diagonal x_i_j and every y_j,

and more strongly, any monomial containing a diagonal variable beats any
monomial free of them.  The tail tie-break ranks single variables in ring
layout order, x_1_2 < x_1_3 < ... < x_n_(n-1) < y_1 < ... < y_n for the
full ring, which pins a deterministic total order; dropping variables a
pattern never uses keeps the relative order of the rest.

All values are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import weakref
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from functools import lru_cache


class ContextMismatchError(ValueError):
    """Operands belong to different ring contexts."""


class ZeroPolynomialError(ValueError):
    """The operation needs a nonzero polynomial (e.g. a leading term)."""


def check_size(n: int) -> None:
    """Raise ValueError unless n is a matrix size: an int >= 1."""
    if type(n) is not int:  # True == 1, yet "n": true would reach the report
        raise ValueError(f"matrix size n must be an int, not {n!r}")
    if n < 1:
        raise ValueError("matrix size n must be >= 1")


class Variable(namedtuple("Variable", "kind i j")):
    """A named indeterminate: x_i_j (matrix entry) or y_j (vector entry)."""

    __slots__ = ()

    def __new__(cls, kind: str, i: int | None, j: int):
        if kind not in ("x", "y"):
            raise ValueError(f"variable kind must be 'x' or 'y', got {kind!r}")
        # True == 1 == 1.0, yet x_True_2 and x_1.0_2 print apart (so typed interning)
        if type(j) is not int or (i is not None and type(i) is not int):
            raise ValueError("variable indices must be ints")
        if kind == "x" and (i is None or i < 1 or j < 1):
            raise ValueError("x variables need row and column indices >= 1")
        if kind == "y" and (i is not None or j < 1):
            raise ValueError("y variables carry a single column index >= 1")
        return tuple.__new__(cls, (kind, i, j))

    @staticmethod
    @lru_cache(maxsize=None, typed=True)
    def x(i: int, j: int) -> "Variable":
        return Variable("x", i, j)

    @staticmethod
    @lru_cache(maxsize=None, typed=True)
    def y(j: int) -> "Variable":
        return Variable("y", None, j)

    @property
    def is_diagonal(self) -> bool:
        return self.kind == "x" and self.i == self.j

    @property
    def name(self) -> str:
        if self.kind == "x":
            return f"x_{self.i}_{self.j}"
        return f"y_{self.j}"

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return self.name


# Miller-Rabin with the first 13 primes (2..41) as bases is deterministic for
# every p below psi_13 (Sorenson and Webster, 2015); larger moduli are refused.
# Bases 2..37 alone are proven only below psi_12 = 318665857834031151167461,
# which is itself a strong pseudoprime to all of them.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test for p < PRIME_BOUND."""
    if p >= PRIME_BOUND:
        raise ValueError(f"prime-field modulus {p} is not below the supported "
                         f"bound {PRIME_BOUND}")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FpElement:
    """An element of GF(p), normalized to 0 <= residue < p.

    Not a tuple: an int times a tuple would repeat it, not raise.
    """

    __slots__ = ("residue", "p")

    def __init__(self, residue: int, p: int):
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.residue == other.residue and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.residue, self.p))

    def __repr__(self) -> str:
        return f"FpElement(residue={self.residue!r}, p={self.p!r})"

    def _check(self, other: "FpElement") -> None:
        if not isinstance(other, FpElement) or other.p != self.p:
            raise ValueError("mixed prime-field arithmetic")

    def __add__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement((self.residue + other.residue) % self.p, self.p)

    def __sub__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement((self.residue - other.residue) % self.p, self.p)

    def __mul__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        return FpElement((self.residue * other.residue) % self.p, self.p)

    def __truediv__(self, other: "FpElement") -> "FpElement":
        self._check(other)
        if other.residue == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return self * FpElement(pow(other.residue, -1, self.p), self.p)

    def __neg__(self) -> "FpElement":
        return FpElement(-self.residue % self.p, self.p)

    def __bool__(self) -> bool:
        return self.residue != 0

    def __str__(self) -> str:
        return str(self.residue)


class CoefficientField:
    """Coefficient domain descriptor: exact rationals, or GF(p) for prime p.

    A rational coefficient is an ``int`` while it is integral and a
    ``Fraction`` only when it is a true fraction: ``int`` arithmetic is
    cheaper, and ``int`` and ``Fraction`` compare, hash and print alike
    for integral values.  Division of coefficients goes through ``div``,
    because ``/`` on two ``int`` would give a float.
    """

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = self.coerce(0)
        self.one = self.coerce(1)

    @classmethod
    def rationals(cls) -> "CoefficientField":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "CoefficientField":
        return cls(p)

    @property
    def name(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"

    def coerce(self, value):
        """value as an ``int`` or ``Fraction`` of QQ, or an FpElement of GF(p)."""
        if self.p is None:
            if isinstance(value, int):  # bool included: True becomes 1
                return int(value)
            from fractions import Fraction  # only a non-int value needs it
            if isinstance(value, (Fraction, str)):
                q = Fraction(value)
                return q.numerator if q.denominator == 1 else q
            raise TypeError(f"cannot coerce {value!r} into QQ")
        if isinstance(value, FpElement):
            self.one._check(value)  # as arithmetic across two fields does
            return value
        if isinstance(value, int):
            return FpElement(value % self.p, self.p)
        if isinstance(value, str):
            return FpElement(int(value) % self.p, self.p)
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    def div(self, a, b):
        """The quotient a / b of two coefficients of this field."""
        if self.p is not None:
            return a / b
        if b == 1:
            return a
        if a.__class__ is int and b.__class__ is int:
            q, r = divmod(a, b)
            if not r:
                return q
        from fractions import Fraction  # only a true fraction needs it
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    def __eq__(self, other) -> bool:
        return isinstance(other, CoefficientField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("CoefficientField", self.p))

    def __repr__(self) -> str:
        return self.name


class RingContext:
    """The polynomial ring on some x_i_j, then y_1..y_n, with its monomial order.

    ``x_variables`` are the matrix-entry variables the ring carries, in
    layout order: by default all n*n, row-major.  A pattern passes only the
    distinct entries it keeps, so a zeroed entry is no variable at all.
    Contexts are equal when they carry the same variables over one field.
    Nothing a context holds refers back to it (its order holds it by weak
    reference), so reference counting frees it, not the cyclic collector.
    """

    __slots__ = ("n", "field", "variables", "_position", "order", "__weakref__")

    def __init__(self, n: int, x_variables: Iterable[Variable] | None = None, *,
                 field: CoefficientField | None = None):
        check_size(n)
        if x_variables is None:
            x_variables = [Variable.x(i, j) for i in range(1, n + 1)
                           for j in range(1, n + 1)]
        xs = tuple(x_variables)
        if (len(set(xs)) != len(xs)
                or any(v.kind != "x" or v.i > n or v.j > n for v in xs)):
            raise ValueError(f"x variables must be distinct entries of an "
                             f"{n}-by-{n} matrix")
        self.n = n
        self.field = field if field is not None else CoefficientField.rationals()
        self.variables: tuple[Variable, ...] = xs + tuple(
            Variable.y(j) for j in range(1, n + 1))
        self._position = {v: k for k, v in enumerate(self.variables)}
        self.order = MonomialOrder(self)

    def x(self, i: int, j: int) -> Variable:
        return self.variables[self.position(Variable.x(i, j))]

    def y(self, j: int) -> Variable:
        return self.variables[self.position(Variable.y(j))]

    def position(self, v: Variable) -> int:
        try:
            return self._position[v]
        except KeyError:
            raise ValueError(f"{v.name} is not a variable of this ring") from None

    def require(self, ctx: "RingContext", what: str) -> None:
        """Raise ContextMismatchError unless ctx is this ring (or equal to it)."""
        if ctx is not self and ctx != self:
            raise ContextMismatchError(f"{what} from a different ring context")

    @property
    def one(self) -> "Monomial":
        return Monomial(self, (), 0)

    def monomial(self, exponents: Mapping[Variable, int]) -> "Monomial":
        pairs = []
        for v, e in exponents.items():
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if e:
                pairs.append((self.position(v), e))
        pairs.sort()
        return Monomial(self, tuple(pairs))

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def polynomial(self, terms: Mapping["Monomial", object]) -> "Polynomial":
        """The polynomial with these terms; zero coefficients are dropped."""
        acc: dict[Monomial, object] = {}
        for m, c in terms.items():
            self.require(m.ctx, "monomial")
            c = self.field.coerce(c)
            if c:
                acc[m] = c
        ordered = sorted(acc, key=self.order.heap_key)
        return Polynomial(self, tuple((acc[m], m) for m in ordered))

    def __eq__(self, other) -> bool:
        return (isinstance(other, RingContext)
                and self.variables == other.variables
                and self.field == other.field)

    def __hash__(self) -> int:
        return hash((self.variables, self.field))

    def __repr__(self) -> str:
        xs = ", ".join(v.name for v in self.variables[:-self.n])
        return f"RingContext(n={self.n}, x=[{xs}], field={self.field.name})"


class Monomial:
    """Sparse exponent vector over a ring context.

    Stored as (variable position, exponent) pairs with positive exponents,
    sorted by position; the empty tuple is the monomial 1.  A decoder that
    already knows the total degree passes it in instead of summing it again.
    """

    __slots__ = ("ctx", "exps", "total_degree", "_hkey")

    def __init__(self, ctx: RingContext, exps: tuple[tuple[int, int], ...],
                 total_degree: int | None = None):
        self.ctx = ctx
        self.exps = exps
        self.total_degree = (sum([e for _, e in exps]) if total_degree is None
                             else total_degree)
        self._hkey = None

    @property
    def is_one(self) -> bool:
        return not self.exps

    def factors(self) -> Iterator[tuple[Variable, int]]:
        """Yield (variable, exponent) pairs in ring layout order."""
        for p, e in self.exps:
            yield self.ctx.variables[p], e

    def __eq__(self, other) -> bool:
        return (isinstance(other, Monomial)
                and self.exps == other.exps
                and (self.ctx is other.ctx or self.ctx == other.ctx))

    def __hash__(self) -> int:
        return hash(self.exps)

    def __str__(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for p, e in self.exps:
            name = self.ctx.variables[p].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return str(self)


# Width in bits of one field of the order key and the packed exponent
# vector.  Each field's top bit is a guard bit, so the order encodes only
# monomials of total degree below 2**(EXPONENT_BITS - 1).
EXPONENT_BITS = 16


class MonomialOrder:
    """Block order: lex on diagonal exponents, then grevlex on the tail.

    ``heap_key`` is the order's one encoding: an int, cached on the
    monomial, that sorts in descending monomial order (a ``heapq`` of keys
    pops the largest monomial first).  It is linear in the exponents, so
    key(a*b) = key(a) + key(b), and ``weights[p]`` is the key of the
    variable at position p.  A sum of keys skips the degree bound that
    ``heap_key`` checks; its caller runs ``check_degree``.  The key's
    ``field_bits``-bit fields, most significant first, are (-diagonal
    exponents, -total degree, tail exponents by ascending position): with
    equal diagonal exponents the total degree ranks like the tail degree,
    and more of the lowest differing tail variable makes a smaller
    monomial.  ``packed`` gives the same fields, all positive.  Packed a
    divides packed b exactly when ((b | guard) - a) & guard == guard, and
    b - a is then the quotient.  The order holds its ring by weak
    reference, so ``monomial`` and ``compare`` need the ring alive.
    """

    __slots__ = ("_ctx", "guard", "tail_bits", "field_bits", "weights",
                 "_position", "_ones", "_low")

    def __init__(self, ctx: RingContext):
        self._ctx = weakref.ref(ctx)
        w = self.field_bits = EXPONENT_BITS
        diagonal = [v.is_diagonal for v in ctx.variables]
        nv = len(diagonal)
        s = self.tail_bits = w * (nv - sum(diagonal))
        # diagonal fields above the degree field at bit s, tail fields below
        weights, self._position, d = [], {}, 0  # d: diagonal variables up to p
        for p, is_diagonal in enumerate(diagonal):
            d += is_diagonal
            f = w * (nv + 1 - d) if is_diagonal else s - w * (p + 1 - d)
            weights.append((-(1 << f) if is_diagonal else 1 << f) - (1 << s))
            self._position[f + w] = p  # by guard bit
        self.weights = tuple(weights)
        self._ones = ((1 << w * (nv + 1)) - 1) // ((1 << w) - 1)  # 1 in each field
        self.guard = self._ones << (w - 1)
        self._low = (self.guard - self._ones) & ~(((1 << w) - 1) << s)

    def check_degree(self, degree: int) -> None:
        """Raise ValueError if the order cannot encode this total degree."""
        if degree >> (self.field_bits - 1):
            raise ValueError(f"monomial of total degree {degree} exceeds the "
                             f"order's bound of {(1 << (self.field_bits - 1)) - 1}")

    def heap_key(self, m: Monomial) -> int:
        """Int key with heap_key(a) < heap_key(b) exactly when a > b."""
        key = m._hkey
        if key is None:
            self.check_degree(m.total_degree)
            weight = self.weights
            key = m._hkey = sum([e * weight[p] for p, e in m.exps])
        return key

    def packed(self, key: int) -> int:
        """Heap key to packed exponent vector, and back by the same map."""
        s = self.tail_bits
        return key - ((key >> s) << (s + 1))

    def degree(self, e: int) -> int:
        """Total degree of a packed exponent vector."""
        return e >> self.tail_bits & ((1 << self.field_bits) - 1)

    def support(self, e: int) -> int:
        """Guard bits of the nonzero exponent fields of a packed vector."""
        return (e + self._low) & self.guard

    def lcm(self, a: int, b: int) -> int:
        """Packed lcm of packed vectors: field-wise max, degree re-summed."""
        w, s, guard = self.field_bits, self.tail_bits, self.guard
        ge = ((a | guard) - b) & guard  # guard bits of the fields where a >= b
        ge -= ge >> (w - 1)  # ... widened to those fields' value bits
        mask = (1 << w) - 1
        e = (a & ge | b & ~ge) & ~(mask << s)
        # field nv of e * ones sums all fields: the degree, below 2**w
        degree = e * self._ones >> (w * len(self.weights)) & mask
        if degree >> (w - 1):
            self.check_degree(degree)
        return e | degree << s

    def monomial(self, key: int) -> Monomial:
        """The monomial with this heap key."""
        w, s, mask = self.field_bits, self.tail_bits, (1 << self.field_bits) - 1
        e = key - ((key >> s) << (s + 1))  # self.packed(key), inlined
        exps = []
        support = (e + self._low) & self.guard
        while support:
            top = support.bit_length()
            exps.append((self._position[top], e >> (top - w) & mask))
            support ^= 1 << (top - 1)
        exps.sort()
        m = Monomial(self._ctx(), tuple(exps), e >> s & mask)
        m._hkey = key
        return m

    def compare(self, a: Monomial, b: Monomial) -> int:
        """Return -1, 0 or 1 as a <, =, > b in the order."""
        ctx = self._ctx()
        ctx.require(a.ctx, "monomial")
        ctx.require(b.ctx, "monomial")
        ka, kb = self.heap_key(a), self.heap_key(b)
        return (ka < kb) - (ka > kb)


class Polynomial:
    """Immutable sparse polynomial; terms sorted strictly descending."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingContext, terms: tuple):
        self.ctx = ctx
        self.terms = terms  # tuple of (coefficient, Monomial), descending

    def __bool__(self) -> bool:
        return bool(self.terms)

    def leading_term(self) -> tuple[object, Monomial]:
        if not self.terms:
            raise ZeroPolynomialError("the zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self) -> Monomial:
        return self.leading_term()[1]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self.ctx.require(other.ctx, "polynomial")
        acc = {m: c for c, m in self.terms}
        for c, m in other.terms:
            acc[m] = acc[m] + c if m in acc else c
        return self.ctx.polynomial(acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ctx, tuple((-c, m) for c, m in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.terms[0][0]
        field = self.ctx.field
        if lc == field.one:
            return self
        div = field.div
        return Polynomial(self.ctx, tuple((div(c, lc), m) for c, m in self.terms))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and (self.ctx is other.ctx or self.ctx == other.ctx)
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for c, m in self.terms:
            cs = str(c)
            neg = cs.startswith("-")
            mag = cs[1:] if neg else cs
            if m.is_one:
                body = mag
            elif mag == "1":
                body = str(m)
            else:
                body = f"{mag}*{m}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return str(self)

