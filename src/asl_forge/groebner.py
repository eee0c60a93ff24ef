"""Buchberger-style Groebner machinery over the block-ordered ring.

Division here always performs full tail reduction: every term of the
remainder, not just the leading one, is irreducible by the divisors.  That
makes ``reduce`` a genuine normal-form map when the divisors are a Groebner
basis, and it is what the straightening computations downstream rely on.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heappop, heappush

from .poly_core import (
    Monomial,
    MonomialOrder,
    Polynomial,
    RingContext,
    ZeroPolynomialError,
)


class NotGroebnerError(ValueError):
    """A Groebner basis was required but the given set is not one."""


class GeneratorSet:
    """A finite ordered list of nonzero polynomials in one ring context.

    Zero polynomials are dropped on construction; an empty set is allowed
    and generates the zero ideal.
    """

    __slots__ = ("ctx", "polys")

    def __init__(self, ctx: RingContext, polys):
        kept = []
        for f in polys:
            if f.ctx is not ctx:
                ctx.require(f.ctx, "generator")
            if f:
                kept.append(f)
        self.ctx = ctx
        self.polys = tuple(kept)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, k: int) -> Polynomial:
        return self.polys[k]

    def __eq__(self, other) -> bool:
        return (isinstance(other, GeneratorSet)
                and (self.ctx is other.ctx or self.ctx == other.ctx)
                and self.polys == other.polys)

    def __hash__(self) -> int:
        return hash(self.polys)

    def __repr__(self) -> str:
        return f"GeneratorSet({len(self.polys)} polynomials, n={self.ctx.n})"


def _divisor_entry(ctx: RingContext, g: Polynomial) -> tuple:
    """Check a divisor and return its division entry.

    The entry is (lc, leading heap key, leading packed exponents, tail),
    where lc is None for the field's one, and the tail holds (coefficient,
    heap key) for each term after the leading one.
    """
    if g.ctx is not ctx:
        ctx.require(g.ctx, "divisor")
    if not g:
        raise ZeroPolynomialError("cannot divide by the zero polynomial")
    key = ctx.order.heap_key
    lc, lm = g.terms[0]
    lkey = key(lm)
    return (None if lc == ctx.field.one else lc, lkey, ctx.order.packed(lkey),
            tuple((tc, key(tm)) for tc, tm in g.terms[1:]))


def _division(ctx: RingContext, table: list[tuple], work: dict,
              heap: list) -> list[tuple]:
    """Divide the working polynomial by the table's divisors; return the remainder.

    The working polynomial is a dict of coefficients keyed by heap key
    plus a heap of those keys (heap division, Monagan and Pearce, CASC
    2007).  Each step takes the largest working term and either cancels it
    by the first divisor, in list order, whose leading monomial divides it
    (guard-bit test on packed exponents), or moves it to the remainder,
    which is a list of (coefficient, heap key) in descending order.  Only a
    product new to ``work`` is pushed, so each key enters the heap once; a
    product whose degree reaches the order's bound raises ValueError.
    """
    order, div = ctx.order, ctx.field.div
    guard, s = order.guard, order.tail_bits
    remainder = []
    while heap:
        k = heappop(heap)
        c = work.pop(k)
        e = k - ((k >> s) << (s + 1))  # order.packed(k), inlined
        if e & guard:
            order.check_degree(order.degree(e))
        if not c:
            continue
        e |= guard
        for lc, lkey, lexp, tail in table:
            if (e - lexp) & guard == guard:
                if lc is not None:
                    c = div(c, lc)
                q = k - lkey
                for tc, tkey in tail:
                    t = tkey + q
                    prev = work.get(t)
                    if prev is None:
                        work[t] = -(tc * c)
                        heappush(heap, t)
                    else:
                        work[t] = prev - tc * c
                break
        else:
            remainder.append((c, k))
    return remainder


def _remainder(ctx: RingContext, table: list[tuple], f: Polynomial) -> Polynomial:
    """Remainder of f under full tail reduction by the table's divisors."""
    order = ctx.order
    # descending terms give ascending keys, which is already a heap
    heap = [order.heap_key(m) for _, m in f.terms]
    terms = _division(ctx, table, dict(zip(heap, [c for c, _ in f.terms])), heap)
    return Polynomial(ctx, tuple([(c, order.monomial(k)) for c, k in terms]))


def reduce(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under full tail reduction by the given polynomials.

    At each step the first divisor, in list order, whose leading monomial
    divides the current term is used, so the remainder is deterministic.
    """
    ctx = f.ctx
    return _remainder(ctx, [_divisor_entry(ctx, g) for g in basis], f)


def _pair_remainder(ctx: RingContext, table: list[tuple], a: int, b: int,
                    lcm: int) -> list[tuple]:
    """Remainder of the S-polynomial of divisors a and b by the whole table.

    ``lcm`` is the packed lcm of their leading monomials.  With
    u = lcm/LM, the S-polynomial (u_a*g_a)/lc_a - (u_b*g_b)/lc_b is
    seeded into the division loop as (u_a*tail_a)/lc_a - (u_b*tail_b)/lc_b:
    the leading terms cancel by construction and are never built.
    """
    field = ctx.field
    lcm_key = ctx.order.packed(lcm)  # packed is its own inverse
    work = {}
    for k, sign in ((a, -field.one), (b, field.one)):
        lc, lkey, _, tail = table[k]
        c = sign if lc is None else field.div(sign, lc)
        for tc, tkey in tail:
            t = tkey + lcm_key - lkey
            work[t] = work.get(t, field.zero) - tc * c
    return _division(ctx, table, work, sorted(work))  # sorted is a heap


def _reduced_basis(ctx: RingContext, gens: GeneratorSet,
                   table: list[tuple]) -> list[Polynomial]:
    """The reduced Groebner basis of a Groebner basis with division table ``table``.

    An element is dropped when another's leading monomial divides its own
    (of equal ones, the first is kept).  A survivor whose tail a leading
    monomial divides (a dropped one's is a multiple of a survivor's) is
    reduced once by the other survivors, which keeps its leading monomial,
    in any divisor order, since the reduced basis is unique.  Each is made
    monic; sorted by descending leading monomial.  On a set that is not a
    Groebner basis this could change the ideal.  A survivor past the
    generators is a monic entry the completion added, decoded here.
    """
    order, one = ctx.order, ctx.field.one
    guard, s = order.guard, order.tail_bits
    leads = [entry[2] for entry in table]
    keep = []
    for k, lexp in enumerate(leads):
        e = lexp | guard
        for j, d in enumerate(leads):  # j == k has d == lexp and fails
            if (e - d) & guard == guard and (d != lexp or j < k):
                break
        else:
            keep.append(k)
    keep.sort(key=lambda k: table[k][1])
    reduced = []
    for k in keep:
        _, lkey, _, tail = table[k]
        f = gens[k] if k < len(gens) else Polynomial(ctx, tuple(
            [(c, order.monomial(t)) for c, t in ((one, lkey), *tail)]))
        for _, t in tail:
            e = (t - ((t >> s) << (s + 1))) | guard  # order.packed(t), inlined
            for d in leads:
                if (e - d) & guard == guard:
                    break
            else:
                continue
            f = _remainder(ctx, [table[j] for j in keep if j != k], f)
            break
        reduced.append(f.monic())
    return reduced


class SPairRecord(namedtuple("SPairRecord", "i j criterion remainder_zero")):
    """Outcome of one S-pair check; i, j index into the checked basis.

    ``criterion`` is "coprime" or "reduced".
    """

    __slots__ = ()


class GroebnerCertificate(namedtuple("GroebnerCertificate", "is_basis pairs basis")):
    """Per-pair evidence that a set is (or is not) a Groebner basis.

    ``basis`` is the GeneratorSet that ``is_groebner`` checked, so the
    checks that need a Groebner basis take the certificate alone.  It is
    true exactly when ``is_basis`` is.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.is_basis


def is_groebner(gens: GeneratorSet) -> GroebnerCertificate:
    """Check every S-pair of the set; the certificate carries the set itself.

    Pairs whose leading monomials are coprime are recorded with criterion
    "coprime" and no division is run; all other pairs must reduce to zero
    against the full set.  No other criterion is applied: the records are
    the certificate, and the consumers that need a Groebner basis take
    the certificate alone, reading the set off its ``basis``.
    """
    polys = gens.polys
    ctx = gens.ctx
    order = ctx.order
    table = [_divisor_entry(ctx, f) for f in polys]
    leads = [entry[2] for entry in table]
    supports = [order.support(e) for e in leads]
    records: list[SPairRecord] = []
    record = tuple.__new__  # SPairRecord's own __new__ is a Python call
    ok = True
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            if not supports[a] & supports[b]:
                records.append(record(SPairRecord, (a, b, "coprime", True)))
                continue
            lcm = order.lcm(leads[a], leads[b])
            zero = not _pair_remainder(ctx, table, a, b, lcm)
            ok = ok and zero
            records.append(record(SPairRecord, (a, b, "reduced", zero)))
    return GroebnerCertificate(ok, tuple(records), gens)


def _add_with_pairs(order: MonomialOrder, table: list[tuple], pairs: dict,
                    queue: list, entry: tuple) -> None:
    """Append entry as element t; queue its S-pairs by the Gebauer-Moeller update.

    ``pairs`` maps each live pair (a, b), a < b, to its packed lcm;
    ``queue`` is a heap of (lcm degree, a, b) that may still hold pairs
    dropped since.  The new pairs (k, t) are taken in index order, and one
    is dropped when its lcm is a multiple of the lcm of a new pair not yet
    dropped (the chain criterion: of several pairs with one lcm, the last
    is kept).  Pairs with coprime leading monomials are dropped after that
    (the product criterion), so they can still drop others first.  An old
    pair (a, b) is dropped when LM(h) divides its lcm L and neither
    lcm(a, t) nor lcm(b, t) equals L.  This is UPDATE from Gebauer and
    Moeller (J. Symb. Comput. 6, 1988) as given by Becker and Weispfenning,
    "Groebner Bases" (1993).
    """
    t, guard, lh = len(table), order.guard, entry[2]
    w, s = order.field_bits, order.tail_bits
    mask, ones = (1 << w) - 1, guard >> (w - 1)  # ones: 1 in each field
    top, tail_fields = w * len(order.weights), ~(mask << s)
    lcms, coprime = [], []
    for _, _, lg, _ in table:  # order.lcm(lh, lg), inlined
        ge = ((lh | guard) - lg) & guard
        ge -= ge >> (w - 1)
        e = (lh & ge | lg & ~ge) & tail_fields
        degree = e * ones >> top & mask
        if degree >> (w - 1):
            order.check_degree(degree)
        L = e | degree << s
        lcms.append(L)
        coprime.append(L == lh + lg)  # field-wise max equals sum
    kept: list[int] = []
    for k, L in enumerate(lcms):
        if coprime[k]:
            kept.append(k)
            continue
        multiple = L | guard
        for j in kept:  # the kept pairs, then the undecided ones
            if (multiple - lcms[j]) & guard == guard:
                break
        else:
            for M in lcms[k + 1:]:
                if (multiple - M) & guard == guard:
                    break
            else:
                kept.append(k)
    for (a, b), L in list(pairs.items()):
        if ((L | guard) - lh) & guard == guard and lcms[a] != L and lcms[b] != L:
            del pairs[a, b]
    for k in kept:
        if not coprime[k]:
            L = pairs[k, t] = lcms[k]
            heappush(queue, (L >> s & mask, k, t))
    table.append(entry)


def buchberger(gens: GeneratorSet) -> GeneratorSet:
    """Compute the reduced Groebner basis of the ideal the set generates.

    Pairs are popped in ascending (lcm degree, a, b) order from a heap
    filled by the Gebauer-Moeller update, which makes the run
    deterministic; the criteria are sound, and the reduced basis is
    unique, so they change the work done but not the result.  The input
    is not interreduced first; one pass over the final division table
    reduces the completed basis.
    """
    ctx = gens.ctx
    order, one, div = ctx.order, ctx.field.one, ctx.field.div
    table: list[tuple] = []
    pairs: dict[tuple[int, int], int] = {}
    queue: list[tuple[int, int, int]] = []
    for h in gens:
        _add_with_pairs(order, table, pairs, queue, _divisor_entry(ctx, h))
    while queue:
        _, a, b = heappop(queue)
        lcm = pairs.pop((a, b), None)
        if lcm is None:
            continue
        r = _pair_remainder(ctx, table, a, b, lcm)
        if r:
            (lc, lkey), tail = r[0], r[1:]
            if lc != one:  # made monic on the keys
                tail = [(div(c, lc), t) for c, t in tail]
            _add_with_pairs(order, table, pairs, queue,
                            (None, lkey, order.packed(lkey), tuple(tail)))
    return GeneratorSet(ctx, _reduced_basis(ctx, gens, table))


class InitialIdeal:
    """Monomial ideal of leading monomials, kept by minimal generators.

    ``packed`` holds their packed exponent vectors, aligned with them.
    """

    __slots__ = ("ctx", "generators", "packed")

    def __init__(self, ctx: RingContext, monomials):
        self.ctx = ctx
        order = ctx.order
        self.packed: list[int] = []
        minimal = []
        # a proper divisor has a lower degree, so each monomial is tested
        # against the minimal generators found before it
        for m in sorted(set(monomials), key=lambda m: m.total_degree):
            if self.is_normal(m):
                minimal.append(m)
                self.packed.append(order.packed(order.heap_key(m)))
        # sort both by heap key, cached on each monomial: descending
        ranks = sorted(range(len(minimal)), key=lambda k: order.heap_key(minimal[k]))
        self.generators = tuple([minimal[k] for k in ranks])
        self.packed = [self.packed[k] for k in ranks]

    def is_normal(self, m: Monomial) -> bool:
        """True when m avoids the ideal, i.e. m is a staircase monomial."""
        self.ctx.require(m.ctx, "monomial")
        order = self.ctx.order
        guard = order.guard
        e = order.packed(order.heap_key(m)) | guard
        return not any((e - d) & guard == guard for d in self.packed)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def __eq__(self, other) -> bool:
        return (isinstance(other, InitialIdeal)
                and self.ctx == other.ctx
                and self.generators == other.generators)

    def __repr__(self) -> str:
        return f"InitialIdeal({', '.join(str(g) for g in self.generators)})"


def initial_ideal(certificate: GroebnerCertificate) -> InitialIdeal:
    """Initial ideal of the ideal generated by the set a certificate checks.

    The set must be a Groebner basis, otherwise its leading monomials
    would not determine the initial ideal; a failed certificate raises
    NotGroebnerError.
    """
    if not certificate.is_basis:
        raise NotGroebnerError(
            "leading monomials of a non-Groebner set do not span the initial ideal")
    basis = certificate.basis
    return InitialIdeal(basis.ctx, (f.leading_monomial() for f in basis))
