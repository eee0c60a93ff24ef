"""Buchberger-style Groebner machinery over the block-ordered ring.

Division here always performs full tail reduction: every term of the
remainder, not just the leading one, is irreducible by the divisors.  That
makes ``reduce`` a genuine normal-form map when the divisors are a Groebner
basis, and it is what the straightening computations downstream rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from .poly_core import (
    ContextMismatchError,
    Monomial,
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
            if f.ctx is not ctx and f.ctx != ctx:
                raise ContextMismatchError("generator from a different ring context")
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

    def to_json_list(self) -> list[list[dict]]:
        return [f.to_json_list() for f in self.polys]

    def __repr__(self) -> str:
        return f"GeneratorSet({len(self.polys)} polynomials, n={self.ctx.n})"


def _divisor_entry(ctx: RingContext, g: Polynomial) -> tuple:
    """Check a divisor and return its division entry.

    The entry is (lc, leading exponents, leading support mask, squarefree
    lead, lead degree, tail), where the tail holds (coefficient,
    exponents, support mask, degree) for each term after the leading one.
    It is cached on the polynomial, which is immutable, so a basis that
    divides many polynomials builds each entry once.
    """
    if g.ctx is not ctx and g.ctx != ctx:
        raise ContextMismatchError("divisor from a different ring context")
    if not g:
        raise ZeroPolynomialError("cannot divide by the zero polynomial")
    entry = g._divisor
    if entry is None:
        lc, lm = g.terms[0]
        tail = tuple((tc, tm.exps, _support(tm.exps), tm.total_degree)
                     for tc, tm in g.terms[1:])
        entry = g._divisor = (lc, lm.exps, _support(lm.exps),
                              len(lm.exps) == lm.total_degree,
                              lm.total_degree, tail)
    return entry


def _support(exps: tuple[tuple[int, int], ...]) -> int:
    """Bit p is set when the exponent pairs include position p."""
    mask = 0
    for p, _ in exps:
        mask |= 1 << p
    return mask


def _quotient(exps: tuple[tuple[int, int], ...],
              lexps: tuple[tuple[int, int], ...]) -> tuple | None:
    """Exponent pairs of the monomial quotient, or None if it is inexact."""
    q = dict(exps)
    for p, e in lexps:
        r = q.get(p, 0) - e
        if r < 0:
            return None
        if r:
            q[p] = r
        else:
            del q[p]
    return tuple(q.items())


def _subtract_tail(ctx: RingContext, work: dict, heap: list, tail: tuple,
                   coeff, qexps: tuple[tuple[int, int], ...], qdeg: int) -> None:
    """work -= coeff * q * tail, for the monomial q with exponents qexps.

    A product monomial new to ``work`` is pushed on the heap; one already
    there only has its coefficient changed, even to zero, so each
    monomial enters the heap once and heap keys never tie.
    """
    key = ctx.order.heap_key
    qmask = _support(qexps)
    for tc, texps, tmask, tdeg in tail:
        if tmask & qmask:
            merged = dict(texps)
            for p, e in qexps:
                merged[p] = merged.get(p, 0) + e
            e = tuple(sorted(merged.items()))
        else:
            e = tuple(sorted(texps + qexps))
        prev = work.get(e)
        if prev is None:
            work[e] = -(tc * coeff)
            tm = Monomial(ctx, e, tdeg + qdeg)
            heappush(heap, (key(tm), tm, tmask | qmask))
        else:
            work[e] = prev - tc * coeff


def _division(ctx: RingContext, table: list[tuple], work: dict,
              heap: list) -> Polynomial:
    """Divide the working polynomial by the table's divisors; return the remainder.

    The working polynomial is a dict of coefficients keyed by exponent
    tuple plus a heap of (order key, monomial, support mask) entries
    (heap division, Monagan and Pearce, CASC 2007).  Each step takes the
    largest working term and cancels it with the first divisor, in list
    order, whose leading monomial divides it, or moves it to the
    remainder.  A divisor is screened by support bitmask first: a lead
    whose support is not inside the term's cannot divide it, and a
    squarefree lead whose support is inside does.  Only other leads run
    the exponent test.  The quotient term times the divisor's lead is
    exactly the popped term, so only the tail is subtracted, and every
    tail product lies below the popped term.
    """
    div = ctx.field.div
    remainder = []
    while heap:
        _, m, mask = heappop(heap)
        c = work.pop(m.exps)
        if not c:
            continue
        exps = m.exps
        for lc, lexps, lmask, squarefree, ldeg, tail in table:
            if lmask & ~mask:
                continue
            if squarefree:
                qexps = tuple((p, e - 1) if lmask >> p & 1 else (p, e)
                              for p, e in exps if e > 1 or not lmask >> p & 1)
            else:
                qexps = _quotient(exps, lexps)
                if qexps is None:
                    continue
            _subtract_tail(ctx, work, heap, tail, div(c, lc), qexps,
                           m.total_degree - ldeg)
            break
        else:
            remainder.append((c, m))
    return Polynomial(ctx, tuple(remainder))


def reduce(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under full tail reduction by the given polynomials.

    At each step the first divisor, in list order, whose leading monomial
    divides the current term is used, so the remainder is deterministic.
    """
    ctx = f.ctx
    table = [_divisor_entry(ctx, g) for g in basis]
    key = ctx.order.heap_key
    # descending terms give ascending keys, which is already a heap
    heap = [(key(m), m, _support(m.exps)) for _, m in f.terms]
    return _division(ctx, table, {m.exps: c for c, m in f.terms}, heap)


def _pair_remainder(table: list[tuple], a: int, b: int,
                    lcm: Monomial) -> Polynomial:
    """Remainder of the S-polynomial of divisors a and b by the whole table.

    ``lcm`` is the lcm of their leading monomials.  With u = lcm/LM, the
    S-polynomial (u_a*g_a)/lc_a - (u_b*g_b)/lc_b is seeded into the
    division loop as (u_a*tail_a)/lc_a - (u_b*tail_b)/lc_b: the leading
    terms cancel by construction and are never built.
    """
    ctx = lcm.ctx
    field = ctx.field
    work: dict = {}
    heap: list = []
    for k, sign in ((a, -field.one), (b, field.one)):
        lc, lexps, _, _, ldeg, tail = table[k]
        _subtract_tail(ctx, work, heap, tail, field.div(sign, lc),
                       _quotient(lcm.exps, lexps), lcm.total_degree - ldeg)
    return _division(ctx, table, work, heap)


def interreduce(polys) -> list[Polynomial]:
    """Make the set reduced: monic, and no term divisible by another's LM.

    Returns the surviving polynomials sorted by descending leading
    monomial.
    """
    current = [f for f in polys if f]
    changed = True
    while changed:
        changed = False
        for k in range(len(current)):
            others = current[:k] + current[k + 1:]
            if not others:
                continue
            r = reduce(current[k], others)
            if r != current[k]:
                changed = True
            if r:
                current[k] = r
            else:
                del current[k]
                break
    current = [f.monic() for f in current]
    if not current:
        return []
    key = current[0].ctx.order.heap_key
    current.sort(key=lambda f: key(f.leading_monomial()))
    return current


@dataclass(frozen=True, slots=True)
class SPairRecord:
    """Outcome of one S-pair check; i, j index into the checked basis."""

    i: int
    j: int
    criterion: str  # "coprime" or "reduced"
    remainder_zero: bool

    def to_json_dict(self) -> dict:
        return {"i": self.i, "j": self.j, "criterion": self.criterion,
                "remainder_zero": self.remainder_zero}


@dataclass(frozen=True)
class GroebnerCertificate:
    """Per-pair evidence that a set is (or is not) a Groebner basis."""

    is_basis: bool
    pairs: tuple[SPairRecord, ...]
    basis: tuple[Polynomial, ...]

    def __bool__(self) -> bool:
        return self.is_basis

    def to_json_dict(self) -> dict:
        return {
            "is_basis": self.is_basis,
            "pairs": [p.to_json_dict() for p in self.pairs],
            "basis": [f.to_json_list() for f in self.basis],
        }


def is_groebner(gens: GeneratorSet) -> GroebnerCertificate:
    """Check every S-pair, recording coprime skips and reduction outcomes.

    Pairs whose leading monomials are coprime are recorded with criterion
    "coprime" and no division is run; all other pairs must reduce to zero
    against the full set.  No other criterion is applied: the records are
    the certificate.
    """
    polys = list(gens)
    table = [_divisor_entry(gens.ctx, f) for f in polys]
    leads = [f.leading_monomial() for f in polys]
    records: list[SPairRecord] = []
    ok = True
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            if leads[a].is_coprime_with(leads[b]):
                records.append(SPairRecord(a, b, "coprime", True))
                continue
            zero = not _pair_remainder(table, a, b, leads[a].lcm(leads[b]))
            ok = ok and zero
            records.append(SPairRecord(a, b, "reduced", zero))
    return GroebnerCertificate(ok, tuple(records), tuple(polys))


def _add_with_pairs(basis: list[Polynomial], pairs: dict, queue: list,
                    h: Polynomial) -> None:
    """Append h as element t and queue its S-pairs by the Gebauer-Moeller update.

    ``pairs`` maps each live pair (a, b), a < b, to its lcm; ``queue`` is
    a heap of (lcm degree, a, b) that may still hold pairs dropped since.
    The new pairs (k, t) are taken in index order, and one is dropped when
    its lcm is a multiple of the lcm of a new pair not yet dropped (the
    chain criterion: of several pairs with one lcm, the last is kept).
    Pairs with coprime leading monomials are dropped after that (the
    product criterion), so they can still drop others first.  An old pair
    (a, b) is dropped when LM(h) divides its lcm L and neither lcm(a, t)
    nor lcm(b, t) equals L.  This is UPDATE from Gebauer and Moeller
    (J. Symb. Comput. 6, 1988) as given by Becker and Weispfenning,
    "Groebner Bases" (1993).
    """
    t = len(basis)
    lh = h.leading_monomial()
    lcms = [lh.lcm(g.leading_monomial()) for g in basis]
    coprime = [lh.is_coprime_with(g.leading_monomial()) for g in basis]
    undecided = list(range(t))
    kept: list[int] = []
    while undecided:
        k = undecided.pop(0)
        L = lcms[k]
        if coprime[k] or not any(lcms[j].divides(L) for j in undecided + kept):
            kept.append(k)
    for (a, b), L in list(pairs.items()):
        if lh.divides(L) and lcms[a] != L and lcms[b] != L:
            del pairs[a, b]
    for k in kept:
        if not coprime[k]:
            pairs[k, t] = lcms[k]
            heappush(queue, (lcms[k].total_degree, k, t))
    basis.append(h)


def buchberger(gens: GeneratorSet) -> GeneratorSet:
    """Compute the reduced Groebner basis of the ideal the set generates.

    Pairs are popped in ascending (lcm degree, a, b) order from a heap
    filled by the Gebauer-Moeller update, which makes the run
    deterministic; the criteria are sound, and the reduced basis is
    unique, so they change the work done but not the result.
    """
    ctx = gens.ctx
    basis: list[Polynomial] = []
    pairs: dict[tuple[int, int], Monomial] = {}
    queue: list[tuple[int, int, int]] = []
    for h in interreduce(list(gens)):
        _add_with_pairs(basis, pairs, queue, h)
    table = [_divisor_entry(ctx, g) for g in basis]
    while queue:
        _, a, b = heappop(queue)
        lcm = pairs.pop((a, b), None)
        if lcm is None:
            continue
        r = _pair_remainder(table, a, b, lcm)
        if r:
            h = r.monic()
            _add_with_pairs(basis, pairs, queue, h)
            table.append(_divisor_entry(ctx, h))
    return GeneratorSet(ctx, interreduce(basis))


class InitialIdeal:
    """Monomial ideal of leading monomials, kept by minimal generators."""

    __slots__ = ("ctx", "generators")

    def __init__(self, ctx: RingContext, monomials):
        mons = list(monomials)
        for m in mons:
            if m.ctx is not ctx and m.ctx != ctx:
                raise ContextMismatchError("monomial from a different ring context")
        minimal = {m for m in mons
                   if not any(o != m and o.divides(m) for o in mons)}
        self.ctx = ctx
        # descending order
        self.generators = tuple(sorted(minimal, key=ctx.order.heap_key))

    def is_normal(self, m: Monomial) -> bool:
        """True when m avoids the ideal, i.e. m is a staircase monomial."""
        return not any(g.divides(m) for g in self.generators)

    def to_json_list(self) -> list[dict[str, int]]:
        return [g.to_json_dict() for g in self.generators]

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


def initial_ideal(gens: GeneratorSet,
                  certificate: GroebnerCertificate | None = None) -> InitialIdeal:
    """Initial ideal of the ideal generated by a verified Groebner basis.

    The set must be a Groebner basis, otherwise its leading monomials
    would not determine the initial ideal; a failed or missing check
    raises NotGroebnerError.
    """
    if certificate is None:
        certificate = is_groebner(gens)
    if not certificate.is_basis:
        raise NotGroebnerError(
            "leading monomials of a non-Groebner set do not span the initial ideal")
    return InitialIdeal(gens.ctx, (f.leading_monomial() for f in gens))
