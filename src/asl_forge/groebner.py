"""Buchberger-style Groebner machinery over the block-ordered ring.

Division here always performs full tail reduction: every term of the
remainder, not just the leading one, is irreducible by the divisors.  That
makes ``reduce`` a genuine normal-form map when the divisors are a Groebner
basis, and it is what the straightening computations downstream rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

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
            if f.ctx != ctx:
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


def divide(f: Polynomial, divisors) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division: f = sum(q_k * divisors[k]) + r.

    No monomial of r is divisible by any divisor's leading monomial.  At
    each step the first divisor (in list order) whose leading monomial
    divides the current working monomial is used, which makes the quotients
    deterministic.
    """
    ctx = f.ctx
    divisors = list(divisors)
    for g in divisors:
        if g.ctx != ctx:
            raise ContextMismatchError("divisor from a different ring context")
        if not g:
            raise ZeroPolynomialError("cannot divide by the zero polynomial")
    leads = [(g.leading_coefficient(), g.leading_monomial()) for g in divisors]
    quotients = [ctx.zero for _ in divisors]
    remainder_terms: list[tuple[object, Monomial]] = []
    work = f
    while work:
        c, m = work.leading_term()
        for k, (lc, lm) in enumerate(leads):
            if lm.divides(m):
                q = m.div(lm)
                coeff = c / lc
                quotients[k] = quotients[k] + ctx.polynomial({q: coeff})
                work = work - divisors[k].mul_term(coeff, q)
                break
        else:
            remainder_terms.append((c, m))
            work = Polynomial(ctx, work.terms[1:])
    # work's terms stay descending, so collected remainder terms already are
    return quotients, Polynomial(ctx, tuple(remainder_terms))


def reduce(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under full tail reduction by the given polynomials."""
    _, r = divide(f, basis)
    return r


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) = (L/LT(f)) f - (L/LT(g)) g with L = lcm(LM(f), LM(g))."""
    if f.ctx != g.ctx:
        raise ContextMismatchError("polynomials from different ring contexts")
    cf, mf = f.leading_term()
    cg, mg = g.leading_term()
    L = mf.lcm(mg)
    one = f.ctx.field.one
    return f.mul_term(one / cf, L.div(mf)) - g.mul_term(one / cg, L.div(mg))


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
    key = current[0].ctx.order.sort_key
    current.sort(key=lambda f: key(f.leading_monomial()), reverse=True)
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
    against the full set.
    """
    polys = list(gens)
    records: list[SPairRecord] = []
    ok = True
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            la = polys[a].leading_monomial()
            lb = polys[b].leading_monomial()
            if la.is_coprime_with(lb):
                records.append(SPairRecord(a, b, "coprime", True))
                continue
            r = reduce(s_polynomial(polys[a], polys[b]), polys)
            zero = not r
            ok = ok and zero
            records.append(SPairRecord(a, b, "reduced", zero))
    return GroebnerCertificate(ok, tuple(records), tuple(polys))


def buchberger(gens: GeneratorSet) -> GeneratorSet:
    """Compute the reduced Groebner basis of the ideal the set generates.

    Pairs are processed in ascending (lcm degree, i, j) order, which makes
    the run deterministic; coprime leading monomials are skipped without
    division.
    """
    ctx = gens.ctx
    basis = interreduce(list(gens))
    pending = {(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))}

    def pair_rank(pair: tuple[int, int]):
        a, b = pair
        lcm = basis[a].leading_monomial().lcm(basis[b].leading_monomial())
        return (lcm.total_degree, a, b)

    while pending:
        a, b = min(pending, key=pair_rank)
        pending.discard((a, b))
        la = basis[a].leading_monomial()
        lb = basis[b].leading_monomial()
        if la.is_coprime_with(lb):
            continue
        r = reduce(s_polynomial(basis[a], basis[b]), basis)
        if not r:
            continue
        basis.append(r.monic())
        new = len(basis) - 1
        pending.update((k, new) for k in range(new))
    final = interreduce(basis)
    return GeneratorSet(ctx, final)


class InitialIdeal:
    """Monomial ideal of leading monomials, kept by minimal generators."""

    __slots__ = ("ctx", "generators")

    def __init__(self, ctx: RingContext, monomials):
        mons = list(monomials)
        for m in mons:
            if m.ctx != ctx:
                raise ContextMismatchError("monomial from a different ring context")
        minimal = [m for m in mons
                   if not any(o != m and o.divides(m) for o in mons)]
        # drop duplicates, keep descending order
        seen: list[Monomial] = []
        for m in sorted(minimal, key=ctx.order.sort_key, reverse=True):
            if m not in seen:
                seen.append(m)
        self.ctx = ctx
        self.generators = tuple(seen)

    def contains_monomial(self, m: Monomial) -> bool:
        return any(g.divides(m) for g in self.generators)

    def is_normal(self, m: Monomial) -> bool:
        """True when m avoids the ideal, i.e. m is a staircase monomial."""
        return not self.contains_monomial(m)

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
