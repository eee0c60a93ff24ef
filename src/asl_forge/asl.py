"""Straightening-law structure on the quotient by the matrix-product ideal.

The generator residues x_i_j and y_j carry a partial order built from five
chain families; under it, exactly the diagonal pairs (x_i_i, y_i) are
incomparable.  A monomial is standard when its factors are pairwise
comparable, and the two straightening-law axioms reduce to checkable
statements at bounded degree:

  axiom 1: standard monomials coincide with the monomials outside the
           initial ideal, and they form a basis of each degree slice of
           the quotient (both sets are complements of monomial ideals,
           whose minimal generators settle the equality in all degrees;
           the counts come from the poset's chains and the initial
           ideal's Hilbert numerator, the pivots from each slice);
  axiom 2: for each incomparable pair (alpha, beta) of the poset, every
           term of the Groebner normal form of alpha*beta is standard,
           so its factors sort into an ascending chain, and each chain's
           least factor sits below both alpha and beta.

"Standard" is one test for both axioms, ``_is_chain``: a monomial's
support against the poset's comparability bitmasks, which the poset
builds once, in its constructor, along with its up- and down-sets.  Both
checks take the poset itself, whose elements must be the ring's
variables in layout order.

Both checkers return plain-dict reports with a top-level "verdict",
suitable for direct JSON serialization.  ``verify`` runs the whole
pipeline for one pattern and builds each invariant it checks once.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations_with_replacement

from .groebner import (
    GeneratorSet,
    GroebnerCertificate,
    InitialIdeal,
    buchberger,
    initial_ideal,
    is_groebner,
    reduce,
)
from .linalg import staircase
from .matrix_ideal import MatrixPattern, matrix_product_ideal
from .poly_core import CoefficientField, RingContext, Variable, check_size
from .poset import Poset

# Reports that rest on the generator poset carry this note: the bridge
# relations between the y chain and the reversed diagonal chain are read
# as x_(i+1)_(i+1) <= y_i and y_i <= x_(i-1)_(i-1) for 2 <= i <= n-1,
# which is the reading under which exactly the pairs (x_i_i, y_i) come
# out incomparable.
POSET_NOTE = ("bridge relations read as x_(i+1)_(i+1) <= y_i and "
              "y_i <= x_(i-1)_(i-1) for 2 <= i <= n-1; chains are treated "
              "as relations and covers recomputed by transitive reduction")

STRAIGHTENING_SKIP_REASON = (
    "straightening-law verification is defined here only for the generic "
    "pattern; Groebner checks still ran")


def build_poset(n: int) -> Poset:
    """Partial order on the n*n + n variables, diagonal pairs incomparable.

    Generating relations, with consecutive elements chained:
      1. off-diagonal x's in row-major order, then x_n_n <= ... <= x_1_1;
      2. x_n_(n-1) <= y_n <= ... <= y_1;
      3. x_2_2 <= y_1;
      4. y_n <= x_(n-1)_(n-1);
      5. x_(i+1)_(i+1) <= y_i <= x_(i-1)_(i-1) for 2 <= i <= n-1.

    For n = 1 every family is empty and the result is the antichain
    {x_1_1, y_1}.
    """
    check_size(n)
    elements = [Variable.x(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    elements += [Variable.y(j) for j in range(1, n + 1)]

    relations: list[tuple[Variable, Variable]] = []

    def chain(seq: list[Variable]) -> None:
        relations.extend(zip(seq, seq[1:]))

    off_diagonal = [Variable.x(i, j)
                    for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    diagonal_desc = [Variable.x(i, i) for i in range(n, 0, -1)]
    chain(off_diagonal + diagonal_desc)

    if n >= 2:
        chain([Variable.x(n, n - 1)] + [Variable.y(j) for j in range(n, 0, -1)])
        relations.append((Variable.x(2, 2), Variable.y(1)))
        relations.append((Variable.y(n), Variable.x(n - 1, n - 1)))
    for i in range(2, n):
        relations.append((Variable.x(i + 1, i + 1), Variable.y(i)))
        relations.append((Variable.y(i), Variable.x(i - 1, i - 1)))

    return Poset(elements, relations)


def expected_incomparable_pairs(n: int) -> list[tuple[Variable, Variable]]:
    """The diagonal pairs (x_i_i, y_i), the only ones meant to be incomparable."""
    return [(Variable.x(i, i), Variable.y(i)) for i in range(1, n + 1)]


def _check_degree_bound(degree: int) -> None:
    """Raise ValueError unless the degree bound is an int >= 0."""
    if type(degree) is not int:  # True == 1, yet "degree_bound": true is no bound
        raise ValueError(f"degree bound must be an int, not {degree!r}")
    if degree < 0:
        raise ValueError("degree bound must be >= 0")


def _check_poset(ctx: RingContext, poset: Poset) -> None:
    """Raise ValueError unless the poset's elements are the ring's variables."""
    if poset.elements != ctx.variables:
        raise ValueError("poset elements are not the ring's variables "
                         "in layout order")


def count_standard_monomials(n: int, d: int) -> int:
    """Number of standard monomials of exact degree d, by inclusion-exclusion.

    Standard equals normal here, so the count excludes multiples of the n
    pairwise-coprime quadrics x_i_i * y_i from the C(d+N-1, N-1) monomials
    in N = n*n + n variables:

        sum_k (-1)^k C(n, k) C(d - 2k + N - 1, N - 1).
    """
    check_size(n)
    if type(d) is not int:
        raise ValueError(f"degree must be an int, not {d!r}")
    if d < 0:
        return 0
    N = n * n + n
    total = 0
    for k in range(min(n, d // 2) + 1):
        total += (-1) ** k * math.comb(n, k) * math.comb(d - 2 * k + N - 1, N - 1)
    return total


def axiom1_work(n: int, degree_bound: int) -> int:
    """Closed-form size estimate of the axiom-1 check for the generic pattern.

    Per degree d <= degree_bound, the check eliminates n * #(degree d-2
    monomials) Macaulay rows.  The estimate adds the degree-d monomials,
    which no longer measure work done but keep the command line accepting
    exactly what it did; in N = n*n + n variables it is

        sum_d C(d + N - 1, N - 1) + n * C(d + N - 3, N - 1).
    """
    N = n * n + n
    return sum(math.comb(d + N - 1, N - 1)
               + (n * math.comb(d + N - 3, N - 1) if d >= 2 else 0)
               for d in range(degree_bound + 1))


def _is_chain(comparable, exps) -> bool:
    """True when the positions in ``exps`` are pairwise comparable."""
    support, allowed = 0, -1
    for p, _ in exps:
        support |= 1 << p
        allowed &= comparable[p]
    return support & allowed == support


def _chain_counts(poset: Poset, bound: int) -> list[int]:
    """c_1, c_2, ...: the numbers of chains of the poset, by size, to the bound.

    ``tops[v]`` counts the chains of the current size with largest
    element v, so the next size's ``tops[v]`` sums ``tops[u]`` over v's
    strict down-set: bit plane by bit plane, as popcounts of the down-set
    against the elements whose count has that bit set.
    """
    below = [d ^ 1 << v for v, d in enumerate(poset.down)]  # strict down-sets
    tops = [1] * len(below)
    counts = []
    for k in range(bound):
        if k:
            planes = [sum(1 << v for v, t in enumerate(tops) if t >> b & 1)
                      for b in range(max(tops).bit_length())]
            tops = [sum((m & plane).bit_count() << b
                        for b, plane in enumerate(planes)) for m in below]
        counts.append(sum(tops))
        if not counts[-1]:  # no chain of this size, so none larger
            break
    return counts


def _hilbert_numerator(order, packed: list[int], bound: int) -> list[int]:
    """K_0, ..., K_bound of the Hilbert numerator of a monomial ideal.

    ``packed`` holds the ideal's minimal generators as packed vectors.
    The quotient by J has Hilbert series K_J(t) / (1 - t)^N, and
    K(J + (m)) = K(J) - t^deg m * K(J : m), where J : m is spanned by the
    lcm(g, m) / m (Bigatti, JPAA 119, 1997).  An explicit list unfolds
    that split until a set's generators are pairwise coprime, whose
    numerator is the product of the (1 - t^deg g), 0 if one is 1.
    """
    guard = order.guard
    numerator = [0] * (bound + 1)
    work = [(1, 0, packed)]
    while work:
        sign, shift, gens = work.pop()
        seen = 0
        for k, m in enumerate(gens):
            if order.support(m) & seen:
                break
            seen |= order.support(m)
        else:  # pairwise coprime
            terms = [0] * (bound + 1)
            terms[shift] = sign
            for d in map(order.degree, gens):
                for i in range(bound, d - 1, -1):
                    terms[i] -= terms[i - d]
            numerator = [a + b for a, b in zip(numerator, terms)]
            continue
        rest = gens[:k] + gens[k + 1:]
        work.append((sign, shift, rest))
        shift += order.degree(m)
        if shift <= bound:  # J : m, kept minimal
            colon = sorted({order.lcm(g, m) - m for g in rest}, key=order.degree)
            work.append((-sign, shift, [q for j, q in enumerate(colon) if not any(
                ((q | guard) - d) & guard == guard for d in colon[:j])]))
    return numerator


def _ideal_slice(order, field: CoefficientField, gen_terms: list,
                 uncertified: list, divisors: list, degree: int
                 ) -> tuple[int, bool]:
    """Rank of the ideal's degree slice, and whether every pivot is non-normal.

    A Macaulay row is a generator's terms (``gen_terms``) and the key of
    a degree d-2 multiplier q, built only if a later row reduces against
    it.  A pivot is non-normal when it has degree d and a packed
    generator in ``divisors`` divides it.  A pivot still stored unbuilt
    as a generator's own terms is q*LM(g); unless those terms are in
    ``uncertified``, LM(g) is a non-normal quadric, so q*LM(g) is
    non-normal of degree d, and only built pivots and multiples of
    uncertified generators are tested.  The pivot rows are freed on
    return, before the next slice.
    """
    rows = ()
    if degree >= 2:
        rows = ((q, terms)
                for q in map(sum, combinations_with_replacement(order.weights,
                                                                degree - 2))
                for terms in gen_terms)
    pivots = staircase(rows, field)
    guard, s = order.guard, order.tail_bits
    field_mask = (1 << order.field_bits) - 1
    for k, row in pivots.items():
        if type(row) is tuple and row not in uncertified:
            continue  # q*LM(g) for a certified g
        e = k - ((k >> s) << (s + 1))  # order.packed(k), inlined
        if e >> s & field_mask != degree:  # order.degree(e), inlined
            return len(pivots), False
        e |= guard
        for d in divisors:
            if (e - d) & guard == guard:
                break
        else:
            return len(pivots), False
    return len(pivots), True


def _axiom1_degrees(ctx: RingContext, gens: GeneratorSet, init: InitialIdeal,
                    poset: Poset, degree_bound: int) -> list[dict]:
    """Axiom-1 evidence for each degree slice up to the bound.

    Every mismatch is a multiple of a minimal one: a generator of ``init``
    whose support is a chain, or a normal product a*b of an incomparable
    pair of ``poset``.  Those are listed at their degree, and a degree's
    flag holds while none has degree <= it.  The standard count is
    sum_k c_k C(d-1, k-1) over the chain counts c_k of ``poset``, the normal
    count sum_i K_i C(d-i+N-1, N-1) over the Hilbert numerator K of
    ``init``, and the pivot monomials of the ideal's degree slice (row
    echelon over all monomial multiples of the generators) must be as many
    as the non-normal monomials, each non-normal.  A generator's leading
    monomial is certified once when it is a quadric that a generator of
    ``init`` divides; the slices then skip the pivots that are its unbuilt
    multiples.  The order's bound is checked before any slice.
    """
    order = ctx.order
    order.check_degree(degree_bound)
    divisors = init.packed
    gen_terms = [tuple((order.heap_key(m), c) for c, m in g.terms) for g in gens]
    guard = order.guard
    uncertified = []
    for terms in gen_terms:
        lead = order.packed(terms[0][0])
        if not (order.degree(lead) == 2
                and any(((lead | guard) - d) & guard == guard for d in divisors)):
            uncertified.append(terms)
    nv = len(ctx.variables)
    chains = _chain_counts(poset, degree_bound)
    numerator = _hilbert_numerator(order, divisors, degree_bound)
    comparable = poset.comparable_masks
    mismatches = [g for g in init if _is_chain(comparable, g.exps)]
    mismatches += [m for m in (ctx.monomial({a: 1, b: 1})
                               for a, b in poset.incomparable_pairs())
                   if init.is_normal(m)]
    lowest = min((m.total_degree for m in mismatches), default=degree_bound + 1)
    reports = []
    for degree in range(degree_bound + 1):
        total = math.comb(degree + nv - 1, nv - 1)
        standard = (sum(c * math.comb(degree - 1, k) for k, c in enumerate(chains))
                    if degree else 1)
        normal = sum(c * math.comb(degree - i + nv - 1, nv - 1)
                     for i, c in enumerate(numerator[:degree + 1]) if c)
        rank, pivots_non_normal = _ideal_slice(order, ctx.field, gen_terms,
                                               uncertified, divisors, degree)
        expected = count_standard_monomials(ctx.n, degree)
        reports.append({
            "degree": degree,
            "monomials": total,
            "standard": standard,
            "normal": normal,
            "standard_equals_normal": degree < lowest,
            "mismatches": sorted([str(m) for m in mismatches
                                  if m.total_degree == degree]),
            "count_formula": expected,
            "count_matches": standard == expected,
            "ideal_slice_rank": rank,
            "basis_check": rank == total - normal and pivots_non_normal,
        })
    return reports


def verify_axiom1(certificate: GroebnerCertificate, init: InitialIdeal | None,
                  poset: Poset, degree_bound: int) -> dict:
    """Check freeness on standard monomials, degree by degree up to a bound.

    ``certificate`` is the pair check of the generic product generators,
    which it carries as its ``basis``, ``init`` their initial ideal (None
    when the check failed) and ``poset`` the variable poset, read through
    its bitmasks.  Standard and normal are compared in every degree at
    once, through the minimal generators of the two monomial ideals they
    complement; each degree d lists the minimal mismatches of degree d
    (every mismatch is a multiple of a listed one), and its
    "standard_equals_normal" says they agree in every degree up to d.
    The verdict fails exactly when some mismatch has degree <= the bound.
    Per degree, too, the standard count matches the closed form, and
    eliminating the slice spanned by all degree-d multiples of the
    generators yields pivot monomials exactly equal to the non-normal
    set, so the standard residues are linearly independent and spanning.
    A poset on other elements than the ring's variables raises ValueError.
    """
    _check_degree_bound(degree_bound)
    gens = certificate.basis
    ctx = gens.ctx
    _check_poset(ctx, poset)
    per_degree = []
    if certificate.is_basis:
        per_degree = _axiom1_degrees(ctx, gens, init, poset, degree_bound)
    ok = (certificate.is_basis
          and all(d["standard_equals_normal"] and d["count_matches"]
                  and d["basis_check"] for d in per_degree))
    return {
        "verdict": "pass" if ok else "fail",
        "check": "standard monomials form a basis up to the degree bound",
        "n": ctx.n,
        "degree_bound": degree_bound,
        "field": ctx.field.name,
        "poset_note": POSET_NOTE,
        "groebner_verified": certificate.is_basis,
        "degrees": per_degree,
    }


def verify_axiom2(certificate: GroebnerCertificate, poset: Poset) -> dict:
    """Check the straightening condition for every incomparable pair.

    ``certificate`` is the pair check of the generic product generators,
    which it carries as its ``basis``, and ``poset`` the variable poset;
    the normal forms below are taken by that basis.  For each of its
    incomparable pairs (alpha, beta), every term of the normal form of
    alpha*beta must be standard (its factors pairwise comparable, so they
    sort into an ascending chain: along a chain, a larger element has
    fewer elements above it), the least factor of each chain must lie
    below both alpha and beta, and the product minus the expansion
    rebuilt from the chains must reduce to zero, so the identity holds in
    the quotient.  A poset on other elements than the ring's variables
    raises ValueError.
    """
    gens = certificate.basis
    ctx = gens.ctx
    _check_poset(ctx, poset)
    variables, comparable = ctx.variables, poset.comparable_masks
    above = [u.bit_count() for u in poset.up]
    pairs = poset.incomparable_pairs()
    pairs_ok = ({frozenset(p) for p in pairs}
                == {frozenset(p) for p in expected_incomparable_pairs(ctx.n)})
    entries = []
    all_ok = certificate.is_basis and pairs_ok
    for alpha, beta in pairs:
        product = ctx.polynomial({ctx.monomial({alpha: 1, beta: 1}): 1})
        expansion = []
        non_standard = None
        for c, m in reduce(product, gens).terms:
            if not _is_chain(comparable, m.exps):
                non_standard = m
                break
            factors = sorted(m.exps, key=lambda f: -above[f[0]])
            expansion.append((c, [variables[p] for p, e in factors
                                  for _ in range(e)]))
        if non_standard is not None:
            entries.append({"alpha": alpha.name, "beta": beta.name,
                            "status": "fail",
                            "non_standard_term": str(non_standard)})
            all_ok = False
            continue

        minima = [chain[0] for _, chain in expansion if chain]
        below_alpha = all(poset.leq(v, alpha) for v in minima)
        below_beta = all(poset.leq(v, beta) for v in minima)

        # rebuild the expansion as a polynomial and confirm membership
        rebuilt = ctx.polynomial({ctx.monomial(Counter(chain)): c
                                  for c, chain in expansion})
        residual = reduce(product - rebuilt, gens)

        entry_ok = below_alpha and below_beta and not residual
        all_ok = all_ok and entry_ok
        entries.append({
            "alpha": alpha.name,
            "beta": beta.name,
            "status": "pass" if entry_ok else "fail",
            "expansion": [{"c": str(c), "chain": [v.name for v in chain]}
                          for c, chain in expansion],
            "minimal_factors": [v.name for v in minima],
            "minimal_below_alpha": below_alpha,
            "minimal_below_beta": below_beta,
            "difference_reduces_to_zero": not residual,
        })

    return {
        "verdict": "pass" if all_ok else "fail",
        "check": "incomparable products straighten below both factors",
        "n": ctx.n,
        "field": ctx.field.name,
        "poset_note": POSET_NOTE,
        "groebner_verified": certificate.is_basis,
        "incomparable_pairs": [[a.name, b.name] for a, b in pairs],
        "incomparable_as_expected": pairs_ok,
        "relations": entries,
    }


def verify(pattern: MatrixPattern, degree: int,
           field: CoefficientField | None = None) -> dict:
    """The full verification report for one pattern, field and degree bound.

    Each invariant is built once and passed down: the generators (for a
    zero pattern, their Buchberger completion), one pair certificate that
    carries them, the initial ideal and, for the generic pattern only,
    the variable poset, whose bitmasks both axiom checks read; the poset
    section restates the axiom-2 report's incomparable pairs and their
    check.  The verdict passes when every section passes or is
    skipped.  Certificates, bases, pairs and initial-ideal generators are
    library objects, not dicts.
    """
    _check_degree_bound(degree)
    ctx, gens = matrix_product_ideal(pattern, field)
    completed = pattern.kind == "zero_pattern"
    if completed:
        gens = buchberger(gens)
    certificate = is_groebner(gens)

    groebner = {"status": "pass" if certificate.is_basis else "fail",
                "checked": "completed basis" if completed else "generators"}
    if completed:
        groebner["basis"] = list(gens)
    groebner["certificate"] = certificate
    sections: dict = {"groebner": groebner}

    init = None
    if certificate.is_basis:
        init = initial_ideal(certificate)
        section = {"status": "pass", "generators": list(init)}
        if not completed:
            expected = [ctx.monomial({a: 1, b: 1})
                        for a, b in expected_incomparable_pairs(ctx.n)]
            init_ok = list(init) == sorted(expected, key=ctx.order.heap_key)
            section["status"] = "pass" if init_ok else "fail"
            section["equals_diagonal_products"] = init_ok
    else:
        section = {"status": "fail",
                   "reason": ("completion failed the pair check" if completed
                              else "generators are not a basis")}
    sections["initial_ideal"] = section

    if pattern.kind == "generic":
        poset = build_poset(ctx.n)
        axiom2 = verify_axiom2(certificate, poset)
        pairs_ok = axiom2["incomparable_as_expected"]
        sections["poset"] = {
            "status": "pass" if pairs_ok else "fail",
            "note": POSET_NOTE,
            "elements": len(poset),
            "incomparable_pairs": axiom2["incomparable_pairs"],
            "only_diagonal_pairs_incomparable": pairs_ok,
        }
        sections["axiom1"] = verify_axiom1(certificate, init, poset, degree)
        sections["axiom2"] = axiom2
    else:
        skipped = {"status": "skipped", "reason": STRAIGHTENING_SKIP_REASON}
        sections.update(poset=skipped, axiom1=skipped, axiom2=skipped)

    ok = all(s.get("verdict", s.get("status")) in ("pass", "skipped")
             for s in sections.values())
    return {
        "verdict": "pass" if ok else "fail",
        "n": ctx.n,
        "pattern": pattern.to_json_dict(),
        "field": ctx.field.name,
        "degree_bound": degree,
        "sections": sections,
    }
