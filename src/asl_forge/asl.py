"""Straightening-law structure on the quotient by the matrix-product ideal.

The generator residues x_i_j and y_j carry a partial order built from five
chain families; under it, exactly the diagonal pairs (x_i_i, y_i) are
incomparable.  A monomial is standard when its factors are pairwise
comparable, and the two straightening-law axioms reduce to checkable
statements at bounded degree:

  axiom 1: standard monomials coincide with the monomials outside the
           initial ideal, and they form a basis of each degree slice of
           the quotient (a depth-first walk counts each monomial up to
           the degree bound once, as bitmasks over its last variable,
           and expands each distinct subtree state once; sparse
           elimination on each slice of the ideal gives the pivots);
  axiom 2: for each incomparable pair (alpha, beta) of the poset, every
           term of the Groebner normal form of alpha*beta is standard,
           so its factors sort into an ascending chain, and each chain's
           least factor sits below both alpha and beta.

"Standard" is one test for both axioms: a monomial's support against the
poset's comparability bitmasks, which the poset builds once, in its
constructor, along with its up-sets.  Both checks take the poset itself,
whose elements must be the ring's variables in layout order.

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
from .poly_core import CoefficientField, RingContext, Variable
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
    if n < 1:
        raise ValueError("matrix size n must be >= 1")
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


def _check_poset(ctx: RingContext, poset: Poset) -> None:
    """Raise ValueError unless the poset's elements are the ring's variables."""
    if poset.elements != ctx.variables:
        raise ValueError("poset elements are not the ring's variables "
                         "in layout order")


def _only_diagonal(pairs: tuple[tuple, ...], n: int) -> bool:
    """Whether the pairs are exactly the diagonal pairs (x_i_i, y_i)."""
    expected = expected_incomparable_pairs(n)
    return {frozenset(p) for p in pairs} == {frozenset(p) for p in expected}


def count_standard_monomials(n: int, d: int) -> int:
    """Number of standard monomials of exact degree d, by inclusion-exclusion.

    Standard equals normal here, so the count excludes multiples of the n
    pairwise-coprime quadrics x_i_i * y_i from the C(d+N-1, N-1) monomials
    in N = n*n + n variables:

        sum_k (-1)^k C(n, k) C(d - 2k + N - 1, N - 1).
    """
    if n < 1:
        raise ValueError("matrix size n must be >= 1")
    if d < 0:
        return 0
    N = n * n + n
    total = 0
    for k in range(min(n, d // 2) + 1):
        total += (-1) ** k * math.comb(n, k) * math.comb(d - 2 * k + N - 1, N - 1)
    return total


def axiom1_work(n: int, degree_bound: int) -> int:
    """Closed-form size of the axiom-1 check for the generic n-by-n pattern.

    Per degree d <= degree_bound, the check counts each degree-d monomial
    (expanding only distinct walk states) and eliminates n * #(degree d-2
    monomials) Macaulay rows, so in N = n*n + n variables the work is

        sum_d C(d + N - 1, N - 1) + n * C(d + N - 3, N - 1).
    """
    N = n * n + n
    return sum(math.comb(d + N - 1, N - 1)
               + (n * math.comb(d + N - 3, N - 1) if d >= 2 else 0)
               for d in range(degree_bound + 1))


def _walk(order, init: InitialIdeal, comparable: list[int],
          degree_bound: int) -> list[list]:
    """Per degree d <= degree_bound: [monomials, standard, non-normal, mismatches].

    A depth-first walk over the nondecreasing sequences of variable
    positions counts each monomial of degree at most the bound once.  A
    node's loop makes each child m = x_p*node and counts m's children
    x_q*m, q >= p, at once as bitmasks over q; the root, the monomial 1,
    is the only child of a sentinel at depth -1.  With symmetric masks,
    x_q*m is standard exactly when m is (bit p of the node's standard
    mask) and q is comparable to m's variables (q is in ``allowed``) and
    to itself.  Below a non-normal m every x_q*m is non-normal; below a
    normal one, x_q*m is when g/x_q divides m for a generator g of
    ``init``.  A quotient that is one variable x_v sets bit q of
    ``partners[v]``, and a normal node's ``near`` is the OR of
    ``partners`` over its support (-1 for a non-normal node); every other
    quotient keeps the exact guard-bit test.

    Each distinct state is expanded once.  A node's subtree reads only
    its key: position p, depth, the standard, ``allowed``, ``near`` and
    non-normal masks cut to the positions >= p, and the exponent vector
    on the fields the guard-bit tests read (none for the generic initial
    ideal).  A key's result is relative to its node: one int of
    ``width``-bit count fields, three per level from its grandchildren
    down, its own mismatches as offsets from its exponent vector, and its
    children with mismatches below.  An explicit post-order stack adds
    each pushed child's counts one level down; the mismatches are
    unfolded once, from the sentinel, each shifted by the steps to its
    node.  A node pushes only the children whose children have children
    within the bound.  Mismatches are packed vectors, placed by degree.
    Asymmetric masks raise ValueError.
    """
    nv = len(order.weights)
    if any((comparable[p] >> q ^ comparable[q] >> p) & 1
           for p in range(nv) for q in range(p + 1, nv)):
        raise ValueError("comparability masks are not symmetric")
    guard = order.guard
    packed = [order.packed(w) for w in order.weights]
    single = {e: v for v, e in enumerate(packed)}
    self_comparable = sum(1 << p for p in range(nv) if comparable[p] >> p & 1)
    spans = [((1 << nv) - 1) >> first << first for first in range(nv)]
    partners = [0] * nv  # partners[v]: the p with g/x_p = x_v for some g
    quotients = []
    reads = 0  # guard bits of the fields that the guard-bit tests read
    for g, e in zip(init.generators, init.packed):
        for p, _ in g.exps:
            d = e - packed[p]  # g/x_p
            v = single.get(d)
            if v is None:
                quotients.append((d, p))
                reads |= order.support(d)
            else:
                partners[v] |= 1 << p
    reads -= reads >> (order.field_bits - 1)  # ... widened to their values
    tests = [[(d, 1 << p) for d, p in quotients if p >= first]
             for first in range(nv)]
    # a child x_p*m: position, step, mask, partners, the cut to positions
    # >= p, and the positions of its children, all and self-comparable ones
    nodes = [(p, packed[p], comparable[p] & -1 << p, partners[p], -1 << p,
              spans[p], self_comparable & spans[p]) for p in range(nv)]
    suffixes = [nodes[p:] for p in range(nv)]
    normal = all(g.exps for g in init.generators)  # else 1 is in the ideal
    width = math.comb(degree_bound + nv - 1, nv - 1).bit_length()
    # the sentinel: children [root], e 0, standard children [root],
    # allowed -1, near 0, and non-normal children [root] if 1 is in the ideal
    top = (0, -1, 1, -1, 0, int(not normal), 0)
    root = [(0, 0, -1, 0, -1, spans[0], self_comparable)]
    stack = [(top, 0, root)] if degree_bound else []
    kept = {}
    while stack:
        key, e, children = stack.pop()
        if e is None:  # every pushed child's result is kept: add them in
            counts, mismatches, kids = children
            below = []  # the children with mismatches in their subtrees
            for kid, step in kids:
                kid_counts, kid_below = kept[kid]
                counts += kid_counts << 3 * width  # one level down
                if kid_below:
                    below.append((kid_below, step))
            kept[key] = counts, (mismatches, below) if mismatches or below else None
            continue
        if key in kept:
            continue
        _, depth, standard, allowed, near, non_normal, _ = key
        depth += 1  # the children's degree
        push = depth + 1 < degree_bound
        total = std_count = non_normal_count = 0
        mismatches, kids, mark = [], [], len(stack)
        for p, step, comp, partner, cut, span, std_span in children:
            child_allowed = allowed & comp
            # a non-normal child's near is -1
            child_near = (near | partner) & cut | -(non_normal >> p & 1)
            std = child_allowed & std_span if standard >> p & 1 else 0
            child_non_normal = child_near & span
            if quotients and child_near >= 0:
                eg = (e + step) | guard
                for d, q_bit in tests[p]:
                    if (eg - d) & guard == guard:
                        child_non_normal |= q_bit
            total += nv - p
            std_count += std.bit_count()
            non_normal_count += child_non_normal.bit_count()
            mismatched = std ^ (span & ~child_non_normal)
            while mismatched:
                q_bit = mismatched & -mismatched
                mismatches.append(step + packed[q_bit.bit_length() - 1])
                mismatched ^= q_bit
            if push:
                kid = (p, depth, std, child_allowed, child_near,
                       child_non_normal, (e + step) & reads)
                kids.append((kid, step))
                if kid not in kept:
                    stack.append((kid, e + step, suffixes[p]))
        counts = total | std_count << width | non_normal_count << 2 * width
        stack.insert(mark, (key, None, (counts, mismatches, kids)))
    counts, below = kept.get(top, (0, None))
    stats = [[1, 1, int(not normal), [] if normal else [0]]]
    stats += [[counts >> width * k & (1 << width) - 1
               for k in range(3 * d, 3 * d + 3)] + [[]]
              for d in range(degree_bound)]
    unfold = [(below, 0)] if below else []  # in pre-order, as they were found
    while unfold:
        (mismatches, below), offset = unfold.pop()
        for o in mismatches:
            stats[order.degree(o + offset)][3].append(o + offset)
        unfold += [(kid_below, offset + step) for kid_below, step in reversed(below)]
    return stats


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
                    comparable: list[int], degree_bound: int) -> list[dict]:
    """Axiom-1 evidence for each degree slice up to the bound.

    Standard must match normal monomial-by-monomial, the standard count
    must match the closed form, and the pivot monomials of the ideal's
    degree slice (row echelon over all monomial multiples of the
    generators) must be exactly the non-normal monomials: as many of
    them, each non-normal.  Together these say the standard monomials
    are a basis of the slice of the quotient.  "Standard" is read off
    ``comparable``, one comparability bitmask per variable, and "normal"
    off the generators of ``init``.  Each generator is tested once: its
    leading monomial is certified when it is a quadric that a generator
    of ``init`` divides, and the slices then skip the pivots that are
    its unbuilt multiples.  The order's bound is checked once, for the
    top degree, before any key is summed.
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
    reports = []
    for degree, (total, standard, non_normal, mismatches) in enumerate(
            _walk(order, init, comparable, degree_bound)):
        rank, pivots_non_normal = _ideal_slice(order, ctx.field, gen_terms,
                                               uncertified, divisors, degree)
        expected = count_standard_monomials(ctx.n, degree)
        reports.append({
            "degree": degree,
            "monomials": total,
            "standard": standard,
            "normal": total - non_normal,
            "standard_equals_normal": not mismatches,
            "mismatches": sorted([str(order.monomial(order.packed(e)))
                                  for e in mismatches]),
            "count_formula": expected,
            "count_matches": standard == expected,
            "ideal_slice_rank": rank,
            "basis_check": rank == non_normal and pivots_non_normal,
        })
    return reports


def verify_axiom1(certificate: GroebnerCertificate, init: InitialIdeal | None,
                  poset: Poset, degree_bound: int) -> dict:
    """Check freeness on standard monomials, degree by degree up to a bound.

    ``certificate`` is the pair check of the generic product generators,
    which it carries as its ``basis``, ``init`` their initial ideal (None
    when the check failed) and ``poset`` the variable poset, read through
    its comparability bitmasks.  Per degree d <= degree_bound: every
    monomial is standard iff it is normal; the number of standard
    monomials matches the closed form; and eliminating the slice spanned
    by all degree-d multiples of the generators yields pivot monomials
    exactly equal to the non-normal set, so the standard residues are
    linearly independent and spanning.  A poset on other elements than
    the ring's variables raises ValueError.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be >= 0")
    gens = certificate.basis
    ctx = gens.ctx
    _check_poset(ctx, poset)
    per_degree = []
    if certificate.is_basis:
        per_degree = _axiom1_degrees(ctx, gens, init, poset.comparable_masks,
                                     degree_bound)
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
    pairs_ok = _only_diagonal(pairs, ctx.n)
    entries = []
    all_ok = certificate.is_basis and pairs_ok
    for alpha, beta in pairs:
        product = ctx.polynomial({ctx.monomial({alpha: 1, beta: 1}): 1})
        expansion = []
        non_standard = None
        for c, m in reduce(product, gens).terms:
            support, allowed = 0, -1
            for p, _ in m.exps:
                support |= 1 << p
                allowed &= comparable[p]
            if support & allowed != support:
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
    the variable poset, whose bitmasks the poset section and both axiom
    checks read.  The verdict passes when every section passes or is
    skipped.  Certificates, bases, pairs and initial-ideal generators are
    library objects, not dicts.
    """
    if degree < 0:
        raise ValueError("degree bound must be >= 0")
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
            expected = [ctx.monomial({ctx.x(i, i): 1, ctx.y(i): 1})
                        for i in range(1, ctx.n + 1)]
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
        pairs = poset.incomparable_pairs()
        pairs_ok = _only_diagonal(pairs, ctx.n)
        sections["poset"] = {
            "status": "pass" if pairs_ok else "fail",
            "note": POSET_NOTE,
            "elements": len(poset),
            "incomparable_pairs": [[a.name, b.name] for a, b in pairs],
            "only_diagonal_pairs_incomparable": pairs_ok,
        }
        sections["axiom1"] = verify_axiom1(certificate, init, poset, degree)
        sections["axiom2"] = verify_axiom2(certificate, poset)
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
