"""Reference implementations the tests compare against.

Everything here recomputes results through a different route than the
library: networkx for closure and transitive reduction, dense exponent
tuples plus hand-rolled elimination for ideal membership and slice
ranks, a dict-and-max division loop and a completion that reduces every
pair, direct divisibility scans for standard-monomial counting,
inclusion-exclusion over generator lcms for Hilbert functions, trial
division for primality, and a reader of the JSON polynomial form by
variable name.  Rationals only, except for the report forms: plain dicts
and lists that the library objects in a report stand for, built without
the library's emitter, so ``json.dumps(report_json(r), indent=2)`` is the
reference text of a report r.
"""

from fractions import Fraction
from functools import cmp_to_key
from heapq import heapify, heappop, heappush
from itertools import combinations, combinations_with_replacement
from math import comb

import networkx as nx

from asl_forge import GroebnerCertificate, Monomial, Polynomial, SPairRecord


# ---------------------------------------------------------------- posets

def closure(elements, relations):
    g = nx.DiGraph()
    g.add_nodes_from(elements)
    g.add_edges_from((a, b) for a, b in relations if a != b)
    return nx.transitive_closure(g, reflexive=False)

def incomparable_pairs(elements, relations):
    tc = closure(elements, relations)
    elems = list(elements)
    out = []
    for k, a in enumerate(elems):
        for b in elems[k + 1:]:
            if not tc.has_edge(a, b) and not tc.has_edge(b, a):
                out.append((a, b))
    return out

def cover_edges(elements, relations):
    tc = closure(elements, relations)
    return set(nx.transitive_reduction(tc).edges())


# ---------------------------------------------- dense exponent universe

def dense_monomials(nvars, degree):
    """All exponent tuples of the given total degree, enumeration order."""
    if degree < 0:
        return
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for p in combo:
            e[p] += 1
        yield tuple(e)

def monomials_of_degree(ctx, d):
    """All degree-d library monomials of the ring, in enumeration order."""
    variables = ctx.variables
    for e in dense_monomials(len(variables), d):
        yield ctx.monomial({variables[p]: k for p, k in enumerate(e) if k})

def to_dense(monomial, nvars):
    e = [0] * nvars
    for p, k in monomial.exps:
        e[p] = k
    return tuple(e)

def divides(a, b):
    return all(x <= y for x, y in zip(a, b))

def monomial_divides(a, b):
    """Divisibility of two library monomials, read off dense exponents."""
    nv = len(a.ctx.variables)
    return divides(to_dense(a, nv), to_dense(b, nv))

def monomial_lcm(a, b):
    """The library monomial with the field-wise max of a's and b's exponents."""
    ctx, nv = a.ctx, len(a.ctx.variables)
    return ctx.monomial({ctx.variables[p]: max(x, y) for p, (x, y)
                         in enumerate(zip(to_dense(a, nv), to_dense(b, nv)))})

def monomial_mul(a, b):
    """The library monomial with the summed exponents of a and b (one ring)."""
    ctx, nv = a.ctx, len(a.ctx.variables)
    assert b.ctx == ctx
    return ctx.monomial({ctx.variables[p]: x + y for p, (x, y)
                         in enumerate(zip(to_dense(a, nv), to_dense(b, nv)))})

def term_multiple(f, c, m):
    """The library polynomial c*m*f, assembled term by term from dense sums."""
    ctx = f.ctx
    c = ctx.field.coerce(c)
    return ctx.polynomial({monomial_mul(tm, m): tc * c for tc, tm in f.terms})

def coprime(a, b):
    """No variable occurs in both library monomials: the field-wise min is 0."""
    nv = len(a.ctx.variables)
    return not any(min(x, y) for x, y in zip(to_dense(a, nv), to_dense(b, nv)))


# --------------------------------------------------- block order, again

def block_compare(ctx, a, b):
    """The documented order, recomputed by first-differing-position scans."""
    nv = len(ctx.variables)
    return dense_compare(ctx, to_dense(a, nv), to_dense(b, nv))


# --------------------------------------------- sparse tuple elimination

def eliminate(rows, choose_pivot):
    """Echelonize dict rows keyed by exponent tuple; {pivot: unit row}."""
    pivots = {}
    for raw in rows:
        row = dict(raw)
        pivot = None
        while row:
            pivot = choose_pivot(row)
            hit = pivots.get(pivot)
            if hit is None:
                break
            factor = row[pivot]
            for col, c in hit.items():
                s = row.get(col, Fraction(0)) - factor * c
                if s:
                    row[col] = s
                else:
                    row.pop(col, None)
        if not row:
            continue
        inv = row[pivot]
        pivots[pivot] = {col: c / inv for col, c in row.items()}
    return pivots

def slice_rows(ctx, gens, degree):
    """Dense-keyed rows spanning the ideal's slice of the given degree.

    Requires homogeneous generators; each row is one monomial multiple
    of one generator, assembled directly from exponent tuples.
    """
    nv = len(ctx.variables)
    rows = []
    for g in gens:
        if not g:
            continue
        gdeg = g.terms[0][1].total_degree
        assert all(m.total_degree == gdeg for _, m in g.terms), "inhomogeneous"
        for mult in dense_monomials(nv, degree - gdeg):
            row = {}
            for c, m in g.terms:
                col = tuple(x + y for x, y in zip(mult, to_dense(m, nv)))
                row[col] = row.get(col, Fraction(0)) + Fraction(c)
            rows.append(row)
    return rows

def is_member(ctx, gens, f):
    """Ideal membership for f with homogeneous generators, bounded degree.

    Splits f into homogeneous components and checks each against the
    echelonized slice, eliminating smallest-tuple columns first.
    """
    if not f:
        return True
    nv = len(ctx.variables)
    components = {}
    for c, m in f.terms:
        comp = components.setdefault(m.total_degree, {})
        comp[to_dense(m, nv)] = Fraction(c)
    for degree, vec in components.items():
        pivots = eliminate(slice_rows(ctx, gens, degree), min)
        vec = dict(vec)
        while vec:
            low = min(vec)
            hit = pivots.get(low)
            if hit is None:
                return False
            factor = vec[low]
            for col, c in hit.items():
                s = vec.get(col, Fraction(0)) - factor * c
                if s:
                    vec[col] = s
                else:
                    vec.pop(col, None)
    return True

def dense_compare(ctx, ea, eb):
    """The documented block order on raw exponent tuples.

    Exponents of the diagonal variables the ring has, lexicographically
    and in layout order, first; on ties, tail degree,
    then reverse lex: more of the least differing tail variable means
    the smaller monomial.
    """
    diag = [p for p, v in enumerate(ctx.variables)
            if v.kind == "x" and v.i == v.j]
    for p in diag:
        if ea[p] != eb[p]:
            return 1 if ea[p] > eb[p] else -1
    rest = [p for p in range(len(ea)) if p not in diag]
    da = sum(ea[p] for p in rest)
    db = sum(eb[p] for p in rest)
    if da != db:
        return 1 if da > db else -1
    for p in rest:
        if ea[p] != eb[p]:
            return -1 if ea[p] > eb[p] else 1
    return 0

def _pivots_descending(ctx, rows):
    """Pivot exponent tuples of the rows, choosing order-largest columns."""
    def choose(row):
        best = None
        for col in row:
            if best is None or dense_compare(ctx, col, best) > 0:
                best = col
        return best
    return set(eliminate(rows, choose))

def slice_pivots_descending(ctx, gens, degree):
    """Pivot exponent tuples of the slice, choosing order-largest columns."""
    return _pivots_descending(ctx, slice_rows(ctx, gens, degree))

def macaulay_pivots_descending(ctx, gens, degree):
    """Pivots of every generator times every monomial of degree d-2.

    These are the rows the axiom-1 check eliminates for degree d, which
    assumes quadric generators: for quadrics the result is the slice's
    pivot set, and a cubic's rows have degree d+1.
    """
    rows = [row for g in gens if g
            for row in slice_rows(ctx, [g], degree - 2 + g.terms[0][1].total_degree)]
    return _pivots_descending(ctx, rows)


# ----------------------------------------------- division and completion

def dense_poly(ctx, f):
    """{exponent tuple: Fraction} for a library polynomial."""
    nv = len(ctx.variables)
    return {to_dense(m, nv): Fraction(c) for c, m in f.terms}

def dense_divide(ctx, f, divisors):
    """Multivariate division of dense polynomials: (quotients, remainder).

    f and the divisors are {exponent tuple: coefficient} dicts.  Each step
    takes the largest remaining term by `max` under `dense_compare` and
    cancels it with the first divisor, in list order, whose leading
    exponent divides it; otherwise the term moves to the remainder.
    """
    key = cmp_to_key(lambda a, b: dense_compare(ctx, a, b))
    leads = [max(g, key=key) for g in divisors]
    quotients = [{} for _ in divisors]
    remainder = {}
    work = dict(f)
    while work:
        m = max(work, key=key)
        c = work[m]
        for k, lead in enumerate(leads):
            if divides(lead, m):
                q = tuple(a - b for a, b in zip(m, lead))
                coeff = c / divisors[k][lead]
                quotients[k][q] = coeff
                for gm, gc in divisors[k].items():
                    t = tuple(a + b for a, b in zip(q, gm))
                    s = work.get(t, Fraction(0)) - coeff * gc
                    if s:
                        work[t] = s
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[m] = c
            del work[m]
    return quotients, remainder

def monomial_json(m):
    """A monomial's report form: {variable name: exponent}, layout order."""
    return {v.name: e for v, e in m.factors()}

def polynomial_json(f):
    """A polynomial's report form: its terms, descending, as {"c", "m"}."""
    return [{"c": str(c), "m": monomial_json(m)} for c, m in f.terms]

def pair_json(p):
    """An S-pair record's report form."""
    return {"i": p.i, "j": p.j, "criterion": p.criterion,
            "remainder_zero": p.remainder_zero}

def report_json(value):
    """value with each Polynomial, Monomial, SPairRecord and
    GroebnerCertificate in its report form."""
    if isinstance(value, dict):
        return {k: report_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [report_json(v) for v in value]
    if isinstance(value, Polynomial):
        return polynomial_json(value)
    if isinstance(value, Monomial):
        return monomial_json(value)
    if isinstance(value, SPairRecord):
        return pair_json(value)
    if isinstance(value, GroebnerCertificate):
        return {"is_basis": value.is_basis,
                "pairs": [pair_json(p) for p in value.pairs],
                "basis": [polynomial_json(f) for f in value.basis]}
    return value

def polynomial_from_json(ctx, data):
    """The library polynomial that a polynomial_json() list describes."""
    by_name = {v.name: v for v in ctx.variables}
    return ctx.polynomial({
        ctx.monomial({by_name[name]: e for name, e in term["m"].items()}): term["c"]
        for term in data})

def dense_monic(ctx, f):
    """f divided by its leading coefficient, with Fraction arithmetic."""
    key = cmp_to_key(lambda a, b: dense_compare(ctx, a, b))
    lc = f[max(f, key=key)]
    return {m: Fraction(c) / lc for m, c in f.items()}

def dense_s_polynomial(ctx, fa, fb):
    """S(fa, fb) of two nonzero dense polynomials, zero terms dropped."""
    key = cmp_to_key(lambda a, b: dense_compare(ctx, a, b))
    la, lb = max(fa, key=key), max(fb, key=key)
    lcm = tuple(max(x, y) for x, y in zip(la, lb))
    s = {}
    for f, lead, sign in ((fa, la, 1), (fb, lb, -1)):
        shift = tuple(x - y for x, y in zip(lcm, lead))
        scale = Fraction(sign) / f[lead]
        for m, c in f.items():
            t = tuple(x + y for x, y in zip(shift, m))
            s[t] = s.get(t, Fraction(0)) + scale * c
    return {m: c for m, c in s.items() if c}

def reduced_groebner_basis(ctx, gens):
    """Reduced Groebner basis by plain Buchberger, as a set of dense items.

    Every pair is reduced, with no criterion, the pair with the smallest
    lcm degree of its leading monomials first (the normal strategy, so a
    low-degree remainder arrives before the high-degree pairs it would
    close); then leading-redundant elements are dropped, the rest fully
    reduced by the others and made monic.  Returns a frozenset of sorted
    (exponent tuple, coefficient) tuples, one per basis element.
    """
    key = cmp_to_key(lambda a, b: dense_compare(ctx, a, b))
    basis = [g for g in (dense_poly(ctx, f) for f in gens) if g]
    leads = [max(g, key=key) for g in basis]

    def pair(a, b):
        return sum(map(max, leads[a], leads[b])), a, b
    pairs = [pair(a, b) for a, b in combinations(range(len(basis)), 2)]
    heapify(pairs)
    while pairs:
        _, a, b = heappop(pairs)
        _, r = dense_divide(ctx, dense_s_polynomial(ctx, basis[a], basis[b]),
                            basis)
        if r:
            basis.append(r)
            leads.append(max(r, key=key))
            for k in range(len(basis) - 1):
                heappush(pairs, pair(k, len(basis) - 1))
    minimal = [g for k, g in enumerate(basis)
               if not any(divides(leads[j], leads[k])
                          and (leads[j] != leads[k] or j < k)
                          for j in range(len(basis)) if j != k)]
    out = set()
    for k, g in enumerate(minimal):
        _, r = dense_divide(ctx, g, minimal[:k] + minimal[k + 1:])
        lc = r[max(r, key=key)]
        out.add(tuple(sorted((m, c / lc) for m, c in r.items())))
    return frozenset(out)


# ------------------------------------------------- standard-monomial counts

def count_standard(n, degree):
    """Count degree-d monomials avoiding every x_i_i * y_i, by brute scan.

    Uses its own variable layout (x's row-major, then y's) and never
    touches the library's poset or initial-ideal machinery.
    """
    nv = n * n + n

    def x_pos(i, j):
        return (i - 1) * n + (j - 1)

    def y_pos(j):
        return n * n + (j - 1)

    count = 0
    for e in dense_monomials(nv, degree):
        if not any(e[x_pos(i, i)] and e[y_pos(i)] for i in range(1, n + 1)):
            count += 1
    return count

def hilbert_count(generator_exponents, nvars, d):
    """Count degree-d monomials outside the monomial ideal of the generators.

    Inclusion-exclusion over subsets S of the generators: the multiples
    of lcm(S) in degree d number C(d - deg lcm(S) + nvars - 1, nvars - 1).
    A subset whose lcm has degree above d contributes nothing and neither
    does any superset, so those branches are cut.
    """
    gens = [tuple(g) for g in generator_exponents]
    total = 0
    stack = [(0, (0,) * nvars, 1)]
    while stack:
        start, lcm, sign = stack.pop()
        total += sign * comb(d - sum(lcm) + nvars - 1, nvars - 1)
        for k in range(start, len(gens)):
            grown = tuple(max(a, b) for a, b in zip(lcm, gens[k]))
            if sum(grown) <= d:
                stack.append((k + 1, grown, -sign))
    return total

def standard_normal_mismatches(n, degree, relations):
    """Degree-d monomials that are standard but not normal, or vice versa.

    Standard: the support is a chain in the closure of `relations`, given
    as pairs of variable names.  Normal: no x_i_i * y_i divides it.  Each
    monomial is rendered like the library's, in the layout x's row-major
    then y's; the list is sorted.
    """
    names = [f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    names += [f"y_{j}" for j in range(1, n + 1)]
    tc = closure(names, relations)

    def comparable(a, b):
        return a == b or tc.has_edge(a, b) or tc.has_edge(b, a)

    out = []
    for e in dense_monomials(len(names), degree):
        support = [names[p] for p, k in enumerate(e) if k]
        standard = all(comparable(a, b) for a in support for b in support)
        normal = not any(e[(i - 1) * (n + 1)] and e[n * n + i - 1]
                         for i in range(1, n + 1))
        if standard != normal:
            out.append("*".join(names[p] if k == 1 else f"{names[p]}^{k}"
                                for p, k in enumerate(e) if k))
    return sorted(out)


# ------------------------------------------------------------ primality

def is_prime(p):
    """Trial division; only for small p."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True
