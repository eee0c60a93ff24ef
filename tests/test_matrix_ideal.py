"""Pattern handling and construction of the product generators."""

import itertools

import pytest

import oracles
from asl_forge import (
    ContextMismatchError,
    MatrixPattern,
    Variable,
    matrix_product_ideal,
    product_generators,
)


class TestMatrixPattern:
    def test_constructors(self):
        assert MatrixPattern.generic(3).kind == "generic"
        assert MatrixPattern.symmetric(2).kind == "symmetric"
        p = MatrixPattern.zero_pattern([[1, 0], [0, 1]])
        assert p.n == 2 and p.entry(1, 2) is None
        assert p.entry(1, 1) == Variable.x(1, 1)
        assert MatrixPattern.generic(2).entry(2, 1) == Variable.x(2, 1)
        assert MatrixPattern.symmetric(3).entry(3, 1) == Variable.x(1, 3)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            MatrixPattern.zero_pattern([[1, 1], [1]])
        with pytest.raises(ValueError):
            MatrixPattern(2, "zero_pattern", None)
        with pytest.raises(ValueError):
            MatrixPattern.zero_pattern([[1, 2], [0, 1]])
        with pytest.raises(ValueError):
            MatrixPattern(2, "generic", ((1, 1), (1, 1)))
        with pytest.raises(ValueError):
            MatrixPattern(2, "sparse")
        with pytest.raises(ValueError):
            MatrixPattern(0, "generic")

    @pytest.mark.parametrize("bad", [0.5, 1.0, 1.9, "1", "0", 2, -1, None])
    def test_mask_entries_are_bits(self, bad):
        with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
            MatrixPattern.zero_pattern([[1, bad], [1, 1]])
        with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
            MatrixPattern(2, "zero_pattern", ((1, bad), (1, 1)))

    @pytest.mark.parametrize("mask", [[1, 1], [[1, 1], 1], 5, [[1, 1], None],
                                      [], {}, ()])
    def test_mask_rows_must_be_rows(self, mask):
        # a row that is a number, or a mask that is one, is a shape error
        # from every entry point, not a TypeError from iterating an int;
        # an empty mask is one too, not a matrix of size 0
        with pytest.raises(ValueError, match="mask must be an n-by-n matrix"):
            MatrixPattern.zero_pattern(mask)
        with pytest.raises(ValueError, match="mask must be an n-by-n matrix"):
            MatrixPattern(2, "zero_pattern", mask)

    def test_pattern_is_a_value(self):
        p = MatrixPattern(2, "zero_pattern", ((1, 0), (1, 1)))
        same = MatrixPattern(n=2, kind="zero_pattern", mask=((1, 0), (1, 1)))
        assert p == same == MatrixPattern.zero_pattern([[1, 0], [1, 1]])
        assert hash(p) == hash(same)
        assert p != MatrixPattern.zero_pattern([[1, 1], [1, 1]])
        assert MatrixPattern(3) == MatrixPattern.generic(3) != MatrixPattern.symmetric(3)
        assert (p.n, p.kind, p.mask) == (2, "zero_pattern", ((1, 0), (1, 1)))
        assert MatrixPattern(3).mask is None
        with pytest.raises(AttributeError):
            p.n = 3
        with pytest.raises(AttributeError):
            p.label = "a"

    @pytest.mark.parametrize("args,message", [
        ((0,), "matrix size n must be >= 1"),
        ((2, "sparse"), "unknown pattern kind 'sparse'"),
        ((2, "zero_pattern"), "zero_pattern requires a mask"),
        ((2, "symmetric", ((1, 1), (1, 1))),
         "mask is only valid for zero_pattern, not 'symmetric'"),
    ])
    def test_pattern_messages(self, args, message):
        with pytest.raises(ValueError) as info:
            MatrixPattern(*args)
        assert str(info.value) == message

    def test_mask_accepts_booleans_and_bits(self):
        p = MatrixPattern.zero_pattern([[True, 0], [False, 1]])
        assert p.mask == ((1, 0), (0, 1))
        assert all(type(v) is int for row in p.mask for v in row)

    def test_json_round_trip_with_booleans(self):
        data = {"n": 2, "kind": "zero_pattern", "mask": [[True, False], [True, True]]}
        p = MatrixPattern.zero_pattern(data["mask"])
        assert p.mask == ((1, 0), (1, 1))
        assert p.to_json_dict() == data
        assert MatrixPattern.zero_pattern(p.to_json_dict()["mask"]) == p
        assert MatrixPattern.symmetric(3).to_json_dict() == {"n": 3, "kind": "symmetric"}


def x_entries(g):
    """{j: X[i][j]} read off g_i = sum_j X[i][j] * y_j, one term per entry."""
    out = {}
    for c, m in g.terms:
        x, y = (v for v, _ in m.factors())  # the ring lists x's before y's
        assert c == 1 and x.kind == "x" and y.kind == "y"
        out[y.j] = x
    return out


class TestBuildMatrices:
    """The entries of X as product_generators reads them off the pattern."""

    def test_generic_entries(self):
        ctx, gens = product_generators(MatrixPattern.generic(2))
        for i, g in enumerate(gens, start=1):
            assert x_entries(g) == {j: ctx.x(i, j) for j in (1, 2)}

    def test_symmetric_reuses_upper_triangle(self):
        for n in (2, 3):
            ctx, gens = product_generators(MatrixPattern.symmetric(n))
            X = {i: x_entries(g) for i, g in enumerate(gens, start=1)}
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    assert X[i][j] == X[j][i] == ctx.x(min(i, j), max(i, j))

    def test_all_zero_mask(self):
        _, gens = product_generators(MatrixPattern.zero_pattern([[0, 0], [0, 0]]))
        assert all(not g for g in gens)
        assert len(gens) == 2


class TestProductGenerators:
    def test_generic_n2(self):
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(2))
        g1 = ctx.polynomial({
            ctx.monomial({ctx.x(1, 1): 1, ctx.y(1): 1}): 1,
            ctx.monomial({ctx.x(1, 2): 1, ctx.y(2): 1}): 1,
        })
        g2 = ctx.polynomial({
            ctx.monomial({ctx.x(2, 1): 1, ctx.y(1): 1}): 1,
            ctx.monomial({ctx.x(2, 2): 1, ctx.y(2): 1}): 1,
        })
        assert list(gens) == [g1, g2]

    def test_n1_trivial(self):
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(1))
        assert list(gens) == [
            ctx.polynomial({ctx.monomial({ctx.x(1, 1): 1, ctx.y(1): 1}): 1})]

    def test_symmetric_matches_substitution(self):
        # fold x_i_j (i > j) to x_j_i in the generic generators and
        # compare against the symmetric construction
        for n in (2, 3, 4):
            gctx, ggens = matrix_product_ideal(MatrixPattern.generic(n))
            sctx, sgens = matrix_product_ideal(MatrixPattern.symmetric(n))
            folded = []
            for g in ggens:
                data = oracles.polynomial_json(g)
                for term in data:
                    fixed = {}
                    for name, e in term["m"].items():
                        parts = name.split("_")
                        if parts[0] == "x" and int(parts[1]) > int(parts[2]):
                            name = f"x_{parts[2]}_{parts[1]}"
                        fixed[name] = fixed.get(name, 0) + e
                    term["m"] = fixed
                folded.append(oracles.polynomial_from_json(sctx, data))
            assert folded == list(sgens)

    def test_leading_monomials_are_diagonal_products(self):
        for n in range(1, 9):
            for p in (MatrixPattern.generic(n), MatrixPattern.symmetric(n)):
                ctx, gens = matrix_product_ideal(p)
                assert len(gens) == n
                order = ctx.order
                for i, g in enumerate(gens, start=1):
                    assert len(g.terms) == n
                    expected = ctx.monomial({ctx.x(i, i): 1, ctx.y(i): 1})
                    assert g.leading_monomial() == expected
                    assert order.compare(g.terms[1][1], expected) == -1 if n > 1 \
                        else True

    def test_linear_in_y(self):
        # every term of every generator contains exactly one y factor,
        # so sending all y_j to zero kills the whole ideal
        ctx, gens = matrix_product_ideal(MatrixPattern.generic(3))
        ys = [ctx.y(j) for j in range(1, 4)]
        for g in gens:
            for _, m in g.terms:
                assert sum(e for v, e in m.factors() if v in ys) == 1

    def test_zero_row_gives_zero_generator(self):
        p = MatrixPattern.zero_pattern([[0, 0], [1, 1]])
        _, gens = product_generators(p)
        assert not gens[0] and gens[1]
        ctx, kept = matrix_product_ideal(p)
        assert len(kept) == 1


def kept_ring_layout(mask):
    """The variables a mask's ring should carry: kept x_i_j row-major, then y."""
    n = len(mask)
    xs = [Variable.x(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
          if mask[i - 1][j - 1]]
    return xs + [Variable.y(j) for j in range(1, n + 1)]


KILLED_DIAGONALS = [[0, 1, 1], [1, 1, 0], [1, 1, 0]]  # x_1_1 and x_3_3 zero


class TestPatternRing:
    """The ring holds exactly the variables the pattern keeps."""

    @pytest.mark.parametrize("bits", list(itertools.product((0, 1), repeat=4)))
    def test_n2_mask_ring_holds_kept_entries(self, bits):
        mask = [list(bits[:2]), list(bits[2:])]
        ctx, _ = product_generators(MatrixPattern.zero_pattern(mask))
        assert list(ctx.variables) == kept_ring_layout(mask)

    def test_killed_diagonal_is_no_variable(self):
        ctx, gens = product_generators(MatrixPattern.zero_pattern(KILLED_DIAGONALS))
        assert list(ctx.variables) == kept_ring_layout(KILLED_DIAGONALS)
        with pytest.raises(ValueError):
            ctx.x(1, 1)
        assert x_entries(gens[1]) == {1: ctx.x(2, 1), 2: ctx.x(2, 2)}

    def test_rings_of_two_masks_do_not_mix(self):
        actx, a = product_generators(MatrixPattern.zero_pattern([[1, 1], [1, 0]]))
        bctx, b = product_generators(MatrixPattern.zero_pattern([[1, 1], [0, 1]]))
        assert actx != bctx
        with pytest.raises(ContextMismatchError):
            a[0] + b[0]
        with pytest.raises(ContextMismatchError):
            actx.order.compare(a[0].leading_monomial(), b[0].leading_monomial())

    def test_killed_diagonal_order_matches_oracle(self):
        ctx, _ = product_generators(MatrixPattern.zero_pattern(KILLED_DIAGONALS))
        assert Variable.x(3, 3) not in ctx.variables
        nv = len(ctx.variables)
        monomials = [ctx.monomial({ctx.variables[p]: e for p, e in enumerate(ex) if e})
                     for ex in oracles.dense_monomials(nv, 2)]
        key = ctx.order.heap_key
        for a in monomials:
            for b in monomials:
                assert (key(b) > key(a)) - (key(b) < key(a)) \
                    == oracles.block_compare(ctx, a, b)
