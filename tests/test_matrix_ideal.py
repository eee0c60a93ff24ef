"""Pattern handling and construction of the product generators."""

import pytest

from asl_forge import (
    MatrixPattern,
    matrix_product_ideal,
    polynomial_from_json,
    product_generators,
)


class TestMatrixPattern:
    def test_constructors(self):
        assert MatrixPattern.generic(3).kind == "generic"
        assert MatrixPattern.symmetric(2).kind == "symmetric"
        p = MatrixPattern.zero_pattern([[1, 0], [0, 1]])
        assert p.n == 2 and p.entry_is_zero(1, 2) and not p.entry_is_zero(1, 1)

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
        with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
            MatrixPattern.from_json_dict(
                {"n": 2, "kind": "zero_pattern", "mask": [[1, 1], [bad, 1]]})

    @pytest.mark.parametrize("mask", [[1, 1], [[1, 1], 1], 5, [[1, 1], None]])
    def test_mask_rows_must_be_rows(self, mask):
        # a row that is a number, or a mask that is one, is a shape error
        # from every entry point, not a TypeError from iterating an int
        with pytest.raises(ValueError, match="mask must be an n-by-n matrix"):
            MatrixPattern.zero_pattern(mask)
        with pytest.raises(ValueError, match="mask must be an n-by-n matrix"):
            MatrixPattern.from_json_dict({"n": 2, "kind": "zero_pattern", "mask": mask})
        with pytest.raises(ValueError, match="mask must be an n-by-n matrix"):
            MatrixPattern(2, "zero_pattern", mask)

    def test_mask_accepts_booleans_and_bits(self):
        p = MatrixPattern.zero_pattern([[True, 0], [False, 1]])
        assert p.mask == ((1, 0), (0, 1))
        assert all(type(v) is int for row in p.mask for v in row)

    def test_json_round_trip_with_booleans(self):
        data = {"n": 2, "kind": "zero_pattern", "mask": [[True, False], [True, True]]}
        p = MatrixPattern.from_json_dict(data)
        assert p.mask == ((1, 0), (1, 1))
        assert p.to_json_dict() == data
        assert MatrixPattern.from_json_dict(p.to_json_dict()) == p
        q = MatrixPattern.from_json_dict({"n": 3, "kind": "symmetric"})
        assert q == MatrixPattern.symmetric(3)
        assert q.to_json_dict() == {"n": 3, "kind": "symmetric"}

    def test_json_malformed(self):
        with pytest.raises(ValueError):
            MatrixPattern.from_json_dict({"kind": "generic"})
        with pytest.raises(ValueError):
            MatrixPattern.from_json_dict({"n": 2, "kind": "zero_pattern"})
        with pytest.raises(ValueError):
            MatrixPattern.from_json_dict(
                {"n": 3, "kind": "zero_pattern", "mask": [[True, False]]})
        with pytest.raises(ValueError):
            MatrixPattern.from_json_dict({"n": 2, "kind": "generic", "mask": [[1]]})

    def test_keeps_diagonal(self):
        assert MatrixPattern.zero_pattern([[1, 0], [0, 1]]).keeps_diagonal()
        assert not MatrixPattern.zero_pattern([[1, 1], [1, 0]]).keeps_diagonal()
        assert MatrixPattern.generic(4).keeps_diagonal()


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
                data = g.to_json_list()
                for term in data:
                    fixed = {}
                    for name, e in term["m"].items():
                        parts = name.split("_")
                        if parts[0] == "x" and int(parts[1]) > int(parts[2]):
                            name = f"x_{parts[2]}_{parts[1]}"
                        fixed[name] = fixed.get(name, 0) + e
                    term["m"] = fixed
                folded.append(polynomial_from_json(sctx, data))
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
                assert sum(m.exponent(y) for y in ys) == 1

    def test_zero_row_gives_zero_generator(self):
        p = MatrixPattern.zero_pattern([[0, 0], [1, 1]])
        _, gens = product_generators(p)
        assert not gens[0] and gens[1]
        ctx, kept = matrix_product_ideal(p)
        assert len(kept) == 1
