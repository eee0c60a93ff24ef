"""End-to-end runs of the command line interface."""

import contextlib
import functools
import gc
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles


def run_cli(*args, threads=None, check=False, timeout=None, closed_fd=None):
    env = {k: v for k, v in os.environ.items() if k != "ASL_FORGE_THREADS"}
    if threads is not None:
        env["ASL_FORGE_THREADS"] = str(threads)
    proc = subprocess.run(
        [sys.executable, "-m", "asl_forge", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
        preexec_fn=None if closed_fd is None else functools.partial(os.close, closed_fd),
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


class TestIdeal:
    def test_generic_n2_json(self):
        proc = run_cli("ideal", "--n", "2", check=True)
        data = json.loads(proc.stdout)
        assert data["n"] == 2 and data["field"] == "QQ"
        assert data["pattern"] == {"n": 2, "kind": "generic"}
        assert data["generators"][0] == [
            {"c": "1", "m": {"x_1_1": 1, "y_1": 1}},
            {"c": "1", "m": {"x_1_2": 1, "y_2": 1}},
        ]
        assert len(data["generators"]) == 2

    def test_generic_n1(self):
        proc = run_cli("ideal", "--n", "1", check=True)
        gens = json.loads(proc.stdout)["generators"]
        assert gens == [[{"c": "1", "m": {"x_1_1": 1, "y_1": 1}}]]

    def test_symmetric_reuses_upper_triangle(self):
        proc = run_cli("ideal", "--n", "2", "--pattern", "symmetric", check=True)
        gens = json.loads(proc.stdout)["generators"]
        names = {frozenset(t["m"]) for t in gens[1]}
        assert names == {frozenset({"x_2_2", "y_2"}), frozenset({"x_1_2", "y_1"})}

    def test_text_format(self):
        proc = run_cli("ideal", "--n", "2", "--format", "text", check=True)
        assert proc.stdout.splitlines() == [
            "g_1 = x_1_1*y_1 + x_1_2*y_2",
            "g_2 = x_2_2*y_2 + x_2_1*y_1",
        ]

    def test_zero_row_printed_as_zero(self):
        mask = json.dumps([[False, False], [True, True]])
        proc = run_cli("ideal", "--n", "2", "--pattern", "zero",
                       "--mask", mask, "--format", "text", check=True)
        assert proc.stdout.splitlines()[0] == "g_1 = 0"


class TestGroebnerCommands:
    def test_gb_completes_zero_pattern(self):
        mask = json.dumps([[True, True], [True, False]])
        proc = run_cli("gb", "--n", "2", "--pattern", "zero", "--mask", mask,
                       check=True)
        basis = json.loads(proc.stdout)["basis"]
        rendered = [
            "".join(f"{t['c']}|{sorted(t['m'].items())}" for t in g) for g in basis
        ]
        assert len(basis) == 3
        assert any("x_1_2" in r and "x_2_1" in r for r in rendered)

    def test_verify_gb_generic_all_coprime(self):
        proc = run_cli("verify-gb", "--n", "4", check=True)
        report = json.loads(proc.stdout)
        assert report["verdict"] == "pass"
        pairs = report["certificate"]["pairs"]
        assert len(pairs) == 6
        assert all(p["criterion"] == "coprime" for p in pairs)

    def test_verify_gb_raw_zero_pattern_fails(self):
        mask = json.dumps([[True, True], [True, False]])
        proc = run_cli("verify-gb", "--n", "2", "--pattern", "zero", "--mask", mask)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["verdict"] == "fail"

    def test_init_ideal_n3(self):
        proc = run_cli("init-ideal", "--n", "3", check=True)
        gens = json.loads(proc.stdout)["generators"]
        assert sorted(tuple(sorted(g.items())) for g in gens) == [
            (("x_1_1", 1), ("y_1", 1)),
            (("x_2_2", 1), ("y_2", 1)),
            (("x_3_3", 1), ("y_3", 1)),
        ]


class TestStdCount:
    def test_n2_degree2(self):
        proc = run_cli("std-count", "--n", "2", "--degree", "2", check=True)
        data = json.loads(proc.stdout)
        assert data == {
            "n": 2,
            "degree": 2,
            "count": 19,
            "cumulative": 26,
            "by_degree": [1, 6, 19],
        }


class TestPoset:
    def test_json_n3(self):
        proc = run_cli("poset", "--n", "3", check=True)
        data = json.loads(proc.stdout)
        assert set(data) == {"elements", "covers"}
        assert len(data["elements"]) == 12
        assert ["x_3_3", "y_2"] in data["covers"]

    def test_dot_n2(self):
        proc = run_cli("poset", "--n", "2", "--format", "dot", check=True)
        out = proc.stdout
        assert out.startswith("digraph H {")
        assert out.count(" -> ") == 7
        assert '"x_1_2";' in out

    def test_n1_isolated_nodes(self):
        proc = run_cli("poset", "--n", "1", check=True)
        data = json.loads(proc.stdout)
        assert data == {"elements": ["x_1_1", "y_1"], "covers": []}


class TestVerify:
    def test_small_generic_passes(self):
        proc = run_cli("verify", "--n", "1", "--degree", "2", check=True)
        report = json.loads(proc.stdout)
        assert report["verdict"] == "pass"
        assert set(report["sections"]) == {
            "groebner", "initial_ideal", "poset", "axiom1", "axiom2",
        }

    def test_diagonal_killing_mask_skips_straightening(self):
        mask = json.dumps([[True, True], [True, False]])
        proc = run_cli("verify", "--n", "2", "--pattern", "zero", "--mask", mask,
                       check=True)
        report = json.loads(proc.stdout)
        assert report["verdict"] == "pass"
        for section in ("poset", "axiom1", "axiom2"):
            assert report["sections"][section]["status"] == "skipped"
        assert report["sections"]["groebner"]["checked"] == "completed basis"

    def test_symmetric_skips_straightening(self):
        proc = run_cli("verify", "--n", "2", "--pattern", "symmetric", check=True)
        report = json.loads(proc.stdout)
        assert report["verdict"] == "pass"
        assert report["sections"]["axiom1"]["status"] == "skipped"
        assert report["sections"]["initial_ideal"]["equals_diagonal_products"]

    @pytest.mark.parametrize("command,fmt", [
        ("ideal", "json"), ("ideal", "text"), ("gb", "json"), ("gb", "text"),
        ("verify-gb", "json"), ("verify-gb", "text"), ("init-ideal", "json"),
        ("init-ideal", "text"), ("std-count", "json"), ("std-count", "text"),
        ("poset", "json"), ("poset", "dot"), ("poset", "text"), ("verify", None)])
    def test_output_file_matches_stdout(self, tmp_path, command, fmt):
        args = [command, "--n", "2"]
        args += ["--degree", "2"] if fmt is None else ["--format", fmt]
        target = tmp_path / "report"
        with_file = run_cli(*args, "--output", str(target), check=True)
        plain = run_cli(*args, check=True)
        assert target.read_text() == plain.stdout
        assert with_file.stdout == ""


class TestGuardsAndErrors:
    def test_large_n_needs_flag(self):
        proc = run_cli("verify-gb", "--n", "9")
        assert proc.returncode == 2
        assert "--allow-large" in proc.stderr
        assert run_cli("verify-gb", "--n", "9", "--allow-large").returncode == 0

    def test_large_degree_needs_flag(self):
        proc = run_cli("verify", "--n", "1", "--degree", "9")
        assert proc.returncode == 2

    def test_nonprime_field(self):
        proc = run_cli("gb", "--n", "2", "--field", "gf(4)")
        assert proc.returncode == 2
        assert "prime" in proc.stderr

    @pytest.mark.parametrize("spec", ["gf(x)", "gf()", "GF(1.5)", "gf(1_3)",
                                      "gf(+5)", "gf( 7)"])
    def test_non_integer_prime_field(self, spec):
        proc = run_cli("gb", "--n", "2", "--field", spec)
        assert proc.returncode == 2
        assert proc.stderr == (f"error: unrecognized field {spec!r}: "
                               "use rationals or gf(p)\n")

    def test_field_spec_takes_only_ascii_digits(self):
        # int() would read each of these as a modulus
        from asl_forge import CoefficientField
        from asl_forge.cli import parse_field
        assert parse_field("GF(5)") == CoefficientField.prime(5)
        assert parse_field(" gf(32003) ").p == 32003
        assert parse_field("Rationals") == CoefficientField.rationals()
        for spec in ("gf(1_3)", "gf(+5)", "gf(-5)", "gf( 7)", "gf(7 )",
                     "gf(\u0663)", "gf(\uff17)", "gf(0x7)"):
            with pytest.raises(ValueError, match="^unrecognized field"):
                parse_field(spec)

    def test_huge_prime_field_refused_quickly(self):
        start = time.monotonic()
        proc = run_cli("verify", "--n", "2", "--degree", "2",
                       "--field", f"gf({2**127 - 1})", timeout=5)
        assert time.monotonic() - start < 1.0
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "bound" in proc.stderr

    def test_unwritable_output_is_an_io_error(self, tmp_path):
        target = tmp_path / "missing" / "r.json"
        proc = run_cli("verify", "--n", "2", "--degree", "2",
                       "--output", str(target))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == "" and not target.exists()

    def test_unwritable_output_returns_2_in_process(self, tmp_path, capsys):
        from asl_forge.cli import main
        target = tmp_path / "missing" / "r.json"
        assert main(["verify", "--n", "2", "--degree", "2",
                     "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(target) in err

    def test_degree_past_the_order_bound_returns_2(self, monkeypatch, capsys):
        # with 4-bit fields the order encodes total degree at most 7
        from asl_forge import poly_core
        from asl_forge.cli import main
        monkeypatch.setattr(poly_core, "EXPONENT_BITS", 4)
        assert main(["verify", "--n", "1", "--degree", "7"]) == 0
        capsys.readouterr()
        assert main(["verify", "--n", "1", "--degree", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "total degree 8" in err

    def test_closed_stdout_exits_2(self):
        proc = run_cli("verify", "--n", "2", "--degree", "2", closed_fd=1)
        assert proc.returncode == 2
        assert proc.stderr == "error: standard output is closed\n"

    def test_closed_stderr_keeps_exit_2(self, monkeypatch):
        # a closed descriptor 2 leaves sys.stderr None, or, when a file
        # opened at start-up reuses it, a stream whose writes fail
        proc = run_cli("verify", "--n", "2", "--degree", "-1", closed_fd=2)
        assert proc.returncode == 2
        assert proc.stdout == "" and proc.stderr == ""
        from asl_forge.cli import main

        class Unwritable(io.StringIO):
            def write(self, text):
                raise OSError(9, "Bad file descriptor")
        monkeypatch.setattr(sys, "stderr", Unwritable())
        assert main(["verify", "--n", "2", "--degree", "-1"]) == 2

    def test_zero_pattern_requires_mask(self):
        assert run_cli("ideal", "--n", "2", "--pattern", "zero").returncode == 2

    def test_mask_shape_checked(self):
        bad = json.dumps([[True, True], [True]])
        proc = run_cli("ideal", "--n", "2", "--pattern", "zero", "--mask", bad)
        assert proc.returncode == 2

    @pytest.mark.parametrize("mask", ["{}", "[]"])
    def test_empty_mask_is_a_shape_error(self, mask, capsys):
        from asl_forge.cli import main
        assert main(["verify", "--n", "2", "--pattern", "zero", "--mask", mask]) == 2
        out = capsys.readouterr()
        assert out.err == "error: mask must be an n-by-n matrix\n" and out.out == ""

    def test_mask_must_parse(self):
        proc = run_cli("ideal", "--n", "2", "--pattern", "zero", "--mask", "[1,")
        assert proc.returncode == 2

    @pytest.mark.parametrize("mask", ["[" * 100_000,
                                      "[" * 100_000 + "]" * 100_000],
                             ids=["unclosed", "closed"])
    def test_deeply_nested_mask_returns_2_in_process(self, mask, capsys):
        from asl_forge.cli import main
        assert main(["verify", "--n", "1", "--pattern", "zero",
                     "--mask", mask]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: bad mask:") and out.out == ""

    def test_mask_rejected_for_generic(self):
        mask = json.dumps([[True, True], [True, True]])
        proc = run_cli("ideal", "--n", "2", "--mask", mask)
        assert proc.returncode == 2

    def test_negative_degree(self):
        assert run_cli("verify", "--n", "2", "--degree", "-1").returncode == 2

    @pytest.mark.parametrize("n,degree,work", [("4", "8", "4,029,025"),
                                               ("5", "6", "2,179,672")])
    def test_verify_work_bound(self, n, degree, work):
        # both pass the n/degree guard; (4, 8) ran for minutes at 2.5 GiB
        start = time.monotonic()
        proc = run_cli("verify", "--n", n, "--degree", degree, timeout=10)
        assert time.monotonic() - start < 2.0
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert work in proc.stderr and "2,000,000" in proc.stderr
        assert "--allow-large" in proc.stderr

    def test_work_bound_only_for_generic_verify(self):
        # the estimate counts the axiom-1 slices, which only generic runs
        for args in (("std-count", "--n", "5", "--degree", "6"),
                     ("verify", "--n", "5", "--degree", "6",
                      "--pattern", "symmetric")):
            assert run_cli(*args).returncode == 0

    @pytest.mark.parametrize("mask", ["[[1, 0.5], [1, 1.9]]",
                                      '[["1", "0"], [1, 1]]',
                                      "[[1, 2], [1, 1]]",
                                      "[[1.0, 0], [1, 1]]"])
    def test_mask_entries_not_truncated(self, mask):
        proc = run_cli("ideal", "--n", "2", "--pattern", "zero", "--mask", mask)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "mask entries must be 0 or 1" in proc.stderr


class TestRunConfig:
    def test_is_a_value(self):
        from asl_forge import CoefficientField, MatrixPattern
        from asl_forge.cli import RunConfig
        pattern = MatrixPattern.generic(2)
        cfg = RunConfig(pattern, 3, CoefficientField.prime(5), "text", "r.txt")
        same = RunConfig(pattern=pattern, degree=3, fieldspec=CoefficientField(5),
                         fmt="text", output="r.txt")
        assert cfg == same and hash(cfg) == hash(same)
        assert cfg != RunConfig(pattern, 4, CoefficientField.prime(5), "text", "r.txt")
        with pytest.raises(AttributeError):
            cfg.degree = 5
        with pytest.raises(AttributeError):
            cfg.label = "a"
        with pytest.raises(TypeError):  # the parser, not RunConfig, holds defaults
            RunConfig(pattern)


class TestSinglePipeline:
    MASK = "[[1,1,0],[0,0,1],[1,1,1]]"

    @pytest.mark.parametrize("argv,builds", [
        (["verify", "--n", "3", "--degree", "3"], (1, 1, 1)),
        (["verify", "--n", "3", "--pattern", "zero", "--mask", MASK], (1, 1, 0)),
        (["init-ideal", "--n", "3"], (1, 1, 0)),
        (["init-ideal", "--n", "3", "--pattern", "zero", "--mask", MASK], (1, 1, 0)),
        (["verify-gb", "--n", "3"], (1, 1, 0)),
    ])
    def test_each_invariant_built_once(self, monkeypatch, capsys, argv, builds):
        # contexts and posets by their constructors; certificates by
        # is_groebner, the one function that makes them, wherever imported
        import asl_forge
        from asl_forge import Poset, RingContext, groebner
        from asl_forge.cli import main
        counts = {}
        for cls in (RingContext, Poset):
            def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
                counts[_cls] = counts.get(_cls, 0) + 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)

        check = groebner.is_groebner

        def certified(gens):
            counts["certificate"] = counts.get("certificate", 0) + 1
            return check(gens)
        for module in vars(asl_forge).values():
            if getattr(module, "is_groebner", None) is check:
                monkeypatch.setattr(module, "is_groebner", certified)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out).get("verdict", "pass") == "pass"
        assert tuple(counts.get(c, 0) for c in
                     (RingContext, "certificate", Poset)) == builds

class TestDeterminism:
    def test_verify_stable_across_runs_and_threads(self):
        runs = [
            run_cli("verify", "--n", "2", "--degree", "3", check=True),
            run_cli("verify", "--n", "2", "--degree", "3", check=True),
            run_cli("verify", "--n", "2", "--degree", "3", threads=4, check=True),
        ]
        outputs = {proc.stdout for proc in runs}
        assert len(outputs) == 1

    def test_threads_env_ignored_when_invalid(self):
        proc = run_cli("verify", "--n", "1", "--degree", "2",
                       threads="many", check=True)
        assert json.loads(proc.stdout)["verdict"] == "pass"


class TestParserReuse:
    MASK = json.dumps([[True, True], [True, False]])
    SEQUENCE = [
        ["ideal", "--n", "2", "--format", "text"],
        ["verify-gb", "--n", "2", "--pattern", "zero", "--mask", MASK],
        ["poset", "--n", "2", "--format", "dot"],
        ["verify", "--n", "2", "--degree", "-1"],
        ["init-ideal", "--n", "2", "--pattern", "zero", "--mask", MASK],
        ["no-such-command"],
        ["std-count", "--n", "3", "--degree", "3"],
        ["verify", "--n", "2", "--degree", "2"],
        ["ideal", "--n", "2"],
    ]

    def test_parser_built_once_and_calls_independent(self, monkeypatch, capsys):
        import argparse
        from asl_forge.cli import main
        builds = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)

        results = []
        for k, argv in enumerate(self.SEQUENCE):
            if k == 1:
                builds.clear()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            results.append((capsys.readouterr().out, code))
        assert not builds
        fresh = [(p.stdout, p.returncode)
                 for p in (run_cli(*argv) for argv in self.SEQUENCE)]
        assert results == fresh
        assert [code for _, code in results] == [0, 1, 0, 2, 0, 2, 0, 0, 0]


def _json_trees():
    text = st.text(max_size=8)
    leaves = (st.none() | st.booleans() | text
              | st.integers(-2**70, 2**70) | st.sampled_from([0, -1, 10**300]))
    return st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(text, inner, max_size=4)),
        max_leaves=20)


def _emitted(payload):
    from asl_forge import CoefficientField, MatrixPattern
    from asl_forge.cli import RunConfig, _emit_json
    cfg = RunConfig(MatrixPattern.generic(1), 4, CoefficientField.rationals(), "json",
                    None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_json(payload, cfg)
    return out.getvalue()


class TestJsonEmitter:
    @settings(max_examples=300)
    @given(_json_trees())
    def test_matches_json_dumps(self, payload):
        assert _emitted(payload) == json.dumps(payload, indent=2) + "\n"

    def test_escapes_match_json_dumps(self):
        payload = {"\u00e9\"\\\n\x00\x1f\u2028\U0001f600": ["\t", "", {}, [],
                                                               [[]], {"": None}]}
        assert _emitted(payload) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("payload", [1.5, {"a": [0.0]}, {1: "int key"},
                                         {"t": (1, 2)}])
    def test_other_types_raise_type_error(self, payload):
        with pytest.raises(TypeError):
            _emitted(payload)

    def test_encoding_leaves_no_reference_cycle(self):
        from asl_forge import MatrixPattern, verify
        report = verify(MatrixPattern.zero_pattern([[0, 1, 1], [1, 0, 1], [1, 1, 1]]), 2)
        gc.collect()
        gc.disable()
        try:
            _emitted(report)
            assert gc.collect() == 0
        finally:
            gc.enable()


@st.composite
def _library_payloads(draw):
    """A JSON tree whose leaves include one ring's library objects.

    The leaves are drawn from a fixed list of objects, so one polynomial
    can sit at several depths of the same payload.
    """
    from asl_forge import CoefficientField, RingContext, SPairRecord, Variable
    n = draw(st.integers(1, 3))
    entries = [Variable.x(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    xs = draw(st.lists(st.sampled_from(entries), unique=True, max_size=len(entries)))
    field = draw(st.sampled_from([None, 2, 3, 32003]))
    ctx = RingContext(n, sorted(xs, key=entries.index),
                      field=CoefficientField(field))
    monomials = st.dictionaries(st.sampled_from(ctx.variables), st.integers(0, 4),
                                max_size=4).map(ctx.monomial)
    coefficients = (st.fractions(max_denominator=60) if field is None
                    else st.integers(-10**6, 10**6))
    polynomials = st.dictionaries(monomials, coefficients,
                                  max_size=5).map(ctx.polynomial)
    pairs = st.builds(SPairRecord, st.integers(0, 500), st.integers(0, 500),
                      st.sampled_from(["coprime", "reduced"]), st.booleans())
    objects = draw(st.lists(polynomials | monomials | pairs, min_size=1, max_size=6))
    objects += [ctx.zero, ctx.one]
    leaves = st.sampled_from(objects) | st.integers(-3, 3) | st.text(max_size=4)
    return draw(st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=4)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
        max_leaves=24))


class TestLibraryObjectEmitter:
    @settings(max_examples=100, deadline=None)
    @given(_library_payloads())
    def test_matches_json_dumps_of_oracle_forms(self, payload):
        expected = json.dumps(oracles.report_json(payload), indent=2) + "\n"
        assert _emitted(payload) == expected

    def test_fixed_cases(self):
        # the zero polynomial, the constant monomial, Fraction and GF(p)
        # coefficients, exponents above 1, a certificate, and one
        # polynomial at three depths of one payload, which re-indents its
        # cached text
        from fractions import Fraction

        from asl_forge import (CoefficientField, GeneratorSet, RingContext,
                               SPairRecord, is_groebner)
        for field in (CoefficientField.rationals(), CoefficientField.prime(7)):
            ctx = RingContext(2, field=field)
            m = ctx.monomial({ctx.x(1, 1): 3, ctx.x(2, 1): 1, ctx.y(2): 2})
            c = Fraction(-3, 7) if field.p is None else 12
            f = ctx.polynomial({m: c, ctx.monomial({ctx.y(1): 1}): 1, ctx.one: 2})
            pair = SPairRecord(0, 3, "reduced", False)
            cert = is_groebner(GeneratorSet(ctx, [f, ctx.polynomial({m: 1})]))
            payload = {"f": f, "deep": [[{"f": f, "m": m}], [pair, ctx.zero]],
                       "zero": ctx.zero, "one": ctx.one, "g": [f], "cert": [cert]}
            expected = json.dumps(oracles.report_json(payload), indent=2) + "\n"
            assert _emitted(payload) == expected


def _oracle_cases():
    """24 n=5 masks over QQ, 16 n=3 masks over GF(3), generic n=3 over GF(3)."""
    rng = random.Random(11)
    for _ in range(24):
        yield 5, [[rng.randint(0, 1) for _ in range(5)] for _ in range(5)], None
    for _ in range(16):
        yield 3, [[rng.randint(0, 1) for _ in range(3)] for _ in range(3)], 3
    yield 3, None, 3


class TestReportsMatchOracleForms:
    """verify's bytes against json.dumps of the library report's oracle forms.

    Unlike the pinned digests, the reference text here is recomputed, so
    this holds across changes that alter reports on purpose.
    """

    @pytest.mark.parametrize("n,mask,p", list(_oracle_cases()))
    def test_cli_bytes_equal_oracle_dump(self, n, mask, p):
        from asl_forge import CoefficientField, MatrixPattern, verify
        from asl_forge.cli import main
        argv = ["verify", "--n", str(n), "--degree", "2"]
        if mask is None:
            pattern = MatrixPattern.generic(n)
        else:
            pattern = MatrixPattern.zero_pattern(mask)
            argv += ["--pattern", "zero", "--mask", json.dumps(mask)]
        if p is not None:
            argv += ["--field", f"gf({p})"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        report = verify(pattern, 2, CoefficientField(p))
        assert out.getvalue() == json.dumps(oracles.report_json(report),
                                            indent=2) + "\n"
        assert code == (0 if report["verdict"] == "pass" else 1)
