"""Byte-identity guards: sha256 digests pin the CLI's output over eight grids.

In the first grid every subcommand and output format runs in process over
the generic and the symmetric n=2 patterns and all 16 n=2 zero masks,
over QQ and GF(3).  The second runs `verify` on all 512 n=3 zero masks
over QQ and GF(3), whose completions are large enough to exercise the
division and S-pair kernels.  The third runs `verify` on 32 seeded n=4
zero masks over QQ and GF(3), whose S-pair reductions pass through
non-squarefree intermediate terms.  The fourth runs `verify` on the generic
and the symmetric patterns for n = 1..6 and degree bounds 0..2 over QQ,
GF(2), GF(3) and GF(32003), which covers both axiom reports.  The fifth
runs a generic `verify` above degree 2 over the same four fields, from
n = 1 up to degree 10 to n = 5 at degree 3; it includes the benchmark's
`verify --n 4 --degree 5`.  The sixth runs the deeper generic calls
`verify --n 4 --degree 6` and `--n 5 --degree 5` over QQ and GF(32003).
The seventh runs every other subcommand beyond n = 2: ideal, gb,
verify-gb and init-ideal in both formats at n = 1 and 3 (generic,
symmetric and four n = 3 zero masks, over QQ and GF(3)), std-count at
n = 1 and 3 for degrees 0..4, and poset at n = 1, 3 and 4 in all formats.
The eighth runs `--help` for the program and each subcommand at 80
columns.  Each digest covers every call's argv, exit code and stdout, so
any change to a report, a rendering, a help text or an exit code shows up
here.  A change that alters output on purpose must say so and record the
new digest: ``PYTHONPATH=src python tests/test_cli_digest.py`` prints the
eight ``NAME = "<sha256>"`` lines to paste in.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import time

from asl_forge.cli import main

GRID_SHA256 = "bb64f53709ac4f39cd8d15a444a33f2bd6c863b87ae809eb8c93d6a8cf1bd17c"
N3_MASKS_SHA256 = "6233fbb45012f1c47281e9775a49f521b5761bcc79f886c1685188c4210144e6"
N4_MASKS_SHA256 = "1cd181663b63898f20e4441c154eef192b6aff8c75779b9f8b787eda92854b24"
GENERIC_SHA256 = "cb0f1c0a83145ed2236a42a6fd58c475bef4610d70aa3a11cb209037bad1b4f6"
AXIOM1_SHA256 = "dcde14bf8c6430927e02e2deee30e35a54b5fbfd2ecfbd14ce876ee55ece6812"
DEEP_SHA256 = "4b1c342b9aca40195680c200e3d3b5491b97d2bafe2853c182b83f1a22ee02b6"
SUBCOMMANDS_SHA256 = "2c35151e740bee478ef828b393e51f97a4fd7088e0678bdf4cfab1c73b0ba7d5"
HELP_SHA256 = "07271dc8c069b6a7e493a2e86c056d36ef6c81e5ad9afa0397390d3e49e15299"

PATTERN_COMMANDS = [("ideal", "json"), ("ideal", "text"), ("gb", "json"),
                    ("gb", "text"), ("verify-gb", "json"), ("verify-gb", "text"),
                    ("init-ideal", "json"), ("init-ideal", "text"),
                    ("verify", None)]


def grid():
    patterns = [["--pattern", "generic"], ["--pattern", "symmetric"]]
    for bits in itertools.product((0, 1), repeat=4):
        mask = [list(bits[:2]), list(bits[2:])]
        patterns.append(["--pattern", "zero", "--mask", json.dumps(mask)])
    for field in ("rationals", "gf(3)"):
        for pattern in patterns:
            for command, fmt in PATTERN_COMMANDS:
                argv = [command, "--n", "2", *pattern, "--field", field]
                if fmt is not None:
                    argv += ["--format", fmt]
                else:
                    argv += ["--degree", "2"]
                yield argv
    for fmt in ("json", "text"):
        yield ["std-count", "--n", "2", "--degree", "3", "--format", fmt]
    for fmt in ("json", "dot", "text"):
        yield ["poset", "--n", "2", "--format", fmt]


def n3_masks_grid():
    for field in ("rationals", "gf(3)"):
        for bits in itertools.product((0, 1), repeat=9):
            mask = [list(bits[k:k + 3]) for k in (0, 3, 6)]
            yield ["verify", "--n", "3", "--pattern", "zero", "--mask",
                   json.dumps(mask), "--field", field, "--degree", "2"]


def n4_masks_grid():
    rng = random.Random(4)
    masks = [[[rng.randint(0, 1) for _ in range(4)] for _ in range(4)]
             for _ in range(32)]
    for field in ("rationals", "gf(3)"):
        for mask in masks:
            yield ["verify", "--n", "4", "--pattern", "zero", "--mask",
                   json.dumps(mask), "--field", field, "--degree", "2"]


def generic_grid():
    for field in ("rationals", "gf(2)", "gf(3)", "gf(32003)"):
        for pattern in ("generic", "symmetric"):
            for n in range(1, 7):
                for degree in range(3):
                    yield ["verify", "--n", str(n), "--pattern", pattern,
                           "--field", field, "--degree", str(degree)]


def axiom1_grid():
    for field in ("rationals", "gf(2)", "gf(3)", "gf(32003)"):
        for n, degrees in ((1, range(3, 11)), (2, range(3, 7)), (3, range(3, 6)),
                           (4, range(3, 6)), (5, range(3, 4))):
            for degree in degrees:
                yield ["verify", "--n", str(n), "--field", field,
                       "--degree", str(degree)]


def deep_grid():
    for field in ("rationals", "gf(32003)"):
        for n, degree in ((4, 6), (5, 5)):
            yield ["verify", "--n", str(n), "--field", field,
                   "--degree", str(degree)]


N3_MASKS = [[[1, 1, 0], [0, 0, 1], [1, 1, 1]], [[0, 1, 1], [1, 0, 1], [1, 1, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 0], [1, 1, 1], [1, 0, 1]]]


def subcommands_grid():
    for field in ("rationals", "gf(3)"):
        for n in (1, 3):
            patterns = [["--pattern", "generic"], ["--pattern", "symmetric"]]
            if n == 3:
                patterns += [["--pattern", "zero", "--mask", json.dumps(mask)]
                             for mask in N3_MASKS]
            for pattern in patterns:
                for command, fmt in PATTERN_COMMANDS[:-1]:  # all but verify
                    yield [command, "--n", str(n), *pattern, "--field", field,
                           "--format", fmt]
    for n in (1, 3):
        for degree in range(5):
            for fmt in ("json", "text"):
                yield ["std-count", "--n", str(n), "--degree", str(degree),
                       "--format", fmt]
    for n in (1, 3, 4):
        for fmt in ("json", "dot", "text"):
            yield ["poset", "--n", str(n), "--format", fmt]


def help_grid():
    yield ["--help"]
    for command in ("ideal", "gb", "verify-gb", "init-ideal", "std-count", "poset",
                    "verify"):
        yield [command, "--help"]


def run_grid(argvs):
    """(sha256 hex digest over the calls, number of calls, seconds).

    A call that exits through SystemExit (``--help``) counts its exit code.
    """
    start = time.perf_counter()
    digest = hashlib.sha256()
    calls = 0
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        digest.update(f"{argv}\0{code}\0{out.getvalue()}\0".encode())
        calls += 1
    return digest.hexdigest(), calls, time.perf_counter() - start


def test_cli_grid_output_is_pinned():
    digest, calls, elapsed = run_grid(grid())
    assert calls == 329
    assert digest == GRID_SHA256
    assert elapsed < 3.0, f"grid took {elapsed:.2f} s"


def test_n3_mask_completions_are_pinned():
    digest, calls, elapsed = run_grid(n3_masks_grid())
    assert calls == 1024
    assert digest == N3_MASKS_SHA256
    assert elapsed < 3.0, f"grid took {elapsed:.2f} s"


def test_n4_mask_completions_are_pinned():
    digest, calls, elapsed = run_grid(n4_masks_grid())
    assert calls == 64
    assert digest == N4_MASKS_SHA256
    assert elapsed < 3.0, f"grid took {elapsed:.2f} s"


def test_generic_and_symmetric_reports_are_pinned():
    digest, calls, elapsed = run_grid(generic_grid())
    assert calls == 144
    assert digest == GENERIC_SHA256
    assert elapsed < 3.0, f"grid took {elapsed:.2f} s"


def test_generic_axiom1_reports_above_degree_2_are_pinned():
    digest, calls, elapsed = run_grid(axiom1_grid())
    assert calls == 76
    assert digest == AXIOM1_SHA256
    assert elapsed < 3.0, f"grid took {elapsed:.2f} s"


def test_deep_generic_axiom1_reports_are_pinned():
    digest, calls, elapsed = run_grid(deep_grid())
    assert calls == 4
    assert digest == DEEP_SHA256
    assert elapsed < 3.0, f"grid took {elapsed:.2f} s"


def test_every_subcommand_beyond_n2_is_pinned():
    digest, calls, elapsed = run_grid(subcommands_grid())
    assert calls == 157
    assert digest == SUBCOMMANDS_SHA256
    assert elapsed < 3.0, f"grid took {elapsed:.2f} s"


def test_help_text_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    digest, calls, _ = run_grid(help_grid())
    assert calls == 8
    assert digest == HELP_SHA256


GRIDS = {"GRID_SHA256": grid, "N3_MASKS_SHA256": n3_masks_grid,
         "N4_MASKS_SHA256": n4_masks_grid, "GENERIC_SHA256": generic_grid,
         "AXIOM1_SHA256": axiom1_grid, "DEEP_SHA256": deep_grid,
         "SUBCOMMANDS_SHA256": subcommands_grid, "HELP_SHA256": help_grid}


def test_the_recorder_covers_every_digest():
    assert set(GRIDS) == {name for name in globals() if name.endswith("_SHA256")}


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # as test_help_text_is_pinned sets it
    for name, argvs in GRIDS.items():
        print(f'{name} = "{run_grid(argvs())[0]}"')
