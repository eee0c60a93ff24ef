"""The command line: parse the arguments, run one library call, emit.

Subcommands map onto the library layers: ideal / gb / verify-gb /
init-ideal expose the Groebner side, poset and std-count the
combinatorial side, and verify emits the library's whole report.  Each
subparser names its handler; the three listings share one emitter, which
writes the library's objects in a report straight to JSON.

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad usage,
malformed input, an unwritable output file or a closed standard stream.
Output is deterministic byte-for-byte for a fixed command line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from collections import namedtuple
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii

from .asl import axiom1_work, build_poset, count_standard_monomials, verify
from .groebner import (GroebnerCertificate, SPairRecord, buchberger,
                       initial_ideal, is_groebner)
from .matrix_ideal import MatrixPattern, matrix_product_ideal, product_generators
from .poly_core import CoefficientField, Monomial, Polynomial

LARGE_N = 8
LARGE_DEGREE = 8
# bound on axiom1_work for a generic verify, whose monomial term no longer
# measures work done.  On a shared 2-vCPU Xeon VM, in process, (n, degree)
# = (8, 4) at about 1.3e6 ran in 0.03-0.05 s at 20 MiB peak RSS, (5, 6) at
# 2.2e6 in 0.5-0.7 s at 70 MiB, (4, 8) at 4.0e6 in 3.5-4.5 s at 227 MiB;
# slice elimination is nearly all of it (ranges span the VM's load)
LARGE_WORK = 2_000_000


class RunConfig(namedtuple("RunConfig", "pattern degree fieldspec fmt output")):
    """One command's pattern, degree bound, field, format and output path."""

    __slots__ = ()


def parse_field(text: str) -> CoefficientField:
    t = text.strip().lower()
    if t == "rationals":
        return CoefficientField.rationals()
    # int() would also take a sign, spaces and underscores: gf(1_3) is no field
    digits = t[3:-1]
    if (t.startswith("gf(") and t.endswith(")") and digits.isascii()
            and digits.isdigit()):
        return CoefficientField.prime(int(digits))
    raise ValueError(f"unrecognized field {text!r}: use rationals or gf(p)")


def _pattern_from_args(args: argparse.Namespace) -> MatrixPattern:
    kind, mask_text = args.pattern, args.mask
    if kind == "zero":
        if mask_text is None:
            raise ValueError("--pattern zero requires --mask")
        try:
            mask = json.loads(mask_text)
        except (json.JSONDecodeError, RecursionError) as exc:
            # a deeply nested mask exhausts the decoder's recursion limit
            raise ValueError(f"bad mask: {exc}") from None
        pattern = MatrixPattern.zero_pattern(mask)
        if pattern.n != args.n:
            raise ValueError(f"mask is {pattern.n}x{pattern.n} but --n is {args.n}")
        return pattern
    if mask_text is not None:
        raise ValueError("--mask is only meaningful with --pattern zero")
    if kind == "symmetric":
        return MatrixPattern.symmetric(args.n)
    return MatrixPattern.generic(args.n)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    degree = args.degree
    if degree < 0:
        raise ValueError("--degree must be >= 0")
    if (args.n > LARGE_N or degree > LARGE_DEGREE) and not args.allow_large:
        raise ValueError(
            f"n > {LARGE_N} or degree > {LARGE_DEGREE} needs --allow-large "
            "(enumeration sizes grow combinatorially)")
    pattern = _pattern_from_args(args)
    # the n and degree guard above keeps this estimate cheap to compute
    if (args.command == "verify" and pattern.kind == "generic"
            and not args.allow_large):
        work = axiom1_work(args.n, degree)
        if work > LARGE_WORK:
            raise ValueError(
                f"estimated axiom-1 work of {work:,} monomials and Macaulay "
                f"rows exceeds the bound of {LARGE_WORK:,}; pass --allow-large "
                "to run it anyway")
    return RunConfig(
        pattern=pattern,
        degree=degree,
        fieldspec=parse_field(args.field),
        fmt=args.format,
        output=args.output,
    )


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif sys.stdout is None:
        raise OSError("standard output is closed")
    else:
        sys.stdout.write(text)


def _monomial_json(m: Monomial, newline: str, memo: dict) -> str:
    """m's text; the ring's names are JSON-encoded once per report."""
    names = memo.get(id(m.ctx))
    if names is None:
        names = memo[id(m.ctx)] = tuple([encode_basestring_ascii(v.name)
                                         for v in m.ctx.variables])
    inner = newline + "  "
    body = ",".join([f"{inner}{names[p]}: {e}" for p, e in m.exps])
    return "{" + body + newline + "}" if body else "{}"


def _polynomial_json(f: Polynomial, memo: dict) -> str:
    """f's text at depth 0, built once per report."""
    text = memo.get(id(f))
    if text is None:
        nl = "\n    "  # the line break and indentation of a term's "m"
        terms = [f'\n  {{{nl}"c": {encode_basestring_ascii(str(c))},{nl}"m": '
                 f'{_monomial_json(m, nl, memo)}\n  }}' for c, m in f.terms]
        text = memo[id(f)] = "[" + ",".join(terms) + "\n]" if terms else "[]"
    return text


def _json_parts(value, newline: str, out: list, memo: dict) -> None:
    """Append the pieces of ``json.dumps(value, indent=2)`` to out.

    ``newline`` is the line break plus the indentation of value's own
    line.  A Polynomial is written as ``[{"c": "<coefficient>", "m":
    <monomial>}, ...]``, a Monomial as ``{"<variable>": <exponent>, ...}``
    and an SPairRecord or a GroebnerCertificate as the dict of its
    fields.  ``memo`` holds, by object id, the texts built so far for
    this report, so a polynomial the report holds twice is rendered once.
    Module level, not a closure: a recursive closure would hold each
    report's pieces in a reference cycle until the next collection.
    """
    if isinstance(value, SPairRecord):
        inner = newline + "  "
        out.append(f'{{{inner}"i": {value.i},{inner}"j": {value.j},{inner}'
                   f'"criterion": {encode_basestring_ascii(value.criterion)},'
                   f'{inner}"remainder_zero": '
                   f'{"true" if value.remainder_zero else "false"}{newline}}}')
    elif isinstance(value, Polynomial):
        out.append(_polynomial_json(value, memo).replace("\n", newline))
    elif isinstance(value, Monomial):
        out.append(_monomial_json(value, newline, memo))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(k))
            out.append(": ")
            _json_parts(v, inner, out, memo)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _json_parts(v, inner, out, memo)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, GroebnerCertificate):
        _json_parts({"is_basis": value.is_basis, "pairs": list(value.pairs),
                     "basis": list(value.basis)}, newline, out, memo)
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def _emit_json(payload: dict, cfg: RunConfig) -> None:
    """Write payload as ``json.dumps(payload, indent=2)`` would, plus a newline.

    The reports hold only dicts, lists, strings, ints, booleans, None and
    the library objects above, and the standard encoder spends most of its
    time on generality (floats, circularity checks, custom hooks) they
    never need.
    """
    out: list[str] = []
    _json_parts(payload, "\n", out, {})
    out.append("\n")
    _emit("".join(out), cfg)


def _header(cfg: RunConfig) -> dict:
    """The n, pattern and field that open a pattern command's JSON report."""
    return {
        "n": cfg.pattern.n,
        "pattern": cfg.pattern.to_json_dict(),
        "field": cfg.fieldspec.name,
    }


def _emit_listing(cfg: RunConfig, key: str, items: list,
                  lines: Iterable[str]) -> None:
    """Write lines, one per item, as text, or items under key after the header."""
    if cfg.fmt == "text":
        _emit("\n".join(lines) + "\n", cfg)
    else:
        _emit_json({**_header(cfg), key: items}, cfg)


def cmd_ideal(cfg: RunConfig) -> int:
    _, gens = product_generators(cfg.pattern, cfg.fieldspec)
    _emit_listing(cfg, "generators", gens,
                  (f"g_{k} = {g}" for k, g in enumerate(gens, start=1)))
    return 0


def cmd_gb(cfg: RunConfig) -> int:
    _, gens = matrix_product_ideal(cfg.pattern, cfg.fieldspec)
    basis = list(buchberger(gens))
    _emit_listing(cfg, "basis", basis,
                  (f"b_{k} = {g}" for k, g in enumerate(basis, start=1)))
    return 0


def cmd_verify_gb(cfg: RunConfig) -> int:
    _, gens = matrix_product_ideal(cfg.pattern, cfg.fieldspec)
    certificate = is_groebner(gens)
    verdict = "pass" if certificate.is_basis else "fail"
    if cfg.fmt == "text":
        lines = [f"verdict: {verdict}"]
        lines += [f"pair ({p.i}, {p.j}): {p.criterion}, "
                  f"remainder_zero={str(p.remainder_zero).lower()}"
                  for p in certificate.pairs]
        _emit("\n".join(lines) + "\n", cfg)
    else:
        _emit_json({"verdict": verdict, **_header(cfg),
                    "certificate": certificate}, cfg)
    return 0 if certificate.is_basis else 1


def cmd_init_ideal(cfg: RunConfig) -> int:
    _, gens = matrix_product_ideal(cfg.pattern, cfg.fieldspec)
    init = list(initial_ideal(is_groebner(buchberger(gens))))
    _emit_listing(cfg, "generators", init, (str(m) for m in init))
    return 0


def cmd_std_count(cfg: RunConfig) -> int:
    by_degree = [count_standard_monomials(cfg.pattern.n, d)
                 for d in range(cfg.degree + 1)]
    if cfg.fmt == "text":
        _emit(f"standard monomials of degree {cfg.degree}: {by_degree[-1]} "
              f"(cumulative {sum(by_degree)})\n", cfg)
        return 0
    _emit_json({
        "n": cfg.pattern.n,
        "degree": cfg.degree,
        "count": by_degree[-1],
        "cumulative": sum(by_degree),
        "by_degree": by_degree,
    }, cfg)
    return 0


def cmd_poset(cfg: RunConfig) -> int:
    poset = build_poset(cfg.pattern.n)
    if cfg.fmt == "dot":
        _emit(poset.to_dot("H"), cfg)
    elif cfg.fmt == "text":
        lines = [f"{a} <= {b}" for a, b in poset.covers()]
        lines += [f"{a} || {b}" for a, b in poset.incomparable_pairs()]
        _emit("\n".join(lines) + "\n", cfg)
    else:
        _emit_json(poset.to_json_dict(), cfg)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    report = verify(cfg.pattern, cfg.degree, cfg.fieldspec)
    _emit_json(report, cfg)
    return 0 if report["verdict"] == "pass" else 1


# built once per process: parsing never changes the parser, and building it
# costs more than a small command's own work
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asl-forge",
        description="Groebner and straightening-law toolkit for the ideal "
                    "of entries of X*Y")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, handler, *, pattern: bool = False,
               degree: bool = False, formats: tuple[str, ...] = ("json", "text")):
        # every dest once: a command without the option reads its default
        p.set_defaults(run=handler, pattern="generic", mask=None, field="rationals",
                       degree=4, format="json")
        p.add_argument("--n", type=int, required=True, help="matrix size")
        if pattern:
            p.add_argument("--pattern", choices=("generic", "symmetric", "zero"))
            p.add_argument("--mask", help="JSON n-by-n 0/1 (or boolean) matrix; "
                                          "0 entries of X are forced to zero")
            p.add_argument("--field", help="rationals (default) or gf(p)")
        if degree:
            p.add_argument("--degree", type=int,
                           help="degree bound (default %(default)s)")
        if formats:
            p.add_argument("--format", choices=formats)
        p.add_argument("--output", help="write to this file instead of stdout")
        p.add_argument("--allow-large", action="store_true",
                       help=f"permit n > {LARGE_N}, degree > {LARGE_DEGREE}, "
                            f"or a verify whose estimated work exceeds "
                            f"{LARGE_WORK:,}")

    p = sub.add_parser("ideal", help="print the product generators g_1..g_n")
    common(p, cmd_ideal, pattern=True)

    p = sub.add_parser("gb", help="compute the reduced basis")
    common(p, cmd_gb, pattern=True)

    p = sub.add_parser("verify-gb", help="run the pair check on the generators")
    common(p, cmd_verify_gb, pattern=True)

    p = sub.add_parser("init-ideal", help="minimal generators of the initial ideal")
    common(p, cmd_init_ideal, pattern=True)

    p = sub.add_parser("std-count", help="count standard monomials by degree")
    common(p, cmd_std_count, degree=True)

    p = sub.add_parser("poset", help="export the variable poset")
    common(p, cmd_poset, formats=("json", "dot", "text"))

    p = sub.add_parser("verify", help="full verification pipeline")
    common(p, cmd_verify, pattern=True, degree=True, formats=())
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(_config_from_args(args))
    except (OSError, ValueError) as exc:
        # bad input or failed output, a closed stdout too: 2 even if stderr is closed
        with contextlib.suppress(AttributeError, OSError):
            sys.stderr.write(f"error: {exc}\n")
        return 2


def entry() -> None:
    sys.exit(main())
