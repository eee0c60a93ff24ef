"""Span tracing of asl_forge from outside the package.

`Tracer.install()` replaces every public function of each asl_forge module,
plus a few hot methods, with a wrapper that records one span per call: its
name, start, end and parent span.  Generator functions get one span per
resume, so lazily consumed work lands in the span that pulls it.  Spans
stay in memory as flat arrays until `write()`; `uninstall()` puts the
original functions back.  Nothing under `src/` is modified.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import pkgutil
import time
from array import array
from collections import Counter
from pathlib import Path

clock = time.perf_counter_ns

# Hot methods that carry per-layer counts; module functions are found by scan.
METHODS = (
    ("poly_core", "Polynomial", "__add__"),
    ("poly_core", "Polynomial", "mul_term"),
    ("poset", "Poset", "__init__"),
    ("poset", "Poset", "comparable"),
    ("groebner", "InitialIdeal", "is_normal"),
)

# A reduce call is charged to the nearest enclosing span among these, so
# S-pair reductions (buchberger, is_groebner) are told apart from the
# interreduction and straightening calls.
REDUCE_CAUSES = ("groebner.buchberger", "groebner.is_groebner",
                 "groebner.interreduce", "asl.verify_axiom2")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(clock())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = clock()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        if inspect.isgeneratorfunction(fn):
            yields = name + ".yields"

            @functools.wraps(fn)
            def resume_spans(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    self.counts[yields] += 1
                    yield item
            return resume_spans

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return span

    def _count_staircase(self, fn):
        @functools.wraps(fn)
        def staircase(rows, *args, **kwargs):
            pulled = 0

            def counted():
                nonlocal pulled
                for row in rows:
                    pulled += 1
                    yield row
            pivots = fn(counted(), *args, **kwargs)
            self.counts["linalg.rows_in"] += pulled
            self.counts["linalg.pivots"] += len(pivots)
            return pivots
        return staircase

    def _attribute_reduce(self, fn):
        cause_ids = {self._id(n) for n in REDUCE_CAUSES}

        @functools.wraps(fn)
        def reduce(*args, **kwargs):
            cause = "other"
            for sid in reversed(self._stack):
                if sid >= 0 and self.name[sid] in cause_ids:
                    cause = self.names[self.name[sid]]
                    break
            r = fn(*args, **kwargs)
            self.counts[f"groebner.reduce[{cause}]"] += 1
            if not r:
                self.counts[f"groebner.reduce_zero[{cause}]"] += 1
            return r
        return reduce

    def install(self) -> None:
        package = importlib.import_module("asl_forge")
        modules = {info.name: importlib.import_module(f"asl_forge.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)
                   if not info.name.startswith("_")}
        hooks = {"linalg.staircase": self._count_staircase,
                 "groebner.reduce": self._attribute_reduce}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                w = self._wrap(name, obj)
                wrapped[obj] = hooks[name](w) if name in hooks else w
        # rebind every name that refers to a wrapped function, in every
        # module, so `from .x import f` imports are traced too
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules.get(short), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        while self._restore:
            target, attr, obj = self._restore.pop()
            setattr(target, attr, obj)

    def profile(self) -> tuple[Counter, Counter]:
        """Self time (s) and span count, keyed by (name, parent name)."""
        n = len(self.name)
        child_ns = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child_ns[p] += self.end[sid] - self.start[sid]
        self_s: Counter = Counter()
        spans: Counter = Counter()
        for sid in range(n):
            p = self.parent[sid]
            key = (self.names[self.name[sid]],
                   self.names[self.name[p]] if p >= 0 else None)
            self_s[key] += (self.end[sid] - self.start[sid] - child_ns[sid]) / 1e9
            spans[key] += 1
        return self_s, spans

    def write(self, path: Path, first_id: int = 0) -> int:
        """Append spans as JSON lines [id, name, start_ns, end_ns, parent_id].

        Ids are offset by `first_id` so several tracers can share one file;
        returns the next free id.
        """
        with gzip.open(path, "at", compresslevel=1) as fh:
            for sid in range(len(self.name)):
                p = self.parent[sid]
                fh.write(json.dumps([first_id + sid, self.names[self.name[sid]],
                                     self.start[sid], self.end[sid],
                                     first_id + p if p >= 0 else None]) + "\n")
        return first_id + len(self.name)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named after their modules."""
    self_s, spans = tracer.profile()
    counts = tracer.counts

    def busy(name: str, parent: str | None = None) -> float:
        return sum(v for (k, p), v in self_s.items()
                   if k == name and (parent is None or p == parent))

    def layer(module: str) -> float:
        return sum(v for (k, _), v in self_s.items()
                   if k.startswith(module + "."))

    def calls(name: str) -> int:
        return sum(v for (k, _), v in spans.items() if k == name)

    rows, pivots = counts["linalg.rows_in"], counts["linalg.pivots"]
    spairs = counts["groebner.reduce[groebner.buchberger]"]
    return {
        "linalg.staircase_s": busy("linalg.staircase"),
        "linalg.rows_in": rows,
        "linalg.pivots": pivots,
        "linalg.useful_row_ratio": pivots / rows if rows else 0.0,
        # Macaulay rows are built lazily while staircase pulls them
        "linalg.row_build_s": (busy("linalg.row_from_polynomial")
                               + busy("poly_core.Polynomial.mul_term",
                                      "linalg.staircase")),
        "asl.enumerate_s": busy("asl.monomials_of_degree"),
        "asl.monomials_enumerated": counts["asl.monomials_of_degree.yields"],
        "asl.is_standard_s": busy("asl.is_standard_monomial"),
        "groebner.is_normal_s": busy("groebner.InitialIdeal.is_normal"),
        "poset.comparable_calls": calls("poset.Poset.comparable"),
        "groebner.buchberger_s": busy("groebner.buchberger"),
        "groebner.is_groebner_s": busy("groebner.is_groebner"),
        "groebner.interreduce_s": busy("groebner.interreduce"),
        "groebner.reduce_calls": calls("groebner.reduce"),
        # divide is reached only through reduce
        "groebner.reduce_s": busy("groebner.reduce") + busy("groebner.divide"),
        "groebner.pairs_reduced": spairs + counts["groebner.reduce[groebner.is_groebner]"],
        "groebner.spair_zero_share": (
            counts["groebner.reduce_zero[groebner.buchberger]"] / spairs
            if spairs else 0.0),
        "poly_core.add_calls": calls("poly_core.Polynomial.__add__"),
        "poly_core.add_s": busy("poly_core.Polynomial.__add__"),
        "poly_core.mul_term_calls": calls("poly_core.Polynomial.mul_term"),
        "matrix_ideal.builds": calls("matrix_ideal.build_matrices"),
        "matrix_ideal.build_s": layer("matrix_ideal"),
        "poset.builds": calls("poset.Poset.__init__"),
        "poset.build_s": busy("poset.Poset.__init__"),
        "asl.axiom1_s": busy("asl.verify_axiom1"),
        "asl.axiom2_s": busy("asl.verify_axiom2"),
        "asl.straighten_s": busy("asl.straighten"),
        "cli.self_s": layer("cli"),
    }


def self_time_table(tracer: Tracer) -> list[tuple[str, int, float]]:
    """(span name, spans, self seconds) for every span name, largest first."""
    self_s, spans = tracer.profile()
    total: Counter = Counter()
    count: Counter = Counter()
    for (name, _), v in self_s.items():
        total[name] += v
    for (name, _), v in spans.items():
        count[name] += v
    return [(name, count[name], s) for name, s in total.most_common()]
