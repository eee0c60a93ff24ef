"""The package imports only the standard library, loads none of its slow
modules at import, uses what it imports and never recurses on input-sized
depth."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from asl_forge import MatrixPattern, initial_ideal, is_groebner, matrix_product_ideal
from asl_forge.asl import build_poset, verify_axiom1

SRC = Path(__file__).resolve().parents[1] / "src" / "asl_forge"
MODULES = sorted(SRC.glob("*.py"))


def imported_top_levels(tree: ast.AST) -> set[str]:
    """Top-level names of every absolute import; relative ones are the package."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "groebner.py", "poly_core.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_the_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = {name for name in imported_top_levels(tree)
               if name != "asl_forge" and name not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


# Each verify is a fresh process that pays for every module the package
# loads.  dataclasses pulls in inspect, ast, dis and tokenize, and fractions
# pulls in decimal; typing is heavy under -S, where nothing preloads it.
SLOW_IMPORTS = ("dataclasses", "inspect", "typing", "fractions", "decimal")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses_or_typing_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert not imported_top_levels(tree) & {"dataclasses", "typing"}


def test_import_loads_no_slow_stdlib_module():
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
            "import asl_forge, asl_forge.cli; "
            f"print(sorted(set({SLOW_IMPORTS!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def python_floor() -> tuple[int, int]:
    """The (major, minor) lower bound of pyproject's requires-python."""
    text = (SRC.parents[1] / "pyproject.toml").read_text()
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_parses_at_the_python_floor(path):
    # the tests run on a newer interpreter than the one the package
    # promises, so syntax newer than requires-python could slip in unseen
    ast.parse(path.read_text(), filename=str(path), feature_version=python_floor())


def test_python_floor_check_sees_newer_syntax():
    assert python_floor() == (3, 10)  # int.bit_count needs 3.10
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=python_floor())


def imported_names(tree: ast.AST) -> set[str]:
    """Names bound by the module's imports, `from __future__` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported_names(tree) - used
    assert not unused, f"{path.name} imports {sorted(unused)} but never uses them"


def private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level `_name` functions, classes and constants, and the `_name`
    methods of module-level classes, by name (a method's as `Class._name`)."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name.startswith("_")
                        and not item.name.startswith("__")):
                    found[f"{node.name}.{item.name}"] = item
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node
    return found


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read as a bare name or an attribute, outside the `skip` subtree."""
    skipped = set(map(id, ast.walk(skip))) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unused_private_names(tree: ast.Module, others: set[str]) -> list[str]:
    """The tree's private definitions that neither `others` nor the rest of
    the tree reads."""
    return [name for name, node in private_definitions(tree).items()
            if name.rpartition(".")[2]
            not in others | referenced_names(tree, skip=node)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    # a helper that lost its last caller is dead code, even if a test calls it
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    others = set()
    for p, tree in trees.items():
        if p != path:
            others |= referenced_names(tree)
    unused = unused_private_names(trees[path], others)
    assert not unused, f"{path.name} defines {unused} but nothing in src uses them"


def test_unused_private_method_is_found():
    source = ("class A:\n"
              "    def _used(self):\n        return self.{}()\n"
              "    def _alone(self):\n        return self._alone()\n"
              "    def __len__(self):\n        return 0\n"
              "def _helper():\n    return A()._used()\n")
    tree = ast.parse(source.format("_alone"))
    assert list(private_definitions(tree)) == ["A._used", "A._alone", "_helper"]
    assert unused_private_names(tree, set()) == ["_helper"]
    assert unused_private_names(tree, {"_helper"}) == []
    # a method that only calls itself is unused
    tree = ast.parse(source.format("_other"))
    assert unused_private_names(tree, {"_helper"}) == ["A._alone"]


def declared_slots(tree: ast.AST) -> set[str]:
    """Every string in a `__slots__` assigned anywhere in the module."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in node.targets)):
            names.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return names


def private_attribute_stores(tree: ast.AST) -> list[ast.Attribute]:
    """Stores to a `_name` attribute of anything but `self`."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and node.attr.startswith("_") and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_attributes_set_only_where_declared(path):
    # a module that parks its own state on another module's objects (a
    # cache slot on Polynomial, say) couples the two; a module may write
    # the private slots it declares itself, like poly_core's Monomial._hkey
    tree = ast.parse(path.read_text(), filename=str(path))
    slots = declared_slots(tree)
    foreign = [f"line {node.lineno}: {ast.unparse(node)}"
               for node in private_attribute_stores(tree) if node.attr not in slots]
    assert not foreign, f"{path.name} sets undeclared private attributes: {foreign}"


def self_calls(tree: ast.AST) -> list[str]:
    """Functions that call themselves by name, or as a method on self or cls."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if ((isinstance(func, ast.Name) and func.id == node.name)
                    or (isinstance(func, ast.Attribute) and func.attr == node.name
                        and isinstance(func.value, ast.Name)
                        and func.value.id in ("self", "cls"))):
                found.append(f"line {call.lineno}: {node.name}")
    return found


# the report's nesting is fixed, so rendering it recursively is bounded
RECURSION_ALLOWED = {("cli.py", "_json_parts")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    # the degree bound comes from the input and --allow-large lifts it past
    # the interpreter's recursion limit, so the axiom-1 Hilbert numerator
    # unfolds its colon ideals on an explicit worklist
    tree = ast.parse(path.read_text(), filename=str(path))
    recursive = [found for found in self_calls(tree)
                 if (path.name, found.split(": ")[1]) not in RECURSION_ALLOWED]
    assert not recursive, f"{path.name} has recursive functions: {recursive}"


def test_recursion_guard_sees_a_self_call():
    cli = ast.parse((SRC / "cli.py").read_text())
    assert {found.split(": ")[1] for found in self_calls(cli)} == {"_json_parts"}
    tree = ast.parse("def walk(n):\n    return walk(n - 1) if n else 0\n\n"
                     "class A:\n    def f(self):\n        return self.f()\n")
    assert self_calls(tree) == ["line 2: walk", "line 6: f"]


def test_axiom1_above_the_recursion_limit_passes():
    _, gens = matrix_product_ideal(MatrixPattern.generic(1))
    certificate = is_groebner(gens)
    init = initial_ideal(certificate)
    poset = build_poset(1)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = depth + 50
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        report = verify_axiom1(certificate, init, poset, limit + 20)
    finally:
        sys.setrecursionlimit(old)
    assert report["verdict"] == "pass"
    assert len(report["degrees"]) == limit + 21
