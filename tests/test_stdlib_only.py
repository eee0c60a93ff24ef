"""The package imports only the standard library, and uses what it imports."""

import ast
import sys
from pathlib import Path

import pytest

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
    """Module-level `_name` functions, classes and constants, by name."""
    found = {}
    for node in tree.body:
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    # a helper that lost its last caller is dead code, even if a test calls it
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    others = set()
    for p, tree in trees.items():
        if p != path:
            others |= referenced_names(tree)
    unused = [name for name, node in private_definitions(trees[path]).items()
              if name not in others | referenced_names(trees[path], skip=node)]
    assert not unused, f"{path.name} defines {unused} but nothing in src uses them"


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
