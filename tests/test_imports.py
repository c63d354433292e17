"""No module of the package imports a name it never uses, and no private
name of the package goes unused."""

import ast
from pathlib import Path

import pytest

import qrenyi

PACKAGE = Path(qrenyi.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

#: Imported names a module keeps unused on purpose, as (module, name):
#: ``bench/tracer.py`` wraps ``divergences.minimize`` to count nfev.
KEPT = {("divergences", "minimize")}


def _imported_names(tree):
    """The names the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name
        for name in _imported_names(tree)
        if name not in used and (path.stem, name) not in KEPT
    }
    assert not unused


def _private_definitions(tree):
    """The private (leading underscore, not dunder) names a module binds at
    its top level, by def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _references(tree):
    """The names a module reads: as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


def test_every_private_name_is_used():
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")
    }
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = {
        (stem, name)
        for stem, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    }
    assert not unused
