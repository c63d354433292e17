"""No module of the package imports a name it never uses."""

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
