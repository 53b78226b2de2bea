"""Every module-level private name of the package is referenced somewhere in
the package besides its own definition.

A private kernel that only its tests still call is dead code; this finds
it.  Names are matched across the whole package, so a reference may sit in
another module (``polygons._romberg_ends``) or in an import of the name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "archpi"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _defines(statement):
    """The private names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return {name for name in names if _private(name)}


def _references(statement):
    """Every name a statement reads: bare names, attributes and imports."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unreferenced_private_names(sources):
    """Module-level private names in ``sources`` that no statement but their
    own definition references, sorted."""
    defined, used = set(), set()
    for source in sources:
        for statement in ast.parse(source).body:
            own = _defines(statement)
            defined |= own
            # a recursive call or a self-update is not a use
            used.update(name for name in _references(statement) if name not in own)
    return sorted(defined - used)


def test_unreferenced_private_names_are_found():
    kernel = ("import math\n"
              "_SCALE = 4\n"
              "_UNUSED: int = 1\n"
              "def _kernel(n):\n"
              "    return _kernel(n - 1) if n else 0\n"
              "def _helper():\n"
              "    return _SCALE\n"
              "class _Box:\n"
              "    pass\n")
    caller = ("from .kernel import _helper\n"
              "def public():\n"
              "    return _helper() + math._private\n")
    assert unreferenced_private_names([kernel, caller]) == ["_Box", "_UNUSED", "_kernel"]


def test_every_private_name_is_referenced():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private_names(sources) == []
