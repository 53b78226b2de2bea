"""Every name in ``archpi.__all__`` is reached by a command, named by the
benchmark, or declared part of the paper's API.

The reach is an ``ast`` name graph over the package, in the style of
``tests/test_private_names.py``: names are matched across modules, and a
function or class that is reached reaches every name its body reads.  The
roots are ``cli.main`` and the module-level code that runs on import, such
as the suite table; imports are edges, not roots: a name imported with
``from`` reaches the name it binds and the module it comes from, so
``errors`` is reached through the exceptions ``main`` catches.
``__init__.py`` is left out, since its re-exports and ``__all__`` would
reach every name.  The benchmark's names are read as
``tests/test_tracer_bindings.py`` reads them: the tracer's ``SPANNED`` and
the kernel timings' ``archpi`` imports.
"""

import ast
from functools import reduce
from pathlib import Path

import archpi

from test_tracer_bindings import _load_tracer, kernel_imports

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "archpi"

#: the paper's named objects that no command reaches, as attribute paths
#: from ``archpi``; each is checked against its twin or an oracle
PAPER_API = (
    "circumscribed_edge",            # tests/test_fused_kernels.py
    "geometric_sin",                 # mpmath, tests/test_trig.py
    "geometric_cos",                 # mpmath, tests/test_trig.py
    "Circuit.from_regular_indices",  # oracles.explicit_circuit_measures
)


def _references(statement):
    """Every name a statement reads: bare names and attributes."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def reached_names(sources, roots):
    """The names read on some path from ``roots`` or from the module-level
    code of ``sources``."""
    reads, pending = {}, list(roots)
    for source in sources:
        for statement in ast.parse(source).body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                reads.setdefault(statement.name, set()).update(_references(statement))
            elif isinstance(statement, ast.ImportFrom):
                for alias in statement.names:
                    edges = reads.setdefault(alias.asname or alias.name, set())
                    edges.add(alias.name)
                    if statement.module:
                        edges.add(statement.module.rpartition(".")[2])
            elif not isinstance(statement, ast.Import):
                pending += _references(statement)
    reached = set()
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending += reads.get(name, ())
    return reached


def _command_reach():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    return reached_names(sources, ["main"])


def _bench_names():
    return ({name for _, name in _load_tracer().SPANNED}
            | {name for _, name in kernel_imports()})


def test_unreached_names_are_found():
    kernel = ("from .errors import Bad\n"
              "TABLE = {'row': tabled}\n"
              "def tabled():\n"
              "    pass\n"
              "def helper():\n"
              "    raise Bad\n"
              "def unreached():\n"
              "    return helper()\n"
              "class Box:\n"
              "    def method(self):\n"
              "        return boxed()\n"
              "def boxed():\n"
              "    pass\n")
    cli = ("from .kernel import helper as run\n"
           "def main():\n"
           "    return run() + Box().method()\n")
    errors = "class Bad(Exception):\n    pass\n"
    reached = reached_names([kernel, cli, errors], ["main"])
    names = ["tabled", "helper", "Bad", "errors", "Box", "boxed", "unreached"]
    assert [name for name in names if name not in reached] == ["unreached"]


def test_every_public_name_is_reached_named_or_declared():
    kept = _command_reach() | _bench_names() | set(PAPER_API)
    assert [name for name in archpi.__all__ if name not in kept] == []


def test_paper_api_is_not_stale():
    # each entry resolves, starts at a public name, and is not reached
    # another way, which would make its place on the list redundant
    for entry in PAPER_API:
        reduce(getattr, entry.split("."), archpi)
        assert entry.split(".")[0] in archpi.__all__, entry
    assert set(PAPER_API) & (_command_reach() | _bench_names()) == set()
