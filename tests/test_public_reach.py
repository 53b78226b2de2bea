"""Every name in ``archpi.__all__``, and every public method of a class of
the package, is reached by a command, named by the benchmark, or declared
part of the paper's API.

The reach is an ``ast`` name graph over the package, in the style of
``tests/test_private_names.py``: names are matched across modules, and a
function or class that is reached reaches every name its body reads.  A
method other than a dunder is a name of its own, reached when reached code
reads it as an attribute; a class reaches the rest of its body, dunders
included, since they run without being named.  The
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

#: the paper's named objects and methods that no command reaches, as
#: attribute paths from ``archpi``; each is checked against its twin or an
#: oracle
PAPER_API = (
    "circumscribed_edge",            # tests/test_fused_kernels.py
    "geometric_sin",                 # mpmath, tests/test_trig.py
    "geometric_cos",                 # mpmath, tests/test_trig.py
    "Circuit.from_regular_indices",  # oracles.explicit_circuit_measures
    "PartitionProfile",              # mpmath, test_chords.test_partition_profile_*
)


def _references(statement):
    """Every name a statement reads: bare names and attributes."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _methods(statement):
    """The methods of a class statement, dunders left out."""
    return [node for node in statement.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def reached_names(sources, roots):
    """The names read on some path from ``roots`` or from the module-level
    code of ``sources``."""
    reads, pending = {}, list(roots)
    for source in sources:
        for statement in ast.parse(source).body:
            if isinstance(statement, ast.ClassDef):
                methods = _methods(statement)
                for method in methods:
                    reads.setdefault(method.name, set()).update(_references(method))
                rest = [*statement.bases, *statement.keywords, *statement.decorator_list,
                        *(node for node in statement.body if node not in methods)]
                reads.setdefault(statement.name, set()).update(
                    name for node in rest for name in _references(node))
            elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
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


def _sources():
    return [path.read_text() for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"]


def _command_reach():
    return reached_names(_sources(), ["main"])


def public_methods(sources):
    """``Class.method`` for each public method of a module-level class."""
    return [f"{statement.name}.{method.name}" for source in sources
            for statement in ast.parse(source).body if isinstance(statement, ast.ClassDef)
            for method in _methods(statement) if not method.name.startswith("_")]


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
    errors = ("class Bad(Exception):\n"
              "    def __str__(self):\n"
              "        return dunder_read()\n"
              "    def unread(self):\n"
              "        return only_unread()\n")
    reached = reached_names([kernel, cli, errors], ["main"])
    names = ["tabled", "helper", "Bad", "errors", "Box", "method", "boxed", "dunder_read",
             "unreached", "unread", "only_unread"]
    assert [name for name in names if name not in reached] == [
        "unreached", "unread", "only_unread"]
    assert public_methods([kernel, errors]) == ["Box.method", "Bad.unread"]


def test_every_public_name_is_reached_named_or_declared():
    kept = _command_reach() | _bench_names() | set(PAPER_API)
    assert [name for name in archpi.__all__ if name not in kept] == []


def test_every_public_method_is_reached_named_or_declared():
    kept = _command_reach() | _bench_names()
    assert [method for method in public_methods(_sources())
            if method.split(".")[1] not in kept and method not in PAPER_API] == []


def test_paper_api_is_not_stale():
    # each entry resolves, starts at a public name, and is not reached
    # another way, which would make its place on the list redundant
    for entry in PAPER_API:
        reduce(getattr, entry.split("."), archpi)
        assert entry.split(".")[0] in archpi.__all__, entry
    reach = _command_reach() | _bench_names()
    assert [entry for entry in PAPER_API if entry.split(".")[-1] in reach] == []
