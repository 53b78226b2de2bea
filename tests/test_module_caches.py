"""Every ``functools`` cache in the package is bounded by an explicit
integer ``maxsize``.

A cache keeps its results for the life of the process, so one without a
bound grows with every distinct argument a long-lived caller sends.  The
package is read with ``ast``; nothing is imported or run.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "archpi"
MODULES = sorted(PACKAGE.glob("*.py"))

CACHES = {"lru_cache", "cache"}


def _name(node):
    """``lru_cache`` for both ``lru_cache`` and ``functools.lru_cache``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _bounded(node):
    """Is ``node`` ``lru_cache(maxsize=k)`` or ``lru_cache(k)``, k an int literal?"""
    if not (isinstance(node, ast.Call) and _name(node.func) == "lru_cache"):
        return False
    given = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
    return (len(given) == 1 and isinstance(given[0], ast.Constant)
            and type(given[0].value) is int)


def unbounded_caches(source):
    """Line numbers of the caches in ``source`` without an explicit integer
    ``maxsize``: as a decorator, called or bare, or called as a function."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        uses = list(getattr(node, "decorator_list", []))
        if isinstance(node, ast.Call):
            uses.append(node)
        for use in uses:
            named = _name(use.func if isinstance(use, ast.Call) else use)
            if named in CACHES and not _bounded(use):
                lines.add(use.lineno)
    return sorted(lines)


def test_unbounded_caches_are_found():
    source = ("import functools\n"
              "from functools import cache, cached_property, lru_cache\n"
              "@lru_cache(maxsize=64)\n"
              "def bounded(x): return x\n"
              "@functools.lru_cache(8)\n"
              "def positional(x): return x\n"
              "@lru_cache\n"
              "def implicit(x): return x\n"
              "@lru_cache(maxsize=None)\n"
              "def unbounded(x): return x\n"
              "@functools.cache\n"
              "def forever(x): return x\n"
              "wrapped = lru_cache(maxsize=None)(len)\n"
              "class C:\n"
              "    @cached_property\n"
              "    def kept(self): return 1\n"
              "    @cache\n"
              "    def method(self): return 1\n")
    assert unbounded_caches(source) == [7, 9, 11, 13, 17]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_cache_has_an_integer_maxsize(path):
    assert unbounded_caches(path.read_text()) == []
