"""Every ``functools`` cache in the package is bounded by an explicit
integer ``maxsize``, and the README's cache bullet names every cache the
package keeps and every public ``cached_property``, and no cache of a
package module that the module does not keep.

A cache keeps its results for the life of the process, so one without a
bound grows with every distinct argument a long-lived caller sends.  The
package is read with ``ast`` and the README as text; nothing is imported
or run.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "archpi"
README = ROOT / "README.md"
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


def kept_names(source):
    """The names of what ``source`` keeps for the life of the process: its
    functions under a ``functools`` cache, and the module-level names a
    function rebinds through ``global``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Global):
            names.update(node.names)
        for use in getattr(node, "decorator_list", []):
            if _name(use.func if isinstance(use, ast.Call) else use) in CACHES:
                names.add(node.name)
    return names


def test_kept_names_are_found():
    source = ("import functools\n"
              "from functools import cached_property, lru_cache\n"
              "_kept = ''\n"
              "_constant = 3\n"
              "@lru_cache(maxsize=64)\n"
              "def cached(x): return x\n"
              "@functools.cache\n"
              "def forever(x): return x\n"
              "def keeps(x):\n"
              "    global _kept\n"
              "    _kept = x\n"
              "def plain(x): return x\n"
              "class C:\n"
              "    @cached_property\n"
              "    def kept(self): return 1\n")
    assert kept_names(source) == {"cached", "forever", "_kept"}


def kept_properties(source):
    """The public ``cached_property`` names of ``source``: what an instance
    keeps for as long as it lives."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and any(_name(use) == "cached_property" for use in node.decorator_list)}


def test_kept_properties_are_found():
    source = ("import functools\n"
              "from functools import cached_property, lru_cache\n"
              "class C:\n"
              "    @cached_property\n"
              "    def kept(self): return 1\n"
              "    @functools.cached_property\n"
              "    def qualified(self): return 1\n"
              "    @cached_property\n"
              "    def _private(self): return 1\n"
              "    @property\n"
              "    def formed(self): return 1\n"
              "    @lru_cache(maxsize=1)\n"
              "    def cached(self): return 1\n")
    assert kept_properties(source) == {"kept", "qualified"}


def _cache_bullet():
    """The README bullet that lists the caches, up to the next bullet."""
    text = README.read_text()
    start = text.index("- Every cache the process keeps")
    return text[start:text.index("\n- ", start)]


def test_the_readme_names_every_kept_cache():
    kept = {f"{path.stem}.{name}" for path in MODULES
            for name in kept_names(path.read_text())}
    # the digit string is found, so the search reads a rebinding
    assert "polygons._digit_string" in kept
    bullet = _cache_bullet()
    assert {name for name in kept if f"`{name}`" not in bullet} == set()


def test_the_readme_names_no_stale_cache():
    # every `module.name` of the bullet whose module is a file of the
    # package is a name that module keeps
    kept = {path.stem: kept_names(path.read_text()) for path in MODULES}
    named = re.findall(r"`(\w+)\.(\w+)`", _cache_bullet())
    assert {module for module, _ in named} & set(kept)
    assert [f"{module}.{name}" for module, name in named
            if module in kept and name not in kept[module]] == []


def test_the_readme_names_every_kept_property():
    kept = {name for path in MODULES for name in kept_properties(path.read_text())}
    assert "winding" in kept
    bullet = _cache_bullet()
    assert {name for name in kept if f"`{name}`" not in bullet} == set()
