"""Every module of the package and of its tests parses under the oldest
Python that ``pyproject.toml`` declares (``requires-python``), so syntax
newer than that floor fails here on any interpreter that runs the tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "archpi").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def declared_floor():
    """(major, minor) of ``requires-python = ">=X.Y"`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"', text, re.M).groups()
    return int(major), int(minor)


def test_the_floor_is_read_and_newer_syntax_fails_there():
    assert declared_floor() == (3, 10)
    # an exception group handler is 3.11 syntax
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=declared_floor())
