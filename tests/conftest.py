"""Shared pytest hooks: surface acceptance pass/fail lines in the summary,
and fixtures that run a test on empty ``realize_rational`` and
``cli._sweep_text`` caches or without ``pi_digits``' kept digit string."""

import pytest

from archpi import cli, polygons
from archpi.rational import realize_rational

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def cold_rational():
    """``realize_rational``'s cache and the CLI's kept sweep row texts,
    emptied before the test and after it.

    A cached ``RationalLength`` keeps the measures it formed, and a kept row
    text the decimals of a row, so a test that counts or patches what forms
    them must start without either, and must not leave behind what a patched
    function formed.
    """
    realize_rational.cache_clear()
    cli._sweep_text.cache_clear()
    yield
    realize_rational.cache_clear()
    cli._sweep_text.cache_clear()


@pytest.fixture
def cold_digits():
    """``pi_digits``' kept digit string, emptied before the test and after it.

    A warm ``pi_digits`` serves a count its kept string holds without a
    Romberg kernel call, so a test that counts or patches those calls must
    start without it, and must not leave behind digits a patched kernel made.
    """
    polygons._digit_string = ""
    yield
    polygons._digit_string = ""
