"""The fenced ``python`` blocks of README.md run as written, its ceiling
tables list the ceilings the code enforces, and the commands its exit-code
paragraph gives as inconclusive exit 3."""

import re
from pathlib import Path

from archpi.cli import PRECISION_CEILING, main
from archpi.suites import MOST

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def _table(header):
    """{first cell without backticks: second cell as an int} of the table
    under the given header row."""
    lines = README.read_text().splitlines()
    start = lines.index(header) + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0].strip("`")] = int(cells[1].replace(",", ""))
    return rows


def test_readme_ceiling_tables_match_the_code():
    assert _table("| Command | Ceiling (bits) | Time at the ceiling |") == PRECISION_CEILING
    sizes = _table("| Flag | Ceiling | Time at the ceiling |")
    assert {flag[2:].replace("-", "_"): value for flag, value in sizes.items()} == MOST


def test_readme_exit_code_examples_exit_3(capsys):
    text = README.read_text()
    start = text.index("Exit codes: ")
    paragraph = text[start:text.index("\n\n", start)]
    commands = [span for span in re.findall(r"`([^`]+)`", paragraph) if " --" in span]
    assert len(commands) >= 8
    for command in commands:
        assert main(command.split()) == 3, command
        capsys.readouterr()
