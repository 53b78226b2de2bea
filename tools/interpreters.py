"""Byte-check the CLI across the installed CPython interpreters.

Runs, in one process per interpreter, the README's ``archpi`` examples, the
odd and declined requests of ``tests/test_cli_dispatch.py``'s ``_ODD`` (help,
usage errors, abbreviations, ``--flag=value``, values starting with ``-``
and the other shapes the flag table leaves to argparse) and the seed-1
benchmark blocks (the first block of each workload, then the second
circle-walks block, which the first one's kept values serve) through
``archpi.cli.main``.  Every pyenv CPython from 3.10 to 3.13 is used, and
each request's stdout, stderr and exit code are compared with those under
3.11.  It prints each interpreter's per-group sha256, hashed as
``bench/run.py`` hashes a block, then every request that differs.

    python3 tools/interpreters.py            # exit 0: no byte differs

Exit 1 if a byte differs or an interpreter fails to run, 2 if no 3.11 is
installed.  Only the standard library is used, since the other
interpreters need not have pytest.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = "3.11"
MINORS = range(10, 14)

#: run under each interpreter: prints one JSON list of
#: [group, argv, code, stdout, stderr] for every request
_CHILD = r"""
import contextlib, importlib.util, io, itertools, json, sys
root = sys.argv[1]
sys.path.insert(0, root + "/src")
from archpi.cli import main
spec = importlib.util.spec_from_file_location("workloads", root + "/bench/workloads.py")
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
groups = [("readme", json.loads(sys.argv[2])), ("odd and declined", json.loads(sys.argv[3]))]
groups += [(name, workloads.first_block(name, 1))
           for name in ("arc-compare", "pi-digits", "circle-walks")]
first = groups[-1][1]
stream = workloads.stream("circle-walks", 1)
groups.append(("circle-walks second block",
               list(itertools.islice(stream, len(first), 2 * len(first)))))
replies = []
for group, block in groups:
    for argv in block:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        replies.append([group, argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(replies))
"""


def readme_examples() -> list:
    """The argv of each ``archpi`` line in the README's fenced ``sh`` blocks."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    return [line.split("#")[0].split()[1:] for block in blocks
            for line in block.splitlines() if line.startswith("archpi ")]


def odd_requests() -> list:
    """The ``_ODD`` list of ``tests/test_cli_dispatch.py``, read, not run."""
    tree = ast.parse((ROOT / "tests" / "test_cli_dispatch.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_ODD")


def interpreters() -> dict:
    """{"3.x": path} of the newest installed pyenv CPython of each minor in ``MINORS``."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = {}
    for path in sorted(root.glob("3.*"), key=lambda p: [int(n) for n in
                                                         re.findall(r"\d+", p.name)]):
        match = re.fullmatch(r"3\.(\d+)\.\d+", path.name)
        python = path / "bin" / "python3"
        if match and int(match[1]) in MINORS and python.exists():
            found[f"3.{match[1]}"] = python
    return found


def run(python: Path, examples: list, odd: list) -> list:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("ARCHPI_", "PYTHON"))}
    done = subprocess.run([str(python), "-c", _CHILD, str(ROOT), json.dumps(examples),
                           json.dumps(odd)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout)


def digests(replies: list) -> dict:
    hashes = {}
    for group, argv, code, out, _ in replies:
        h = hashes.setdefault(group, hashlib.sha256())
        h.update(json.dumps([argv, code]).encode())
        h.update(out.encode())
    return {group: h.hexdigest() for group, h in hashes.items()}


def main() -> int:
    found = interpreters()
    if REFERENCE not in found:
        print(f"no CPython {REFERENCE} under pyenv", file=sys.stderr)
        return 2
    examples, odd = readme_examples(), odd_requests()
    status = 0
    replies = {}
    for version, python in found.items():
        try:
            replies[version] = run(python, examples, odd)
        except subprocess.CalledProcessError as exc:
            print(f"{version} ({python}) failed:\n{exc.stderr}", file=sys.stderr)
            status = 1
            continue
        print(f"{version} {python}: {len(replies[version])} requests")
        for group, digest in digests(replies[version]).items():
            print(f"  {digest[:16]}  {group}")
    if REFERENCE not in replies:
        return 1
    reference = replies[REFERENCE]
    for version, theirs in replies.items():
        if len(theirs) != len(reference):
            status = 1
        for ours, other in zip(reference, theirs):
            parts = [part for part, a, b in zip(("code", "stdout", "stderr"), ours[2:], other[2:])
                     if a != b]
            if parts:
                print(f"{version} differs from {REFERENCE} in {', '.join(parts)}: "
                      f"archpi {' '.join(ours[1])}")
                status = 1
    if status == 0:
        print(f"every request gives the same bytes under {', '.join(replies)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
