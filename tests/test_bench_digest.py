"""End-to-end bit-identity pin: the seed-1 first block of each benchmark
workload, replayed through ``cli.main``, hashes to the digest that
``bench/run.py`` prints for it.

The requests come from ``bench/workloads.py`` and are hashed as
``bench/run.py``'s ``digest()`` hashes them, with every ``ARCHPI_*``
variable unset, as the benchmark runs.  A kernel or algorithm change that
alters any byte of any report changes the digest.

The first block is replayed on nothing kept, as in the benchmark's fresh
process; it fills what the process keeps, and the blocks after it are
served from that.  So the second circle-walks block, replayed on what the
first kept and again on nothing kept, must give the same bytes.
"""

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import pathlib
import sys

import pytest

from archpi import polygons
from archpi.cli import main

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

SEED_ONE_DIGESTS = {
    "arc-compare": "461172b2fc8558ba159efc658c9a9d4280fe1299212c4fb5f8220a6d457f3adc",
    "pi-digits": "2f3ced7f5325de520327b5ba292e4b42d2aaa54497cfda0508528bb8cd3c49f1",
    "circle-walks": "509c6d12667db95c6e85e6e2cc8cceb64bd0eb76bb449a8d10797ff05c0cdb6e",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("archpi_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unset_archpi_variables(monkeypatch):
    for name in [name for name in os.environ if name.startswith("ARCHPI_")]:
        monkeypatch.delenv(name)


def _replay(block):
    """(argv, exit code, stdout, stderr) of each request of ``block``."""
    runs = []
    for argv in block:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        runs.append((argv, code, out.getvalue(), err.getvalue()))
    return runs


def _forget_everything_kept():
    """Clear every ``lru_cache`` of the package and its kept digit string."""
    for module in [module for name, module in sys.modules.items()
                   if name.startswith("archpi.")]:
        for value in vars(module).values():
            if getattr(value, "__module__", None) == module.__name__ and hasattr(
                    value, "cache_clear"):
                value.cache_clear()
    polygons._digit_string = ""


def test_second_circle_walks_block_is_the_same_warm_and_cold(monkeypatch):
    _unset_archpi_variables(monkeypatch)
    workloads = _workloads()
    first = workloads.first_block("circle-walks", 1)
    stream = workloads.stream("circle-walks", 1)
    assert list(itertools.islice(stream, len(first))) == first
    second = list(itertools.islice(stream, len(first)))
    _forget_everything_kept()
    _replay(first)
    warm = _replay(second)
    _forget_everything_kept()
    cold = _replay(second)
    assert warm == cold


@pytest.mark.parametrize("workload", sorted(SEED_ONE_DIGESTS))
def test_seed_one_first_block_digest(workload, monkeypatch):
    _unset_archpi_variables(monkeypatch)
    # nothing kept, as in the benchmark's fresh process
    _forget_everything_kept()
    h = hashlib.sha256()
    for argv, code, out, _ in _replay(_workloads().first_block(workload, 1)):
        h.update(json.dumps([argv, code]).encode())
        h.update(out.encode())
    assert h.hexdigest() == SEED_ONE_DIGESTS[workload]
