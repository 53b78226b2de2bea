"""End-to-end bit-identity pin: the seed-1 first block of each benchmark
workload, replayed through ``cli.main``, hashes to the digest that
``bench/run.py`` prints for it.

The requests come from ``bench/workloads.py`` and are hashed as
``bench/run.py``'s ``digest()`` hashes them, with every ``ARCHPI_*``
variable unset, as the benchmark runs.  A kernel or algorithm change that
alters any byte of any report changes the digest.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib

import pytest

from archpi.cli import main

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"

SEED_ONE_DIGESTS = {
    "arc-compare": "461172b2fc8558ba159efc658c9a9d4280fe1299212c4fb5f8220a6d457f3adc",
    "pi-digits": "2f3ced7f5325de520327b5ba292e4b42d2aaa54497cfda0508528bb8cd3c49f1",
    "circle-walks": "509c6d12667db95c6e85e6e2cc8cceb64bd0eb76bb449a8d10797ff05c0cdb6e",
}


def _first_block(workload, seed):
    spec = importlib.util.spec_from_file_location("archpi_bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.first_block(workload, seed)


@pytest.mark.parametrize("workload", sorted(SEED_ONE_DIGESTS))
def test_seed_one_first_block_digest(workload, monkeypatch):
    for name in [name for name in os.environ if name.startswith("ARCHPI_")]:
        monkeypatch.delenv(name)
    h = hashlib.sha256()
    for argv in _first_block(workload, 1):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        h.update(json.dumps([argv, code]).encode())
        h.update(out.getvalue().encode())
    assert h.hexdigest() == SEED_ONE_DIGESTS[workload]
