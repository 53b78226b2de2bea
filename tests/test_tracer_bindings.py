"""The benchmark tracer names archpi functions by (module, name); each must
still resolve, or ``bench/run.py --trace 1`` breaks at install time."""

import importlib
import importlib.util
import pathlib

import archpi  # noqa: F401  (imports every archpi module the tracer names)
from archpi.interval import Interval

TRACER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("archpi_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_resolve():
    tracer = _load_tracer()
    missing = [
        f"archpi.{short}.{name}"
        for short, name in tracer.SPANNED
        if not callable(getattr(importlib.import_module(f"archpi.{short}"), name, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("archpi.interval").compare_certain)
    for attrs in tracer.INTERVAL_OPS.values():
        for attr in attrs:
            assert attr in Interval.__dict__, attr
