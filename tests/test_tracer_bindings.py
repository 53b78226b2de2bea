"""The benchmark tracer names archpi functions by (module, name), and the
kernel timings import archpi names; each must still resolve, or
``bench/run.py --trace 1`` breaks at install time or when it times kernels."""

import ast
import importlib
import importlib.util
import pathlib

import archpi  # noqa: F401  (imports every archpi module the tracer names)
from archpi.interval import Interval

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
KERNELS = BENCH / "kernels.py"


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


def kernel_imports():
    """Every ``from archpi.<module> import <name>`` in the kernel timings,
    wherever it sits in the file, as (module, name): read, not run."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(KERNELS.read_text()))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("archpi")
            for alias in node.names]


def test_kernel_imports_resolve():
    imports = kernel_imports()
    assert ("archpi.polygons", "halve_edge") in imports
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
