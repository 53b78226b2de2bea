"""Spans and counts around archpi's public functions, installed from outside.

``Tracer.install()`` replaces every module binding of each traced function
with a wrapper, so ``from .circuits import step_by_chord`` in chords,
rational and trig is traced as well as circuits' own name.  The Interval
operators are wrapped on the class: ``__mul__`` and its ``__rmul__`` alias
each get a wrapper, and so do ``__add__`` and ``__radd__``.  ``restore()``
puts every original back.  Nothing under src/ is edited.

A span is [name, start, end, parent index, interval muls inside it]; the
root span of each request is its ``cli.main`` call.  Spans stay in memory
until the run ends, when ``layer_metrics`` turns them into per-layer numbers
and run.py writes them out.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: functions traced with spans, as (module, name); the span is "module.name"
SPANNED = [
    ("cli", "main"),
    ("suites", "run_suite"),
    ("chords", "chord_compare"),
    ("chords", "tangent_compare"),
    ("chords", "partition_profile"),
    ("chords", "solve_regular_chord"),
    ("polygons", "pi_digits"),
    ("polygons", "pi_bounds"),
    ("polygons", "pi_enclosure"),
    ("polygons", "halve_edge"),
    ("circuits", "random_circuit"),
    ("circuits", "regular_ring"),
    ("circuits", "circuit_measures"),
    ("circuits", "step_by_chord"),
    ("rational", "realize_rational"),
    ("rational", "winding_count"),
    ("rational", "gamma_path"),
    ("trig", "sandwich_report"),
    ("trig", "geometric_point"),
]

#: Interval operators counted without spans: counter name -> class attributes
INTERVAL_OPS = {
    "interval.mul": ("__mul__", "__rmul__"),
    "interval.add": ("__add__", "__radd__"),
    "interval.sub": ("__sub__",),        # __rsub__ delegates to __sub__
    "interval.div": ("__truediv__",),    # __rtruediv__ delegates to __truediv__
    "interval.sqrt": ("sqrt",),
}


def _module(short: str):
    return sys.modules[f"archpi.{short}"]


def _bindings(fn) -> List[Tuple[object, str]]:
    """Every (module, attribute) in the archpi package bound to ``fn``."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "archpi" or name.startswith("archpi."):
            for attr, value in vars(mod).items():
                if value is fn:
                    found.append((mod, attr))
    return found


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.prec_sum = 0                 # pi_bounds precision, summed
        self.escalated = 0                # compare calls that raised precision
        self.ring_ids: Dict[int, list] = {}
        self.ring_hits = 0
        self.ring_points_built = 0
        self.circuit_vertices = 0
        self.suite_rows = 0
        self.bindings: Dict[str, List[str]] = {}
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, after: Optional[Callable]):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, counts["interval.mul"]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                rec[4] = counts["interval.mul"] - rec[4]
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn: Callable):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- result hooks ----------------------------------------------------------------

    def _after_pi_bounds(self, args, kwargs, result):
        self.prec_sum += args[1] if len(args) > 1 else kwargs["prec"]

    def _after_compare(self, args, kwargs, result):
        prec = args[3] if len(args) > 3 else kwargs["prec"]
        self.escalated += result.precision_used > prec

    def _after_regular_ring(self, args, kwargs, result):
        # a cache hit hands back the very list object an earlier call built
        if id(result) in self.ring_ids:
            self.ring_hits += 1
        else:
            self.ring_ids[id(result)] = result
            self.ring_points_built += len(result)

    def _after_random_circuit(self, args, kwargs, result):
        self.circuit_vertices += len(result)

    def _after_run_suite(self, args, kwargs, result):
        self.suite_rows += len(result.rows)

    # -- install / restore ---------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "polygons.pi_bounds": self._after_pi_bounds,
            "chords.chord_compare": self._after_compare,
            "chords.tangent_compare": self._after_compare,
            "circuits.regular_ring": self._after_regular_ring,
            "circuits.random_circuit": self._after_random_circuit,
            "suites.run_suite": self._after_run_suite,
        }
        replacements = []
        for short, attr in SPANNED:
            fn = getattr(_module(short), attr)
            name = f"{short}.{attr}"
            replacements.append((name, fn, self._span_wrapper(name, fn, hooks.get(name))))
        compare = _module("interval").compare_certain
        replacements.append(
            ("interval.compare_certain", compare,
             self._count_wrapper("interval.compare_certain", compare))
        )
        for name, fn, wrapper in replacements:
            sites = _bindings(fn)
            self.bindings[name] = sorted(f"{m.__name__}.{a}" for m, a in sites)
            for mod, attr in sites:
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)
        interval_cls = _module("interval").Interval
        for name, attrs in INTERVAL_OPS.items():
            for attr in attrs:
                fn = interval_cls.__dict__[attr]
                self._saved.append((interval_cls, attr, fn))
                setattr(interval_cls, attr, self._count_wrapper(name, fn))
                self.bindings.setdefault(name, []).append(f"Interval.{attr}")

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- derived metrics ---------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        spans = self.spans
        calls: Counter = Counter()
        total = defaultdict(float)
        self_time = defaultdict(float)
        muls = Counter()
        under: Counter = Counter()        # (name, ancestor name) -> calls
        for rec in spans:
            name, start, end, parent, mul = rec
            dur = end - start
            calls[name] += 1
            muls[name] += mul
            self_time[name] += dur
            if parent >= 0:
                self_time[spans[parent][0]] -= dur
            ancestors = set()
            p = parent
            while p >= 0:
                ancestors.add(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                total[name] += dur
            for anc in ancestors:
                under[name, anc] += 1

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        requests = calls["cli.main"]
        request_s = total["cli.main"]
        compares = calls["chords.chord_compare"] + calls["chords.tangent_compare"]
        points = calls["trig.geometric_point"]
        metrics = {
            "cli.self_s": self_time["cli.main"],
            "cli.requests": requests,
            "suites.self_s": self_time["suites.run_suite"],
            "suites.rows": self.suite_rows,
            "chords.solve_regular_chord.calls": calls["chords.solve_regular_chord"],
            "chords.solve_regular_chord.s": total["chords.solve_regular_chord"],
            "chords.solve_regular_chord.share": ratio(
                total["chords.solve_regular_chord"], request_s),
            "chords.solve_regular_chord.interval_mul_per_call": ratio(
                muls["chords.solve_regular_chord"], calls["chords.solve_regular_chord"]),
            "chords.partition_profile.self_s": self_time["chords.partition_profile"],
            "chords.compare.escalation_ratio": ratio(self.escalated, compares),
            "polygons.halve_edge.calls": calls["polygons.halve_edge"],
            "polygons.halve_edge.s": total["polygons.halve_edge"],
            "polygons.pi_bounds.calls": calls["polygons.pi_bounds"],
            "polygons.pi_bounds.per_digits_request": ratio(
                under["polygons.pi_bounds", "polygons.pi_digits"],
                calls["polygons.pi_digits"]),
            "polygons.pi_bounds.bits_mean": ratio(
                self.prec_sum, calls["polygons.pi_bounds"]),
            "polygons.pi_enclosure.s": total["polygons.pi_enclosure"],
            "circuits.step_by_chord.calls": calls["circuits.step_by_chord"],
            "circuits.step_by_chord.s": total["circuits.step_by_chord"],
            "circuits.regular_ring.calls": calls["circuits.regular_ring"],
            "circuits.regular_ring.s": total["circuits.regular_ring"],
            "circuits.ring_cache.hit_ratio": ratio(
                self.ring_hits, calls["circuits.regular_ring"]),
            "circuits.ring_points_built": self.ring_points_built,
            "circuits.vertices_per_ring_point": ratio(
                self.circuit_vertices, self.ring_points_built),
            "circuits.circuit_measures.s": total["circuits.circuit_measures"],
            "rational.realize_rational.s": total["rational.realize_rational"],
            "rational.solve_per_realize": ratio(
                under["chords.solve_regular_chord", "rational.realize_rational"],
                calls["rational.realize_rational"]),
            "rational.winding_count.s": total["rational.winding_count"],
            "rational.gamma_path.s": total["rational.gamma_path"],
            "trig.geometric_point.s": total["trig.geometric_point"],
            "trig.halve_edge_per_point": ratio(
                under["polygons.halve_edge", "trig.geometric_point"], points),
            "trig.step_by_chord_per_point": ratio(
                under["circuits.step_by_chord", "trig.geometric_point"], points),
            "trig.sandwich_report.self_s": self_time["trig.sandwich_report"],
        }
        for op in ("mul", "div", "sqrt", "add", "sub", "compare_certain"):
            metrics[f"interval.{op}.calls"] = c[f"interval.{op}"]
        return metrics


#: per-layer metrics that are counts or ratios of counts, which must repeat
COUNT_METRICS = (
    "cli.requests",
    "suites.rows",
    "chords.solve_regular_chord.calls",
    "chords.solve_regular_chord.interval_mul_per_call",
    "chords.compare.escalation_ratio",
    "polygons.halve_edge.calls",
    "polygons.pi_bounds.calls",
    "polygons.pi_bounds.per_digits_request",
    "polygons.pi_bounds.bits_mean",
    "circuits.step_by_chord.calls",
    "circuits.regular_ring.calls",
    "circuits.ring_cache.hit_ratio",
    "circuits.ring_points_built",
    "circuits.vertices_per_ring_point",
    "rational.solve_per_realize",
    "trig.halve_edge_per_point",
    "trig.step_by_chord_per_point",
    "interval.mul.calls",
    "interval.div.calls",
    "interval.sqrt.calls",
    "interval.add.calls",
    "interval.sub.calls",
    "interval.compare_certain.calls",
)
