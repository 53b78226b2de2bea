"""Kernel microbenchmarks, timed directly with seeded operands.

Wrapping every Dyadic or Interval call in the traced run would swamp its
cost, so these are timed here instead: each kernel runs in a loop long
enough to take about ``TARGET_S`` seconds, five times, and the median time
per call is reported.  Operands have ``bits``-bit mantissas drawn from the
seed.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter
from typing import Callable, Dict

TARGET_S = 0.02
REPEATS = 5


def _per_call(fn: Callable[[], object], scale: float) -> float:
    """Median seconds per call of ``fn``, times ``scale``."""
    loops = 1
    while True:
        start = perf_counter()
        for _ in range(loops):
            fn()
        elapsed = perf_counter() - start
        if elapsed >= TARGET_S / 4 or loops >= 1 << 20:
            break
        loops *= 4
    loops = max(1, int(loops * TARGET_S / max(elapsed, 1e-9)))
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        for _ in range(loops):
            fn()
        times.append((perf_counter() - start) / loops)
    return statistics.median(times) * scale


def _dyadic(rng: random.Random, bits: int, exp: int):
    from archpi.dyadic import Dyadic

    return Dyadic(rng.getrandbits(bits) | (1 << (bits - 1)) | 1, exp)


def _interval(rng: random.Random, bits: int):
    """A positive interval near 1.5 with ``bits``-bit endpoints."""
    from archpi.interval import Interval

    lo = _dyadic(rng, bits, 1 - bits)
    width = _dyadic(rng, bits // 2, 1 - bits)
    return Interval(lo, lo + width, bits)


def kernel_metrics(seed: int) -> Dict[str, float]:
    from archpi.chords import ArcSpec, solve_regular_chord
    from archpi.circuits import step_by_chord, unit_start
    from archpi.dyadic import Dyadic
    from archpi.interval import Interval
    from archpi.polygons import halve_edge
    from archpi.trig import geometric_point

    rng = random.Random(f"kernels:{seed}")
    ns, us, ms = 1e9, 1e6, 1e3
    out: Dict[str, float] = {}
    for bits in (64, 1024):
        tag = f"p{bits}"
        a = _dyadic(rng, bits, -bits)
        b = _dyadic(rng, bits, 3 - bits)
        wide = a * b
        out[f"dyadic.add.ns.{tag}"] = _per_call(lambda: a + b, ns)
        out[f"dyadic.mul.ns.{tag}"] = _per_call(lambda: a * b, ns)
        out[f"dyadic.cmp.ns.{tag}"] = _per_call(lambda: a < b, ns)
        out[f"dyadic.round.ns.{tag}"] = _per_call(lambda: wide.round(bits, True), ns)
        out[f"dyadic.div.ns.{tag}"] = _per_call(lambda: a.div(b, bits, True), ns)
        out[f"dyadic.sqrt.ns.{tag}"] = _per_call(lambda: a.sqrt(bits, True), ns)
        x, y = _interval(rng, bits), _interval(rng, bits)
        out[f"interval.mul.ns.{tag}"] = _per_call(lambda: x * y, ns)
        out[f"interval.div.ns.{tag}"] = _per_call(lambda: x / y, ns)
        out[f"interval.sqrt.ns.{tag}"] = _per_call(x.sqrt, ns)
        out[f"interval.add.ns.{tag}"] = _per_call(lambda: x + y, ns)
        # a chord near 1, about a sixth of the circle, jittered by the seed
        chord = Interval.exact(Dyadic(rng.randint(60000, 70000), -16), bits)
        out[f"polygons.halve_edge.us.{tag}"] = _per_call(lambda: halve_edge(chord), us)
    step = Interval.exact(Dyadic(rng.randint(6554, 65536), -16), 64)
    start = unit_start(64)
    out["circuits.step_by_chord.us.p64"] = _per_call(lambda: step_by_chord(start, step), us)
    arc_chord = Interval.exact(Dyadic(rng.randint(6554, 130416), -16), 64)
    arc = ArcSpec.from_chord(arc_chord)
    for n in (2, 32):
        out[f"chords.solve_regular_chord.ms.n{n}"] = _per_call(
            lambda: solve_regular_chord(arc, n, 64), ms)
    theta = Interval.exact(Dyadic(rng.randint(1, 1 << 16), -16), 128)
    out["trig.geometric_point.ms.p128"] = _per_call(lambda: geometric_point(theta, 128), ms)
    return out
