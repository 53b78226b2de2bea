"""Verification suites: every inequality family gets a machine-checked run.

A suite is a generator of report rows, and each row is a plain ``dict``
finished where it is made, by one of two functions.  ``checked`` gives a
row its ``status`` and ``verdict`` from its checks.  A check is either a
certified comparison, given as ``(expected, observed)`` Verdicts, or an
exact predicate, given as a bool:

- an observed ``overlap`` makes the row ``inconclusive`` (the intervals still
  overlap at this precision);
- otherwise any failed check makes it ``violated`` (the inequality certifiably
  fails);
- otherwise the row is ``ok``.

``verdict`` is the observed value of a row's single comparison, or
``holds``/``fails`` for a row with several checks or a predicate.
``fell_short`` finishes a row whose checks a precision shortfall (an error
in ``errors.SHORTFALLS``) stopped: it is ``inconclusive`` with verdict
``shortfall`` and names the error and the precision.  A sample of a
randomized suite, a coprime pair of ``rational``, an (n, m) step of
``h-ratio`` or a k of ``trig-sandwich`` that falls short is one such row,
naming its seed, pair, step or k; the other rows still run.

``run_suite`` collects a suite's rows into a ``SuiteResult``, the only place
one is built; its ``samples``, ``violations`` and ``inconclusive`` counts
are read off the rows.  Every suite takes only the keyword arguments in its
signature; ``run_suite`` rejects, up front, by ``require_bound``, a size
below its ``LEAST`` value, where the suite would make no check, or above
its ``MOST`` value, and a job count outside 1..``MAX_JOBS``.
Randomized suites parallelize over samples; each sample owns its seed and
returns its finished rows.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple, Union

from .chords import (ArcSpec, _partition, _projections, chord_compare, tangent_compare,
                     tangent_segments)
from .circuits import circuit_measures, distance, random_circuit
from .dyadic import Dyadic
from .errors import SHORTFALLS
from .interval import Interval, Verdict, compare_certain
from .polygons import RegularScheme, iter_scheme_measures, pi_bounds, pi_enclosure
from .rational import coprime_pairs, normalized_compare, realize_rational
from .trig import sandwich_report

DEFAULT_PRECISION = 64
DEFAULT_SEED = 1

#: chord range for sampled arcs, as 2^-16 fixed-point bounds on (0.1, 1.99)
_ARC_LO = 6554
_ARC_HI = 130416

#: the least value of each size parameter that still yields a check
LEAST = {"samples": 1, "circuits_per_cap": 1, "k_max": 1, "m_max": 0, "max_n": 3}

#: the least ``bounds --n`` and ``--m``, a base polygon and a refinement
#: depth; kept apart from ``LEAST``, whose keys are ``verify``'s size flags
_SCHEME_LEAST = {"n": 3, "m": 0}

#: the most of each size parameter, and of ``bounds --m``: at its default
#: precision, every suite and command that takes one ran in at most 15 s at
#: the ceiling on a 2-CPU x86-64 host under CPython 3.11 (README table).
#: ``m`` also keeps the edge count 6*2^m within Python's 4300-digit
#: int-to-str limit
MOST = {"samples": 10_000, "circuits_per_cap": 1_000, "k_max": 1_024,
        "m_max": 10_000, "max_n": 256, "m": 10_000}

#: the most worker processes a suite may be asked for; it starts at most one
#: per sample and per CPU
MAX_JOBS = 256


def require_bound(key: str, value: int, name: str) -> None:
    """Reject, before any work, a size ``key`` below its ``LEAST`` or
    ``_SCHEME_LEAST`` value or above its ``MOST`` value, or a ``jobs`` count
    outside 1..``MAX_JOBS``.  The message calls the value ``name``: a
    keyword, a flag or a variable."""
    least = LEAST.get(key, _SCHEME_LEAST.get(key))
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    if key in MOST and value > MOST[key]:
        raise ValueError(f"{name} must be at most {MOST[key]}, got {value}")
    if key == "jobs" and not 1 <= value <= MAX_JOBS:
        raise ValueError(f"{name} must lie in 1..{MAX_JOBS}, got {value}")


LESS = Verdict.CERTAINLY_LESS
GREATER = Verdict.CERTAINLY_GREATER

#: a certified comparison (expected, observed) or an exact predicate
Check = Union[Tuple[Verdict, Verdict], bool]


def checked(row: dict, *checks: Check) -> dict:
    """``row`` with the ``verdict`` and ``status`` its checks give.

    An observed overlap makes the row inconclusive; otherwise any failed
    check makes it violated.
    """
    observed = [c[1] for c in checks if isinstance(c, tuple)]
    holds = all(c[0] is c[1] if isinstance(c, tuple) else c for c in checks)
    if len(checks) == 1 and observed:
        verdict = observed[0].value
    else:
        verdict = "holds" if holds else "fails"
    if Verdict.OVERLAP in observed:
        status = "inconclusive"
    else:
        status = "ok" if holds else "violated"
    return dict(row, verdict=verdict, status=status)


def shortfall_row(row: dict, precision: int, exc: Exception) -> dict:
    """``row``, the keys naming a row, plus the shortfall that stopped it."""
    return dict(row, precision=precision, error=type(exc).__name__,
                message=str(exc))


def fell_short(row: dict, precision: int, exc: Exception) -> dict:
    """``row``, whose checks the shortfall ``exc`` stopped, as inconclusive."""
    return dict(shortfall_row(row, precision, exc), verdict="shortfall",
                status="inconclusive")


@dataclass
class SuiteResult:
    suite: str
    rows: List[dict]

    @property
    def samples(self) -> int:
        return len(self.rows)

    @property
    def violations(self) -> int:
        return sum(row["status"] == "violated" for row in self.rows)

    @property
    def inconclusive(self) -> int:
        return sum(row["status"] == "inconclusive" for row in self.rows)


def _sample_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) & 0xFFFFFFFFFFFFFFFF


def _random_arc(rng: random.Random, prec: int) -> ArcSpec:
    chord = Dyadic(rng.randint(_ARC_LO, _ARC_HI), -16)
    return ArcSpec.from_chord(Interval.exact(chord, prec))


def _dec(x: Interval) -> List[str]:
    return list(x.decimal_pair(17))


def _map_samples(fn: Callable, args: List, jobs: int) -> List:
    workers = (min(jobs, len(args), os.cpu_count() or 1)
               if jobs > 1 and len(args) > 1 else 1)
    if workers <= 1:
        return [fn(a) for a in args]
    # only --jobs > 1 gets here: the pool's import stays off every other run
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args, chunksize=8))


# -- polygon grid suites -----------------------------------------------------


def run_monotone(
    n_values=(3, 4, 6), m_max: int = 25, precision: int = 256
) -> Iterator[dict]:
    """Prop-style monotonicity: p, a increase in m; P, A decrease."""
    for n in n_values:
        chain = list(iter_scheme_measures(n, m_max + 1, precision))
        for m in range(m_max + 1):
            cur, nxt = chain[m], chain[m + 1]
            for name, lhs, rhs, expected in (
                ("p", cur.p, nxt.p, LESS),
                ("a", cur.a, nxt.a, LESS),
                ("P", cur.P, nxt.P, GREATER),
                ("A", cur.A, nxt.A, GREATER),
            ):
                row = {"suite": "monotone", "n": n, "m": m, "measure": name}
                yield checked(row, (expected, compare_certain(lhs, rhs)))


def run_bounds(
    n_values=(3, 4, 6), m_max: int = 25, precision: int = 256
) -> Iterator[dict]:
    """p < P and a < A at every refinement step."""
    for n in n_values:
        for meas in iter_scheme_measures(n, m_max, precision):
            for name, lhs, rhs in (("p<P", meas.p, meas.P), ("a<A", meas.a, meas.A)):
                row = {"suite": "bounds", "n": n, "m": meas.scheme.m, "check": name}
                yield checked(row, (LESS, compare_certain(lhs, rhs)))


def run_h_ratio(
    n_values=(3, 4, 6), m_max: int = 25, precision: int = 256
) -> Iterator[dict]:
    """Vertex gap contraction h(m) > 3 h(m+1), with the observed ratio.

    A step whose ratio a shortfall stops is one inconclusive row.
    """
    for n in n_values:
        chain = list(iter_scheme_measures(n, m_max + 1, precision))
        for m in range(m_max + 1):
            h_cur, h_next = chain[m].h, chain[m + 1].h
            row = {"suite": "h-ratio", "n": n, "m": m}
            try:
                row["ratio"] = _dec(h_cur / h_next)
            except SHORTFALLS as exc:
                yield fell_short(row, precision, exc)
                continue
            yield checked(row, (GREATER, compare_certain(h_cur, h_next * 3)))


def run_identities(
    n_values=(3, 4, 6),
    m_max: int = 25,
    precision: int = 256,
    limit_m: int = 40,
) -> Iterator[dict]:
    """Each area by a second route, plus cross-scheme pi agreement.

    The inscribed 2N-gon's area a_2N is the N-gon's half perimeter p_N/2,
    and the circumscribed area A_N is a_N*4/(4 - ell_N^2).  An identity
    holds when its two enclosures overlap (they cannot be separated) and
    are narrow relative to the working precision; it is violated when they
    are separated, and inconclusive when they overlap but are too wide.
    """
    width_cap = Dyadic(1, 8 - precision)
    for n in n_values:
        chain = list(iter_scheme_measures(n, m_max + 1, precision))
        for meas, finer in zip(chain, chain[1:]):
            for name, lhs, rhs in (
                ("a", finer.a, meas.p / 2),
                ("A", meas.A, (meas.a * 4) / (4 - meas.ell * meas.ell)),
            ):
                width_ok = max(lhs.width(), rhs.width()) <= width_cap * max(
                    lhs.mag(), Dyadic(1)
                )
                row = {
                    "suite": "identities",
                    "n": n,
                    "m": meas.scheme.m,
                    "identity": name,
                    "width_ok": width_ok,
                }
                overlaps = lhs.overlaps(rhs)
                if overlaps and not width_ok:
                    # too wide to confirm, yet not separated
                    yield checked(row, (Verdict.OVERLAP, Verdict.OVERLAP))
                else:
                    yield checked(row, overlaps, width_ok)
    # cross-scheme agreement of the [p/2, P/2] brackets at high depth
    brackets = {n: pi_bounds(RegularScheme(n, limit_m), precision) for n in n_values}
    names = sorted(brackets)
    for i, na in enumerate(names):
        for nb in names[i + 1 :]:
            a, b = brackets[na], brackets[nb]
            row = {
                "suite": "identities",
                "check": f"pi-limit {na} vs {nb} at m={limit_m}",
                "width_a": a.width().decimal(30, up=True),
                "width_b": b.width().decimal(30, up=True),
            }
            yield checked(row, a.overlaps(b))


# -- randomized arc suites ---------------------------------------------------


def _compare_sample(seed: int, precision: int, suite: str) -> List[dict]:
    """One random arc split m of n ways: the chord or tangent comparison."""
    rng = random.Random(seed)
    arc = _random_arc(rng, precision)
    n = rng.randint(2, 32)
    m = rng.randint(1, n - 1)
    compare = chord_compare if suite == "chord-compare" else tangent_compare
    res = compare(arc, m, n, precision)
    row = {
        "suite": suite,
        "sample_seed": seed,
        "arc_chord": _dec(arc.chord_total),
        "m": m,
        "n": n,
        "lhs": _dec(res.lhs),
        "rhs": _dec(res.rhs),
        "precision_used": res.precision_used,
    }
    return [checked(row, (LESS, res.verdict))]


def _random_split(seed: int, precision: int) -> Tuple[ArcSpec, int]:
    rng = random.Random(seed)
    return _random_arc(rng, precision), rng.randint(2, 16)


def _tangent_profile_sample(seed: int, precision: int, suite: str) -> List[dict]:
    """One random arc split n ways: its tangent segments increase."""
    arc, n = _random_split(seed, precision)
    segs = tangent_segments(_partition(arc, n, precision)[1])
    return [
        checked({"suite": suite, "sample_seed": seed, "n": n, "index": i + 1,
                 "check": "increasing"},
                (LESS, compare_certain(segs[i], segs[i + 1])))
        for i in range(n - 1)
    ]


def _projections_sample(seed: int, precision: int, suite: str) -> List[dict]:
    """One random arc split n ways: its projection gaps onto the chord."""
    arc, n = _random_split(seed, precision)
    _, points = _partition(arc, n, precision)
    full = distance(points[0], points[n])
    gaps = _projections(points, full)
    base = {"suite": suite, "sample_seed": seed, "n": n}
    rows = [
        checked(dict(base, index=i + 1, check="increasing"),
                (LESS, compare_certain(gaps[i], gaps[i + 1])))
        for i in range((n + 1) // 2 - 1)
    ]
    rows.append(
        checked(dict(base, check="symmetric"),
                *(gaps[i].overlaps(gaps[n - 1 - i]) for i in range(n // 2)))
    )
    total = sum(gaps[1:], gaps[0])
    rows.append(
        checked(dict(base, check="sum-encloses-chord"), total.overlaps(arc.chord_total))
    )
    # corollary: leading partial sums stay under the uniform average
    # (strict only below the midpoint; even n gives equality at n/2)
    for s in range(2, (n + 1) // 2):
        partial = sum(gaps[1:s], gaps[0])
        bound = (full * s) / n
        rows.append(
            checked(dict(base, index=s, check="partial-below-average"),
                    (LESS, compare_certain(partial, bound)))
        )
    return rows


def _guarded_sample(job) -> List[dict]:
    """The sampler's rows, or the one row of the shortfall that stopped it."""
    sampler, seed, precision, suite = job
    try:
        return sampler(seed, precision, suite)
    except SHORTFALLS as exc:
        return [fell_short({"suite": suite, "sample_seed": seed}, precision, exc)]


def _sampled_suite(suite: str, sampler: Callable, default_samples: int) -> Callable:
    """A suite that runs ``sampler`` on ``samples`` seeded random arcs."""

    def run(
        samples: int = default_samples,
        seed: int = DEFAULT_SEED,
        precision: int = DEFAULT_PRECISION,
        jobs: int = 1,
    ) -> Iterator[dict]:
        work = [(sampler, _sample_seed(seed, i), precision, suite)
                for i in range(samples)]
        for rows in _map_samples(_guarded_sample, work, jobs):
            yield from rows

    return run


run_chord_compare = _sampled_suite("chord-compare", _compare_sample, 1000)
run_tangent_compare = _sampled_suite("tangent-compare", _compare_sample, 1000)
run_projections = _sampled_suite("projections", _projections_sample, 100)
run_tangent_profile = _sampled_suite("tangent-profile", _tangent_profile_sample, 100)


# -- rational sweep ----------------------------------------------------------


def run_rational(max_n: int = 24, precision: int = DEFAULT_PRECISION) -> Iterator[dict]:
    """Prop 4.1 ordering over all coprime pairs, both modes, plus winding.

    A pair, or an adjacent comparison, that a shortfall stops is one
    inconclusive row; a pair whose chord was realized still takes part in
    the ordering.
    """
    two_pi = pi_enclosure(precision) * 2
    realized = []
    for k, N in coprime_pairs(max_n):
        row = {"suite": "rational", "k": k, "N": N}
        try:
            r = realize_rational(k, N, precision)
            realized.append(r)
            inscribed, circumscribed = r.inscribed, r.circumscribed
            winding_checked = r.winding == r.k
        except SHORTFALLS as exc:
            yield fell_short(row, precision, exc)
            continue
        row.update(chord=_dec(r.chord), normalized=_dec(inscribed),
                   winding_checked=winding_checked)
        yield checked(
            row,
            (LESS, compare_certain(inscribed, two_pi)),
            (GREATER, compare_certain(circumscribed, two_pi)),
            winding_checked,
        )
    # adjacent ordering after sorting by chord, descending
    ordered = sorted(realized, key=lambda r: r.chord.lo, reverse=True)
    for mode, expected in (("inscribed", LESS), ("circumscribed", GREATER)):
        for a, b in zip(ordered, ordered[1:]):
            row = {"suite": "rational", "mode": mode, "pair": [[a.k, a.N], [b.k, b.N]]}
            try:
                verdict, lhs, rhs = normalized_compare(a, b, mode)
            except SHORTFALLS as exc:
                yield fell_short(row, precision, exc)
                continue
            row.update(lhs=_dec(lhs), rhs=_dec(rhs))
            yield checked(row, (expected, verdict))


# -- circuit suites ----------------------------------------------------------


def sandwich_checks(inner: Interval, target: Interval,
                    outer: Interval) -> Tuple[Check, Check]:
    """The checks inner < target < outer, as ``checked`` takes them."""
    return (LESS, compare_certain(inner, target)), (LESS, compare_certain(target, outer))


def _circuit_sample(args) -> Tuple[dict, Dyadic]:
    """One random circuit: its sandwich row and upper gap bound."""
    seed, cap_exp, precision, suite = args
    cap = Interval.exact(Dyadic(1, -cap_exp), precision)
    circuit = random_circuit(3, cap, seed, precision)
    measures = circuit_measures(circuit)
    target = pi_enclosure(precision)
    if suite == "area-sandwich":
        inner, outer = measures.area_in, measures.area_circ
    else:
        target = target * 2
        inner, outer = measures.perimeter_in, measures.perimeter_circ
    row = {
        "suite": suite,
        "sample_seed": seed,
        "mesh_cap_exp": cap_exp,
        "points": len(circuit),
        "inner": _dec(inner),
        "outer": _dec(outer),
        "mesh": _dec(measures.mesh),
    }
    return checked(row, *sandwich_checks(inner, target, outer)), target.hi - inner.lo


def _circuit_suite(suite: str) -> Callable:
    """A suite of sandwich checks per mesh cap, then the worst gap must not grow.

    A worst-gap row whose caps had an inconclusive sample is inconclusive
    too, with verdict ``shortfall``: such a sample's gap bound is loose.
    """

    def run(
        circuits_per_cap: int = 100,
        cap_exps=tuple(range(1, 9)),
        seed: int = DEFAULT_SEED,
        precision: int = DEFAULT_PRECISION,
        jobs: int = 1,
    ) -> Iterator[dict]:
        caps = []   # (cap_exp, worst gap, had an inconclusive sample)
        for cap_exp in cap_exps:
            args = [
                (_sample_seed(seed, cap_exp * 100_000 + i), cap_exp, precision, suite)
                for i in range(circuits_per_cap)
            ]
            sampled = _map_samples(_circuit_sample, args, jobs)
            yield from (row for row, _ in sampled)
            caps.append((cap_exp, max(gap for _, gap in sampled),
                         any(row["status"] == "inconclusive" for row, _ in sampled)))
        for prev, cur in zip(caps, caps[1:]):
            row = {
                "suite": suite,
                "check": "worst-gap-nonincreasing",
                "mesh_cap_exp": cur[0],
                "worst_gap": cur[1].decimal(20, up=True),
            }
            unsure = ", ".join(str(cap[0]) for cap in (prev, cur) if cap[2])
            if unsure:
                yield dict(row, skipped=f"inconclusive samples at mesh_cap_exp {unsure}",
                           verdict="shortfall", status="inconclusive")
            else:
                yield checked(row, cur[1] <= prev[1])

    return run


run_circuit_sandwich = _circuit_suite("circuit-sandwich")
run_area_sandwich = _circuit_suite("area-sandwich")


# -- trig sandwich -----------------------------------------------------------


def run_trig_sandwich(k_max: int = 16, precision: int = 128) -> Iterator[dict]:
    """theta = 2^-k ladder: both verdicts, the theta^2 gap bound, and a gap
    certainly below the previous one.

    A k that a shortfall stops is one inconclusive row; the next k skips
    the decrease check and says so in its row.
    """
    prev_gap = None
    prev_short = False
    for k in range(1, k_max + 1):
        theta = Interval.exact(Dyadic(1, -k), precision)
        row = {"suite": "trig-sandwich", "k": k}
        try:
            report = sandwich_report(theta, precision)
        except SHORTFALLS as exc:
            yield fell_short(row, precision, exc)
            prev_gap, prev_short = None, True
            continue
        gap = report.mid - 1
        row.update(
            theta=_dec(theta),
            mid=_dec(report.mid),
            upper=_dec(report.upper),
            gap_hi=gap.hi.decimal(30, up=True),
        )
        checks = [
            (LESS, report.lower_verdict),
            (LESS, report.upper_verdict),
            (LESS, compare_certain(gap, theta * theta)),
        ]
        if prev_gap is not None:
            checks.append((LESS, compare_certain(gap, prev_gap)))
        elif prev_short:
            row["decrease"] = f"skipped: k {k - 1} fell short"
        yield checked(row, *checks)
        prev_gap, prev_short = gap, False


SUITES: Dict[str, Callable[..., Iterator[dict]]] = {
    "monotone": run_monotone,
    "bounds": run_bounds,
    "identities": run_identities,
    "h-ratio": run_h_ratio,
    "chord-compare": run_chord_compare,
    "tangent-compare": run_tangent_compare,
    "projections": run_projections,
    "tangent-profile": run_tangent_profile,
    "rational": run_rational,
    "circuit-sandwich": run_circuit_sandwich,
    "area-sandwich": run_area_sandwich,
    "trig-sandwich": run_trig_sandwich,
}


def run_suite(name: str, **kwargs) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    for key, value in kwargs.items():
        require_bound(key, value, key)
    return SuiteResult(name, list(SUITES[name](**kwargs)))
