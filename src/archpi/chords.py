"""Regular partitions of an arc: chord profiles, tangent profiles, and the
certified edge-length comparison checks.

The per-step chord for an n-fold regular subdivision is found by certified
bisection in chord space.  A candidate step s is classified by walking the
half-angle rotation (sin = s/2) from (1, 0): after k steps the point is
(cos(t/2), sin(t/2)) of the cumulative arc t, built by pure field/sqrt
expressions.  cos(t/2) is strictly decreasing for t in [0, 2*pi), so an
early-exit comparison against the target stays sound before any wrap.

Walking every bisection mid would cost about prec - 8 walks, so the solver
first places a certified root bracket a < b: a float seed
2*sin(asin(c/2)/n), refined by Newton steps that each walk once, widened by
tol/8 on each side, and accepted only when a classifies under and b over.
"n steps of chord s pass the arc end" is monotone in s, so every mid at or
below a is under and every mid at or above b is over without a walk; only
the few mids inside (a, b) are walked.  The bisection itself is unchanged,
and the outcomes the bracket implies are the ones a walk certifies, so its
result is bit-identical to walking every mid.  A bracket that fails to
certify is dropped, and then every mid walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .circuits import (CirclePoint, Rotation, distance, tangent_intersection,
                       unit_start, walk)
from .dyadic import Dyadic
from .errors import (
    ArchpiError,
    BisectionStall,
    DomainViolation,
    InvalidChord,
    PreconditionViolation,
    PrecisionCeiling,
)
from .interval import Interval, Verdict, compare_certain

PRECISION_CAP = 4096
#: the most bits a solve can take: its walks start 16 bits above it
MAX_PRECISION = PRECISION_CAP - 16

_UNDER = "under"
_OVER = "over"
_AMBIG = "ambig"


@dataclass(frozen=True)
class ArcSpec:
    """An arc strictly shorter than half the circle, given by its chord."""

    start: CirclePoint
    chord_total: Interval

    def __post_init__(self):
        c = self.chord_total
        if c.lo.sign <= 0 or c.hi >= Dyadic(2):
            raise InvalidChord(
                f"arc chord must lie certifiably in (0, 2): {c}"
            )

    @staticmethod
    def from_chord(chord: Interval) -> "ArcSpec":
        return ArcSpec(unit_start(chord.prec), chord)


@dataclass(frozen=True)
class PartitionProfile:
    n: int
    step_chord: Interval
    cumulative_chords: List[Interval]   # |P_1 P_{k+1}|, k = 1..n
    tangent_segments: List[Interval]    # tangent path increments, k = 1..n
    projections: List[Interval]         # |q_k q_{k+1}|, k = 1..n
    tangent_total: Interval
    points: List[CirclePoint]


@dataclass(frozen=True)
class CompareResult:
    verdict: Verdict
    lhs: Interval
    rhs: Interval
    precision_used: int


def _half_step(step: Dyadic, prec: int) -> Rotation:
    """Rotation through half the arc of chord ``step``: sin = step/2."""
    sb = Interval.exact(step, prec) / 2
    return Rotation((1 - sb * sb).sqrt(), sb)


def _target(chord_total: Interval) -> Interval:
    """cos(arc/2) = sqrt(4 - c^2)/2, the x a walk to the arc end reaches."""
    return (4 - chord_total * chord_total).sqrt() / 2


def _classify(step: Dyadic, n: int, chord_total: Interval, prec: int) -> str:
    """Do n steps of chord ``step`` fall short of or pass the arc endpoint?

    Compares cos(cumulative/2) with cos(arc/2) = sqrt(4 - c^2)/2.  Exits at
    the first certain pass, which keeps the cumulative arc below 2*pi.
    """
    v_target = _target(chord_total)
    for point in walk(unit_start(prec), _half_step(step, prec), n):
        if compare_certain(point.x, v_target) is Verdict.CERTAINLY_LESS:
            return _OVER
    if compare_certain(point.x, v_target) is Verdict.CERTAINLY_GREATER:
        return _UNDER
    return _AMBIG


def _classify_adaptive(
    step: Dyadic, n: int, chord_total: Interval, prec: int
) -> str:
    work = prec + 16
    if work > PRECISION_CAP:
        raise PrecisionCeiling(
            f"precision {prec} is above {MAX_PRECISION} bits, the most "
            "the chord solver takes")
    while work <= PRECISION_CAP:
        result = _classify(step, n, chord_total.with_prec(work), work)
        if result is not _AMBIG:
            return result
        work *= 2
    return _AMBIG


def _seed(chord_total: Interval, n: int) -> float:
    """Float estimate of the step chord, 2*sin(asin(c/2)/n)."""
    return 2 * math.sin(math.asin(float(chord_total.mid()) / 2) / n)


def _newton_step(step: Dyadic, n: int, chord_total: Interval, prec: int) -> Dyadic:
    """One Newton step on f(s) = x_n(s) - cos(arc/2), from one walk.

    With sin(alpha) = s/2 the walk ends at (cos n*alpha, sin n*alpha), so
    f'(s) = -n*y_n / (2 cos alpha).
    """
    half_step = _half_step(step, prec)
    *_, end = walk(unit_start(prec), half_step, n)
    delta = (end.x - _target(chord_total)) * half_step.cos * 2 / (end.y * n)
    return (step + delta.mid()).round(prec, up=False)


def _bracket(
    chord_total: Interval, n: int, prec: int
) -> Optional[Tuple[Dyadic, Dyadic]]:
    """Certified a < root < b, tol/8 either side of a Newton estimate.

    The float seed is taken as good to 48 bits, and each Newton step
    doubles that until there are prec + 24.  None when a step fails, b is
    not below the arc chord, or an endpoint does not certify.
    """
    try:
        step = Dyadic.from_fraction(Fraction(_seed(chord_total, n)), 53, up=False)
        bits = 48
        while bits < prec + 24:
            bits *= 2
            work = bits + n.bit_length() + 16
            step = _newton_step(step, n, chord_total.with_prec(work), work)
    except (ArchpiError, ValueError):
        return None
    slack = Dyadic(1, 5 - prec)  # tol/8
    a = (step - slack).round(prec + 16, up=False)
    b = (step + slack).round(prec + 16, up=True)
    # every mid is positive, so a <= 0 needs no test
    if (b < chord_total.hi
            and (a.sign <= 0 or _classify_adaptive(a, n, chord_total, prec) is _UNDER)
            and _classify_adaptive(b, n, chord_total, prec) is _OVER):
        return a, b
    return None


def solve_regular_chord(arc: ArcSpec, n: int, prec: int) -> Interval:
    """Certified per-step chord of the n-fold regular subdivision of the arc."""
    if n < 1:
        raise PreconditionViolation("subdivision count must be at least 1")
    if n == 1:
        return arc.chord_total
    chord_total = arc.chord_total
    lo = Dyadic(0)
    hi = chord_total.hi
    tol = Dyadic(1, 8 - prec)
    # without a bracket, (lo, hi) implies nothing: every mid lies strictly inside
    under, over = _bracket(chord_total, n, prec) or (lo, hi)

    def classify(step: Dyadic) -> str:
        if step <= under:
            return _UNDER
        if step >= over:
            return _OVER
        return _classify_adaptive(step, n, chord_total, prec)

    guard = 0
    while (hi - lo) > tol:
        guard += 1
        if guard > 4 * prec + 64:
            raise BisectionStall("chord bisection exceeded its iteration budget")
        mid = (lo + hi).half().round(prec + 16, up=False)
        if not (lo < mid < hi):
            break
        result = classify(mid)
        if result is _AMBIG:
            # the step landed essentially on the root; probe off-center
            probe = (lo + mid).half().round(prec + 16, up=False)
            if not (lo < probe < hi):
                break
            result = classify(probe)
            if result is _AMBIG:
                lo, hi = _close_on_zone(lo, probe, mid, hi, classify, tol, prec)
                break
            mid = probe
        if result is _OVER:
            hi = mid
        else:
            lo = mid
    return Interval(lo, hi, prec).with_prec(prec + 16)


def _close_on_zone(
    lo: Dyadic, za: Dyadic, zb: Dyadic, hi: Dyadic,
    classify: Callable[[Dyadic], str], tol: Dyadic, prec: int,
) -> Tuple[Dyadic, Dyadic]:
    """Shrink lo < za <= zb < hi onto the steps that stay ambiguous.

    lo classifies under, hi over, za and zb ambiguous.  The arc chord is an
    interval, so every step whose walk ends inside cos(arc/2) is ambiguous
    at any precision.  Bisect the wider of the gaps beside that zone until
    hi - lo meets the tolerance; a zone that is itself that wide stalls.
    """
    while (hi - lo) > tol:
        if zb - za >= tol:
            raise BisectionStall("ambiguous steps span the whole tolerance")
        a, b = (lo, za) if za - lo >= hi - zb else (zb, hi)
        mid = (a + b).half().round(prec + 16, up=False)
        if not (a < mid < b):
            break
        result = classify(mid)
        if result is _AMBIG:
            za, zb = min(za, mid), max(zb, mid)
        elif result is _UNDER and mid < za:
            lo = mid
        elif result is _OVER and mid > zb:
            hi = mid
        else:
            raise BisectionStall("verdicts out of order around the ambiguous steps")
    return lo, hi


def partition_points(arc: ArcSpec, n: int, step_chord: Interval) -> List[CirclePoint]:
    return list(walk(arc.start, Rotation.of_chord(step_chord), n))


def partition_profile(arc: ArcSpec, n: int, prec: int) -> PartitionProfile:
    if n < 2:
        raise PreconditionViolation("profiles need at least 2 subdivisions")
    step = solve_regular_chord(arc, n, prec)
    points = partition_points(arc, n, step)
    first = points[0]
    last = points[n]

    cumulative = [distance(first, points[k]) for k in range(1, n + 1)]

    # Projection gaps onto the full-chord direction.  The exact gaps are
    # mirror symmetric, so compute the first half and reflect it; this keeps
    # gap_i and gap_{n+1-i} bitwise equal by construction.
    full = cumulative[-1]
    dx = (last.x - first.x) / full
    dy = (last.y - first.y) / full
    projection_of = [
        (points[k].x - first.x) * dx + (points[k].y - first.y) * dy
        for k in range(n + 1)
    ]
    half_gaps = [
        projection_of[k + 1] - projection_of[k] for k in range((n + 1) // 2)
    ]
    projections = list(half_gaps)
    if n % 2 == 1:
        mid_gap = projection_of[(n + 1) // 2 + 0] - projection_of[n // 2]
        # odd n: lone middle gap, then the mirror of the first half
        projections = half_gaps[: n // 2] + [mid_gap] + half_gaps[: n // 2][::-1]
    else:
        projections = half_gaps + half_gaps[::-1]

    # Tangent path increments along the tangent line at P_1.  The k-th
    # increment is the growth of the two-leg tangent path P_1 -> meet ->
    # P_{k+1}; on the tangent line the meets are collinear with P_1, so the
    # increment is twice the distance between consecutive meets.
    meets = []
    for k in range(1, n + 1):
        tx, ty = tangent_intersection(first, points[k])
        meets.append(CirclePoint(tx, ty))
    segments = [distance(first, meets[0]) * 2]
    for k in range(1, n):
        segments.append(distance(meets[k - 1], meets[k]) * 2)
    total = segments[0]
    for seg in segments[1:]:
        total = total + seg

    return PartitionProfile(
        n=n,
        step_chord=step,
        cumulative_chords=cumulative,
        tangent_segments=segments,
        projections=projections,
        tangent_total=total,
        points=points,
    )


def _compare_adaptive(
    build, arc: ArcSpec, m: int, n: int, prec: int
) -> CompareResult:
    work = prec
    while True:
        lhs, rhs = build(arc, m, n, work)
        verdict = compare_certain(lhs, rhs)
        if verdict is not Verdict.OVERLAP or work >= MAX_PRECISION:
            return CompareResult(verdict, lhs, rhs, work)
        work = min(2 * work, MAX_PRECISION)


def _chord_sides(arc: ArcSpec, m: int, n: int, prec: int):
    profile = partition_profile(arc, n, prec)
    lhs = profile.cumulative_chords[m - 1] * n
    rhs = profile.cumulative_chords[n - 1] * m
    return lhs, rhs


def _tangent_sides(arc: ArcSpec, m: int, n: int, prec: int):
    profile = partition_profile(arc, n, prec)
    partial = profile.tangent_segments[0]
    for seg in profile.tangent_segments[1:m]:
        partial = partial + seg
    lhs = partial * n
    rhs = profile.tangent_total * m
    return lhs, rhs


def chord_compare(arc: ArcSpec, m: int, n: int, prec: int) -> CompareResult:
    """n*ell_m vs m*ell_n on one n-fold partition; rhs certainly less."""
    if not 1 <= m < n:
        raise PreconditionViolation("need 1 <= m < n")
    result = _compare_adaptive(_chord_sides, arc, m, n, prec)
    return CompareResult(
        compare_certain(result.rhs, result.lhs),
        result.lhs,
        result.rhs,
        result.precision_used,
    )


def tangent_compare(arc: ArcSpec, m: int, n: int, prec: int) -> CompareResult:
    """n*L_m vs m*L_n with tangent path lengths; lhs certainly less."""
    if not 1 <= m < n:
        raise PreconditionViolation("need 1 <= m < n")
    return _compare_adaptive(_tangent_sides, arc, m, n, prec)


@dataclass(frozen=True)
class AngleProfile:
    outer_apex: Interval
    base_angles: Interval
    inner_apex: Interval
    degenerate_inner: bool


def angle_profile(n: int, theta_degrees: Fraction, prec: int = 64) -> AngleProfile:
    """Degree measures of the outer tangent triangle over an n-step arc.

    theta_degrees is the central angle per step.  Requires n*theta < 180.
    """
    if n < 2:
        raise PreconditionViolation("need at least 2 steps")
    if theta_degrees <= 0 or n * theta_degrees >= 180:
        raise DomainViolation("arc must stay under half the circle")
    outer = Interval.from_fraction(180 - n * theta_degrees, prec)
    base = Interval.from_fraction((n - 1) * theta_degrees, prec)
    inner_exact = 180 - (n - 2) * theta_degrees
    inner = Interval.from_fraction(inner_exact, prec)
    return AngleProfile(
        outer_apex=outer,
        base_angles=base,
        inner_apex=inner,
        degenerate_inner=(inner_exact == 180),
    )
