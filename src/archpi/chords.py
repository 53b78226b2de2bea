"""Regular partitions of an arc: chord profiles, tangent profiles, and the
certified edge-length comparison checks.

The per-step chord for an n-fold regular subdivision is found by certified
bisection in chord space.  A candidate step s is classified by walking the
half-angle rotation (sin = s/2) from (1, 0): after k steps the point is
(cos(t/2), sin(t/2)) of the cumulative arc t.  cos(t/2) is strictly
decreasing for t in [0, 2*pi), so an early-exit comparison against the
target stays sound before any wrap.

The walk is the fixed-point ball walk of ``circuits._ball_walk``: integer
centers (X, Y) at scale 2^-w, w the walk's working bits, and one Euclidean
radius R that always holds the true point.

Walking every bisection mid would cost about prec - 8 walks, so the solver
first places a certified root bracket a < b: a float seed
2*sin(asin(c/2)/n), refined by Newton steps that each walk once, widened by
tol/8 on each side, and accepted only when a classifies under and b over.
"n steps of chord s pass the arc end" is monotone in s, so every mid at or
below a is under and every mid at or above b is over without a walk; only
the few mids inside (a, b) are walked.  The outcomes the bracket implies
are the ones a walk certifies, so the result is bit-identical to walking
every mid.  A bracket that fails to certify, or a Newton walk whose end
cannot tell the sign of y, is dropped, and then every mid walks.  The
bisection itself runs on plain integers, every value on one grid 2^-S
fine enough that each mid lands on it; a Dyadic is built only for a mid
that walks.

A wide arc chord leaves a zone of steps that no precision classifies; the
one bisection loop closes on it from both sides (``solve_regular_chord``).

The comparisons build only the sides they read: ``_chord_sides`` walks the
partition and takes two distances from P_1, and ``_tangent_sides`` builds
the tangent segments alone, with the same operations in the same order as
``partition_profile``, so their values are bit-identical to the profile's.
An arc starts at (1, 0) and is given by its chord alone.  When a
comparison overlaps or falls short of precision, it escalates: it lifts the
arc's chord to the doubled precision, so the geometry, not just the
bisection, runs at the precision it reports.  A stall on an ambiguous zone
as wide as the tolerance is raised at once, since no precision cures it.
"""

from __future__ import annotations

import math
from itertools import accumulate
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .circuits import (CirclePoint, Rotation, _ball, _ball_walk, _scaled,
                       distance, tangent_intersection, unit_start, walk)
from .dyadic import Dyadic, _rounded
from .errors import (
    ArchpiError,
    BisectionStall,
    PreconditionViolation,
    PrecisionCeiling,
    SHORTFALLS,
)
from .interval import Interval, Verdict, _interval, compare_certain
from .polygons import require_chord

PRECISION_CAP = 4096
#: the most bits a solve can take: its walks start 16 bits above it
MAX_PRECISION = PRECISION_CAP - 16

_UNDER = "under"
_OVER = "over"
_AMBIG = "ambig"

#: the stall no precision cures: lifting the arc keeps its chord's width,
#: and the tolerance only shrinks as precision grows
_WIDE_ZONE = "ambiguous steps span the whole tolerance"


@dataclass(frozen=True)
class ArcSpec:
    """An arc from (1, 0), strictly shorter than half the circle, given by
    its chord."""

    chord_total: Interval

    def __post_init__(self):
        require_chord(self.chord_total, "arc chord")

    @staticmethod
    def from_chord(chord: Interval) -> "ArcSpec":
        return ArcSpec(chord)

    def with_prec(self, prec: int) -> "ArcSpec":
        return ArcSpec(self.chord_total.with_prec(prec))


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
    target = _target(chord_total)
    over = _scaled(target.lo, prec, up=False)
    under = _scaled(target.hi, prec, up=True)
    for x, _, r in _ball_walk(_half_step(step, prec), n, prec):
        if x + r < over:
            return _OVER
    if x - r > under:
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


def _newton_step(
    step: Dyadic, n: int, chord_total: Interval, prec: int
) -> Optional[Dyadic]:
    """One Newton step on f(s) = x_n(s) - cos(arc/2), from one walk.

    With sin(alpha) = s/2 the walk ends at (cos n*alpha, sin n*alpha), so
    f'(s) = -n*y_n / (2 cos alpha).  None when the ball at the walk's end
    does not tell the sign of y_n.
    """
    half_step = _half_step(step, prec)
    *_, (x, y, r) = _ball_walk(half_step, n, prec)
    if abs(y) <= r:
        return None
    c, _ = _ball(half_step.cos, prec)
    t, _ = _ball(_target(chord_total), prec)
    # (x - t) * 2c / (n y) at scale 2^-prec
    delta = Dyadic((x - t) * c * 2).div(Dyadic(y * n), prec, up=False)
    return (step + delta.scale2(-prec)).round(prec, up=False)


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
            if step is None:
                return None
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
    """Certified per-step chord of the n-fold regular subdivision of the arc.

    Bisects lo (under) < hi (over).  The arc chord is an interval, so the
    steps whose walks end inside cos(arc/2) are ambiguous at any precision;
    once a mid lands there, the loop keeps the hull za..zb of the ambiguous
    mids and bisects the wider of the gaps beside it.  A zone as wide as
    the tolerance stalls.

    Every value of the loop is an integer on one grid 2^-S.  The upper end
    of a bisected gap is the arc chord's upper end H or an earlier mid, and
    a mid is at least (1 - 2^-(prec+15))/2 times its gap's upper end, so
    under the iteration guard every a + b stays at or above
    H * 2^(S - 4*prec - 64); with S = 5*prec + 82 - log2 H that is over
    2^(prec + 17).  So truncating a + b to prec + 16 bits drops at least
    one bit, and the mid (a + b)/2 truncated lies on the grid.  A Dyadic is
    built only for a mid that walks, and for the result.
    """
    if n < 1:
        raise PreconditionViolation("subdivision count must be at least 1")
    if n == 1:
        return arc.chord_total
    chord_total = arc.chord_total
    top = chord_total.hi
    bits = prec + 16
    S = max(5 * prec + 82 - top.man.bit_length() - top.exp, -top.exp, prec - 8)
    lo = 0
    hi = top.man << (top.exp + S)
    tol = 1 << (S + 8 - prec)
    # without a bracket, (lo, hi) implies nothing: every mid lies strictly inside
    a, b = _bracket(chord_total, n, prec) or (Dyadic(0), top)
    under, over = _scaled(a, S, up=False), _scaled(b, S, up=True)
    za = zb = None
    guard = 0
    while hi - lo > tol:
        guard += 1
        if guard > 4 * prec + 64:
            raise BisectionStall("chord bisection exceeded its iteration budget")
        if za is None:
            a, b = lo, hi
        elif zb - za >= tol:
            raise BisectionStall(_WIDE_ZONE)
        else:
            a, b = (lo, za) if za - lo >= hi - zb else (zb, hi)
        # (a + b)/2 truncated to prec + 16 bits; drop >= 1, as shown above
        mid = a + b
        drop = mid.bit_length() - bits
        mid = mid >> drop << (drop - 1)
        if not a < mid < b:
            break
        if mid <= under:
            result = _UNDER
        elif mid >= over:
            result = _OVER
        else:
            result = _classify_adaptive(Dyadic(mid, -S), n, chord_total, prec)
        if result is _AMBIG:
            za, zb = (mid, mid) if za is None else (min(za, mid), max(zb, mid))
        elif result is _UNDER and (za is None or mid < za):
            lo = mid
        elif result is _OVER and (za is None or mid > zb):
            hi = mid
        else:
            raise BisectionStall("verdicts out of order around the ambiguous steps")
    return _interval(_rounded(lo, -S, bits, False), _rounded(hi, -S, bits, True), bits)


def partition_points(arc: ArcSpec, n: int, step_chord: Interval) -> List[CirclePoint]:
    start = unit_start(arc.chord_total.prec)
    return list(walk(start, Rotation.of_chord(step_chord), n))


def _partition(arc: ArcSpec, n: int, prec: int) -> Tuple[Interval, List[CirclePoint]]:
    """The solved step chord and the points P_1 .. P_{n+1} it walks."""
    if n < 2:
        raise PreconditionViolation("profiles need at least 2 subdivisions")
    step = solve_regular_chord(arc, n, prec)
    return step, partition_points(arc, n, step)


def tangent_segments(points: List[CirclePoint]) -> List[Interval]:
    """Tangent path increments along the tangent line at P_1.

    The k-th increment is the growth of the two-leg tangent path P_1 ->
    meet -> P_{k+1}; on the tangent line the meets are collinear with P_1,
    so the increment is twice the distance between consecutive meets.
    """
    first = points[0]
    meets = [CirclePoint(*tangent_intersection(first, p)) for p in points[1:]]
    return [distance(first, meets[0]) * 2] + [
        distance(a, b) * 2 for a, b in zip(meets, meets[1:])
    ]


def _projections(points: List[CirclePoint], full: Interval) -> List[Interval]:
    """Projection gaps onto the full-chord direction, of length ``full``.

    The exact gaps are mirror symmetric, so compute the first half and
    reflect it; this keeps gap_i and gap_{n+1-i} bitwise equal by
    construction.
    """
    first, last = points[0], points[-1]
    n = len(points) - 1
    dx = (last.x - first.x) / full
    dy = (last.y - first.y) / full
    projection_of = [(p.x - first.x) * dx + (p.y - first.y) * dy for p in points]
    half_gaps = [
        projection_of[k + 1] - projection_of[k] for k in range((n + 1) // 2)
    ]
    if n % 2 == 0:
        return half_gaps + half_gaps[::-1]
    # odd n: lone middle gap, then the mirror of the first half
    mid_gap = projection_of[(n + 1) // 2] - projection_of[n // 2]
    return half_gaps[: n // 2] + [mid_gap] + half_gaps[: n // 2][::-1]


def partition_profile(arc: ArcSpec, n: int, prec: int) -> PartitionProfile:
    step, points = _partition(arc, n, prec)
    cumulative = [distance(points[0], p) for p in points[1:]]
    projections = _projections(points, cumulative[-1])
    segments = tangent_segments(points)
    return PartitionProfile(
        n=n,
        step_chord=step,
        cumulative_chords=cumulative,
        tangent_segments=segments,
        projections=projections,
        tangent_total=sum(segments[1:], segments[0]),
        points=points,
    )


def _compare_adaptive(
    build, arc: ArcSpec, m: int, n: int, prec: int
) -> CompareResult:
    """Build and compare the two sides, doubling the precision when they
    overlap or their construction falls short of precision.

    Each escalation lifts the arc to the new precision: interval operations
    run at the smaller operand precision, so the caller's arc would hold
    the geometry at its own bits.  A shortfall at ``MAX_PRECISION`` is
    raised, and so is at once a stall on an ambiguous zone as wide as the
    tolerance.
    """
    work = prec
    lifted = arc
    while True:
        try:
            lhs, rhs = build(lifted, m, n, work)
        except SHORTFALLS as exc:
            if work >= MAX_PRECISION or exc.args == (_WIDE_ZONE,):
                raise
        else:
            verdict = compare_certain(lhs, rhs)
            if verdict is not Verdict.OVERLAP or work >= MAX_PRECISION:
                return CompareResult(verdict, lhs, rhs, work)
        work = min(2 * work, MAX_PRECISION)
        lifted = arc.with_prec(work)


def _chord_sides(arc: ArcSpec, m: int, n: int, prec: int):
    """n*|P_1 P_{m+1}| and m*|P_1 P_{n+1}|, as in ``partition_profile``."""
    _, points = _partition(arc, n, prec)
    return distance(points[0], points[m]) * n, distance(points[0], points[n]) * m


def _tangent_sides(arc: ArcSpec, m: int, n: int, prec: int):
    """n*L_m and m*L_n, summed in the order of ``partition_profile``."""
    _, points = _partition(arc, n, prec)
    lengths = list(accumulate(tangent_segments(points)))
    return lengths[m - 1] * n, lengths[-1] * m


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
