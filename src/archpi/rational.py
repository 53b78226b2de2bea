"""Closed chord-stepping paths: winding chords of regular N-gons.

The pair (k, N) with gcd(k, N) = 1 is the source of truth for the closure
count N and winding number k; the geometric closure and crossing checks are
a verification pass, not the definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from .chords import ArcSpec, solve_regular_chord
from .circuits import CirclePoint, Rotation, distance, unit_start, walk
from .dyadic import Dyadic
from .errors import (
    AmbiguousCrossing,
    ChordTooLong,
    ClosureFailure,
    HypothesisUnordered,
    NonCoprime,
    PreconditionViolation,
)
from .interval import Interval, Verdict, compare_certain
from .polygons import circumscribed_edge, seed_edge


@dataclass(frozen=True)
class RationalLength:
    """Chord spanning k steps of a regular N-gon, gcd(k, N) = 1."""

    k: int
    N: int
    chord: Interval

    @property
    def numerator(self) -> int:
        """Steps until the stepping path first closes."""
        return self.N

    @property
    def denominator(self) -> int:
        """Windings of the closed path around the center."""
        return self.k


@lru_cache(maxsize=64)
def _ngon_vertices(N: int, prec: int) -> List[CirclePoint]:
    """Vertices of the regular N-gon from a third-circle subdivision, cached.

    The third-circle arc (chord sqrt(3)) split into N parts steps through
    the 3N-gon; every third vertex is an N-gon vertex.
    """
    arc = ArcSpec(unit_start(prec), seed_edge(3, prec))
    small = solve_regular_chord(arc, N, prec)
    return list(walk(unit_start(prec), Rotation.of_chord(small), 3 * N - 3))[::3]


def realize_rational(k: int, N: int, prec: int) -> RationalLength:
    if N < 3:
        raise PreconditionViolation("need N >= 3")
    if k < 1 or 2 * k >= N:
        raise ChordTooLong("winding step must satisfy 1 <= k < N/2")
    if math.gcd(k, N) != 1:
        raise NonCoprime(f"gcd({k}, {N}) != 1")
    vertices = _ngon_vertices(N, prec)
    chord = distance(vertices[0], vertices[k])
    return RationalLength(k=k, N=N, chord=chord)


def gamma_path(r: RationalLength) -> List[CirclePoint]:
    """The N stepped vertices of the closed path; verifies closure."""
    points = list(walk(unit_start(r.chord.prec), Rotation.of_chord(r.chord), r.N))
    final = points.pop()
    start = points[0]
    if not (final.x.overlaps(start.x) and final.y.overlaps(start.y)):
        raise ClosureFailure(
            f"path for ({r.k}, {r.N}) certifiably misses its start"
        )
    return points


def winding_count(r: RationalLength) -> int:
    """Geometric winding: certified crossings of the radius to the start.

    The first and last edges touch the start point itself; the closing edge
    contributes exactly one crossing and the opening edge none, so the count
    is 1 plus the certified interior-edge crossings.
    """
    points = gamma_path(r)
    n = len(points)
    crossings = 0
    for i in range(1, n - 1):
        a, b = points[i], points[i + 1]
        if _crosses_start_radius(a, b):
            crossings += 1
    return 1 + crossings


def _sign_certain(value: Interval) -> int:
    if value.lo.sign > 0:
        return 1
    if value.hi.sign < 0:
        return -1
    return 0


def _crosses_start_radius(a: CirclePoint, b: CirclePoint) -> bool:
    """Does segment ab cross the radius from the origin to (1, 0)?

    Certified by two straddle tests; an ambiguous verdict on one test is
    only accepted when the other certifies non-crossing (the antipodal
    vertex sits on the line but never on the segment).
    """
    # straddle of the x-axis line by the edge endpoints, tested first: an
    # edge certainly on one side of it needs no cross products
    sa = _sign_certain(a.y)
    sb = _sign_certain(b.y)
    if sa != 0 and sa == sb:
        return False
    # straddle of the edge line by origin and (1, 0)
    ex = b.x - a.x
    ey = b.y - a.y
    cross_origin = ex * a.y - ey * a.x  # ~ cross(b - a, O - a), negated sign pair
    cross_unit = ex * a.y - ey * (a.x - 1)
    so = _sign_certain(cross_origin)
    su = _sign_certain(cross_unit)
    if so != 0 and so == su:
        return False
    if sa != 0 and sb != 0 and so != 0 and su != 0:
        return True  # here sa != sb and so != su: both straddles certain
    raise AmbiguousCrossing("ambiguous crossing test; raise precision")


@dataclass(frozen=True)
class NormalizedCompare:
    verdict: Verdict
    lhs: Interval
    rhs: Interval


def normalized_compare(
    a: RationalLength, b: RationalLength, mode: str = "inscribed"
) -> NormalizedCompare:
    """Single-wrap path lengths (N/k)*length, ordered against chord order.

    Inscribed: the larger chord has the certainly smaller normalized length.
    Circumscribed: the tangent counterparts reverse the inequality.
    """
    order = compare_certain(a.chord, b.chord)
    if order is Verdict.OVERLAP:
        raise HypothesisUnordered("chords cannot be certifiably ordered")
    larger, smaller = (a, b) if order is Verdict.CERTAINLY_GREATER else (b, a)
    lhs, rhs = normalized_length(larger, mode), normalized_length(smaller, mode)
    return NormalizedCompare(compare_certain(lhs, rhs), lhs, rhs)


def normalized_length(r: RationalLength, mode: str = "inscribed") -> Interval:
    """(N/k) times the chord (inscribed) or its tangent edge (circumscribed)."""
    if mode == "inscribed":
        edge = r.chord
    elif mode == "circumscribed":
        edge = circumscribed_edge(r.chord)
    else:
        raise PreconditionViolation(f"unknown mode {mode!r}")
    return (edge * r.N) / r.k


def coprime_pairs(max_n: int) -> List[Tuple[int, int]]:
    """All (k, N) with N <= max_n, 1 <= k < N/2, gcd(k, N) = 1."""
    pairs = []
    for N in range(3, max_n + 1):
        for k in range(1, (N + 1) // 2):
            if 2 * k < N and math.gcd(k, N) == 1:
                pairs.append((k, N))
    return pairs
