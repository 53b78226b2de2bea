"""Closed chord-stepping paths: winding chords of regular N-gons.

The pair (k, N) with gcd(k, N) = 1 is the source of truth for the closure
count N and winding number k; the geometric closure and crossing checks are
a verification pass, not the definition.  ``winding_count`` makes that pass
on one code path, the integer ball walk of ``circuits``, run over pieces of
the chord enclosure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from .chords import ArcSpec, solve_regular_chord
from .circuits import CirclePoint, Rotation, _ball_walk, distance, unit_start, walk
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
def _ngon_vertices(N: int, prec: int) -> Tuple[CirclePoint, ...]:
    """Vertices of the regular N-gon from a third-circle subdivision, cached.

    The third-circle arc (chord sqrt(3)) split into N parts steps through
    the 3N-gon; every third vertex is an N-gon vertex.
    """
    arc = ArcSpec(seed_edge(3, prec))
    small = solve_regular_chord(arc, N, prec)
    return tuple(walk(unit_start(prec), Rotation.of_chord(small), 3 * N - 3))[::3]


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

    The count is taken on the integer ball walk at scale 2^-w, w the chord's
    precision, over pieces of the chord enclosure.  Every ball of a piece's
    walk holds its vertex for every chord in the piece; the exact chord
    2 sin(pi k/N) lies in some piece, and its path closes on (1, 0).  So a
    piece whose final ball misses (2^w, 0) is dropped, and a piece with an
    ambiguous crossing is halved, down to one unit 2^-w wide.  The winding
    is certified only when every piece left gives the same count: a wide
    enclosure can also hold the exact chords of (k - 1, N) and (k + 1, N),
    whose paths close too.  If no piece is left, the path certifiably fails
    to close.
    """
    w = r.chord.prec
    unit = Dyadic(1, -w)
    counts = set()
    pieces = [r.chord]
    while pieces:
        piece = pieces.pop()
        balls = list(_ball_walk(Rotation.of_chord(piece), r.N, w))
        x, y, radius = balls[-1]
        x -= 1 << w
        if x * x + y * y > radius * radius:
            continue
        try:
            # balls[j] holds vertex j + 1; the interior edges join vertices 1 .. N-1
            counts.add(1 + sum(_ball_crosses(a, b, w)
                               for a, b in zip(balls[:-2], balls[1:-1])))
        except AmbiguousCrossing:
            if piece.width() <= unit:
                raise
            mid = piece.mid()
            pieces += [Interval(piece.lo, mid, w), Interval(mid, piece.hi, w)]
        if len(counts) > 1:
            raise AmbiguousCrossing(
                f"pieces of the chord enclosure of ({r.k}, {r.N}) give crossing "
                f"counts {sorted(counts)}; raise precision")
    if not counts:
        raise ClosureFailure(
            f"path for ({r.k}, {r.N}) certifiably misses its start"
        )
    return counts.pop()


def _ball_sign(value: int, radius: int) -> int:
    """The sign of every number within ``radius`` of ``value``, else 0."""
    if value > radius:
        return 1
    if value < -radius:
        return -1
    return 0


def _ball_crosses(a: Tuple[int, int, int], b: Tuple[int, int, int], w: int) -> bool:
    """Does segment ab cross the radius from the origin to (1, 0)?  a and b
    are balls (X, Y, R) at scale 2^-w.

    Certified by two straddle tests: of the x-axis by the edge ends, and of
    the edge line by the origin and (1, 0).  An ambiguous verdict on one
    test is only accepted when the other certifies non-crossing (the
    antipodal vertex sits on the line but never on the segment).  With A, B
    the centers, Ra, Rb the radii and a = A + da, b = B + db the true points
    (|da| <= Ra, |db| <= Rb), all at scale 2^-w:

    - |y - Y| <= R, so Y's sign is y's when |Y| > R;
    - cross_origin = bX*aY - bY*aX is B x A, and b x a at scale 2^-2w is
      within B x da + db x A + db x da of it.  As |u x v| <= |u||v| and
      |u| <= |uX| + |uY|, that is at most
      (|bX| + |bY|)*Ra + (|aX| + |aY|)*Rb + Ra*Rb;
    - cross_unit = cross_origin + (bY - aY)*2^w is the same at scale
      2^-2w for b x a + (by - ay), and |dby - day| <= Ra + Rb adds
      (Ra + Rb)*2^w.

    Each sign is certain only when the center is beyond its radius.
    """
    ax, ay, ra = a
    bx, by, rb = b
    sa = _ball_sign(ay, ra)
    sb = _ball_sign(by, rb)
    if sa != 0 and sa == sb:
        return False
    cross = bx * ay - by * ax
    radius = (abs(bx) + abs(by)) * ra + (abs(ax) + abs(ay)) * rb + ra * rb
    so = _ball_sign(cross, radius)
    su = _ball_sign(cross + ((by - ay) << w), radius + ((ra + rb) << w))
    if so != 0 and so == su:
        return False
    if sa != 0 and sb != 0 and so != 0 and su != 0:
        return True
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
