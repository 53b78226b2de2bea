"""Closed chord-stepping paths: winding chords of regular N-gons.

The pair (k, N) with gcd(k, N) = 1 is the source of truth for the closure
count N and winding number k; the geometric closure and crossing checks are
a verification pass, not the definition.  ``winding_count`` makes that pass
on one code path, the integer ball walk of ``circuits``, run over pieces of
the chord enclosure.

``realize_rational`` is cached per (k, N, prec), and the ``RationalLength``
it returns keeps each measure it forms: the chord's root and rotation, its
two normalized lengths and its winding.  So a pair's measures are formed
once per process, however many sweeps, suite runs and adjacent comparisons
read them.  A measure that falls short of precision raises and is kept
nowhere; reading it again forms it again, with the same error.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import List, Tuple

from .chords import ArcSpec, solve_regular_chord
from .circuits import (CirclePoint, Rotation, _ball_walk, _rotation, distance, unit_start,
                       walk)
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
from .polygons import _chord_root, _tangent_edge, require_chord, seed_edge


@dataclass(frozen=True)
class RationalLength:
    """Chord spanning k steps of a regular N-gon, gcd(k, N) = 1.

    Each measure is formed the first time it is read, and kept: the chord's
    square root sqrt(4 - chord^2), shared by its rotation and its tangent
    edge; the ``inscribed`` and ``circumscribed`` normalized lengths, (N/k)
    times the chord and its tangent edge; and the ``winding``.  A measure
    whose formation raises is not kept.
    """

    k: int
    N: int
    chord: Interval

    @cached_property
    def _terms(self) -> tuple:
        return _chord_root(self.chord)

    @cached_property
    def rotation(self) -> Rotation:
        """``Rotation.of_chord(chord)``."""
        require_chord(self.chord, "step chord")
        return _rotation(self.chord, self._terms)

    @cached_property
    def inscribed(self) -> Interval:
        """(N/k) times the chord."""
        return (self.chord * self.N) / self.k

    @cached_property
    def circumscribed(self) -> Interval:
        """(N/k) times the chord's tangent edge 2c/sqrt(4 - c^2), for a
        chord certifiably in (0, 2)."""
        require_chord(self.chord, "chord")
        return (_tangent_edge(self.chord, self._terms[4]) * self.N) / self.k

    @cached_property
    def winding(self) -> int:
        """``winding_count(self)``."""
        return winding_count(self)


@lru_cache(maxsize=64)
def _ngon_vertices(N: int, prec: int) -> Tuple[CirclePoint, ...]:
    """Vertices of the regular N-gon from a third-circle subdivision, cached.

    The third-circle arc (chord sqrt(3)) split into N parts steps through
    the 3N-gon; every third vertex is an N-gon vertex.
    """
    arc = ArcSpec(seed_edge(3, prec))
    small = solve_regular_chord(arc, N, prec)
    return tuple(walk(unit_start(prec), Rotation.of_chord(small), 3 * N - 3))[::3]


@lru_cache(maxsize=256)
def realize_rational(k: int, N: int, prec: int) -> RationalLength:
    """The chord of k steps of the regular N-gon at ``prec`` bits, cached:
    256 entries hold every pair up to N = 38 at one precision."""
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
    points = list(walk(unit_start(r.chord.prec), r.rotation, r.N))
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
        rotation = r.rotation if piece is r.chord else Rotation.of_chord(piece)
        balls = list(_ball_walk(rotation, r.N, w))
        x, y, radius = balls[-1]
        x -= 1 << w
        if x * x + y * y > radius * radius:
            continue
        try:
            # balls[j] holds vertex j + 1; the interior edges join vertices 1 .. N-1
            counts.add(1 + _crossings(balls[:-1], w))
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


def _crossings(balls: List[Tuple[int, int, int]], w: int) -> int:
    """The sum of ``_ball_crosses`` over the edges between consecutive
    balls, each ball's y sign taken once: an edge whose two ends lie
    certainly on one side of the x-axis, where ``_ball_crosses`` returns
    False at once, is not tested."""
    signs = [(y > r) - (y < -r) for _, y, r in balls]
    return sum(_ball_crosses(balls[j], balls[j + 1], w)
               for j, (s, t) in enumerate(zip(signs, signs[1:])) if s != t or not s)


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
    sa = (ay > ra) - (ay < -ra)
    sb = (by > rb) - (by < -rb)
    if sa != 0 and sa == sb:
        return False
    cross = bx * ay - by * ax
    radius = (abs(bx) + abs(by)) * ra + (abs(ax) + abs(ay)) * rb + ra * rb
    so = (cross > radius) - (cross < -radius)
    cross += (by - ay) << w
    radius += (ra + rb) << w
    su = (cross > radius) - (cross < -radius)
    if so != 0 and so == su:
        return False
    if sa != 0 and sb != 0 and so != 0 and su != 0:
        return True
    raise AmbiguousCrossing("ambiguous crossing test; raise precision")


def normalized_compare(
    a: RationalLength, b: RationalLength, mode: str = "inscribed"
) -> Tuple[Verdict, Interval, Interval]:
    """Single-wrap path lengths (N/k)*length, ordered against chord order:
    the verdict, then the larger chord's length, then the smaller's.

    Inscribed: the larger chord has the certainly smaller normalized length.
    Circumscribed: the tangent counterparts reverse the inequality.  Each
    side is the pair's kept ``inscribed`` or ``circumscribed`` length.
    """
    if mode not in ("inscribed", "circumscribed"):
        raise PreconditionViolation(f"unknown mode {mode!r}")
    order = compare_certain(a.chord, b.chord)
    if order is Verdict.OVERLAP:
        raise HypothesisUnordered("chords cannot be certifiably ordered")
    larger, smaller = (a, b) if order is Verdict.CERTAINLY_GREATER else (b, a)
    lhs, rhs = getattr(larger, mode), getattr(smaller, mode)
    return compare_certain(lhs, rhs), lhs, rhs


#: the largest N whose coprime pairs are kept: ``suites.MOST["max_n"]``,
#: 9,973 pairs
_KEPT_PAIRS_MAX_N = 256

#: the longest ``coprime_pairs`` list formed in the process
_kept_pairs: List[Tuple[int, int]] = []


def _pairs(lo: int, hi: int) -> List[Tuple[int, int]]:
    """The coprime pairs (k, N) with lo <= N <= hi, in order of N."""
    return [(k, N) for N in range(lo, hi + 1) for k in range(1, (N + 1) // 2)
            if math.gcd(k, N) == 1]


def coprime_pairs(max_n: int) -> List[Tuple[int, int]]:
    """All (k, N) with N <= max_n, 1 <= k < N/2, gcd(k, N) = 1, in order of N.

    So a shorter list is a prefix of a longer one.  The longest list formed
    up to N = ``_KEPT_PAIRS_MAX_N`` is kept, and a call is served a new list
    of its prefix, found by ``bisect``, so no caller can change what is kept.
    """
    global _kept_pairs
    if max_n > _KEPT_PAIRS_MAX_N:
        return _pairs(3, max_n)
    # every N >= 3 has the pair (1, N), so the last pair's N is the kept bound
    kept_n = _kept_pairs[-1][1] if _kept_pairs else 2
    if max_n > kept_n:
        _kept_pairs = _kept_pairs + _pairs(kept_n + 1, max_n)
    return _kept_pairs[:bisect_right(_kept_pairs, max_n, key=itemgetter(1))]
