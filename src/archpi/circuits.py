"""Circuits: counterclockwise point sequences on the unit circle.

Points carry coordinate intervals, never angles; all construction is by
algebraic chord-stepping so the pipeline stays independent of trigonometry.
A ``Rotation`` is built once per chord, and ``walk`` applies it k times:
every "step around the circle" in the package is a walk.  ``_ball_walk``
is the same walk in fixed-point ball arithmetic, on plain integers; the
chord solver classifies its steps with it and ``rational`` checks windings
with it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import islice
from typing import Iterator, List, Sequence, Tuple

from .dyadic import Dyadic
from .errors import AntipodalTangents, NegativeSqrt, PreconditionViolation
from .interval import (Interval, _interval, _product, _quotient, _raw_sum,
                       _sum)
from .polygons import edge_chain, require_chord

#: deepest ring a circuit may sit on: 3*2^18 = 786,432 vertices
MAX_RING_DEPTH = 18


class CirclePoint:
    """A point of the unit circle, as its coordinate intervals."""

    __slots__ = ("x", "y")

    def __init__(self, x: Interval, y: Interval):
        self.x = x
        self.y = y

    def on_circle(self) -> bool:
        """Certified membership: x^2 + y^2 must contain 1."""
        return (self.x * self.x + self.y * self.y).contains(1)

    def reflect(self) -> "CirclePoint":
        return CirclePoint(self.x, -self.y)

    def serialize(self) -> list:
        return [list(self.x.decimal_pair()), list(self.y.decimal_pair())]


def unit_start(prec: int) -> CirclePoint:
    return CirclePoint(Interval.exact(1, prec), Interval.exact(0, prec))


def distance(p: CirclePoint, q: CirclePoint) -> Interval:
    """sqrt(dx*dx + dy*dy) with (dx, dy) = q - p, bit-identical to that
    Interval expression: each difference, product and sum endpoint is
    rounded at its operation's precision, with no Interval built in
    between."""
    px, py, qx, qy = p.x, p.y, q.x, q.y
    a, b, c, d = qx.lo, qx.hi, px.lo, px.hi
    r = qx.prec if qx.prec < px.prec else px.prec
    am, ae = _raw_sum(a.man, a.exp, -d.man, d.exp, r, False)
    bm, be = _raw_sum(b.man, b.exp, -c.man, c.exp, r, True)
    xlm, xle, xhm, xhe = _product(am, ae, bm, be, am, ae, bm, be, r)
    a, b, c, d = qy.lo, qy.hi, py.lo, py.hi
    s = qy.prec if qy.prec < py.prec else py.prec
    am, ae = _raw_sum(a.man, a.exp, -d.man, d.exp, s, False)
    bm, be = _raw_sum(b.man, b.exp, -c.man, c.exp, s, True)
    ylm, yle, yhm, yhe = _product(am, ae, bm, be, am, ae, bm, be, s)
    if s < r:
        r = s
    lo = _sum(xlm, xle, ylm, yle, r, False)
    hi = _sum(xhm, xhe, yhm, yhe, r, True)
    if lo.man < 0:
        raise NegativeSqrt(f"sqrt of {_interval(lo, hi, r)}")
    return _interval(lo.sqrt(r, up=False), hi.sqrt(r, up=True), r)


@dataclass(frozen=True)
class Rotation:
    """Counterclockwise rotation about the origin, as its (cos, sin) pair."""

    cos: Interval
    sin: Interval

    @staticmethod
    def of_chord(c: Interval) -> "Rotation":
        """Rotation carrying a circle point to its neighbor at chord distance c.

        Its cosine is 1 - c^2/2 and its sine c*sqrt(4-c^2)/2.  The rotation
        is an isometry, so coordinate widths grow only additively (one
        rounding term per step); long chains stay tight without any explicit
        renormalization, which would decorrelate the coordinates and inflate
        the enclosure instead of shrinking it.
        """
        require_chord(c, "step chord")
        c_sq = c * c
        return Rotation(1 - c_sq / 2, (c * (4 - c_sq).sqrt()) / 2)

    def __call__(self, p: CirclePoint) -> CirclePoint:
        """(x cos - y sin, x sin + y cos), bit-identical to that Interval
        expression: each product endpoint is rounded at its product's
        precision and each sum endpoint at the sum's, with no Interval or
        Dyadic built in between."""
        x, y, cos, sin = p.x, p.y, self.cos, self.sin
        a, b = x.lo, x.hi
        xlm, xle, xhm, xhe = a.man, a.exp, b.man, b.exp
        a, b = y.lo, y.hi
        ylm, yle, yhm, yhe = a.man, a.exp, b.man, b.exp
        a, b = cos.lo, cos.hi
        clm, cle, chm, che = a.man, a.exp, b.man, b.exp
        a, b = sin.lo, sin.hi
        slm, sle, shm, she = a.man, a.exp, b.man, b.exp
        pc = x.prec if x.prec < cos.prec else cos.prec
        ps = y.prec if y.prec < sin.prec else sin.prec
        am, ae, bm, be = _product(xlm, xle, xhm, xhe, clm, cle, chm, che, pc)
        cm, ce, dm, de = _product(ylm, yle, yhm, yhe, slm, sle, shm, she, ps)
        q = pc if pc < ps else ps
        new_x = _interval(_sum(am, ae, -dm, de, q, False),
                          _sum(bm, be, -cm, ce, q, True), q)
        pc = x.prec if x.prec < sin.prec else sin.prec
        ps = y.prec if y.prec < cos.prec else cos.prec
        am, ae, bm, be = _product(xlm, xle, xhm, xhe, slm, sle, shm, she, pc)
        cm, ce, dm, de = _product(ylm, yle, yhm, yhe, clm, cle, chm, che, ps)
        q = pc if pc < ps else ps
        new_y = _interval(_sum(am, ae, cm, ce, q, False),
                          _sum(bm, be, dm, de, q, True), q)
        return CirclePoint(new_x, new_y)


def walk(start: CirclePoint, rotation: Rotation, k: int) -> Iterator[CirclePoint]:
    """``start``, then its k successive images under ``rotation``."""
    point = start
    yield point
    for _ in range(k):
        point = rotation(point)
        yield point


def _scaled(d: Dyadic, w: int, up: bool) -> int:
    """d * 2^w rounded to an integer toward +inf (up) or -inf."""
    k = d.exp + w
    if k >= 0:
        return d.man << k
    return -(-d.man >> -k) if up else d.man >> -k


def _ball(x: Interval, w: int) -> Tuple[int, int]:
    """Integer center and radius of an enclosure of x at scale 2^-w."""
    lo = _scaled(x.lo, w, up=False)
    hi = _scaled(x.hi, w, up=True)
    center = (lo + hi) >> 1
    return center, hi - center


def _ball_walk(rotation: Rotation, n: int, w: int) -> Iterator[Tuple[int, int, int]]:
    """(X, Y, R) after each of n rotations of (1, 0), at scale 2^-w.

    The true point lies within Euclidean distance R * 2^-w of (X, Y) * 2^-w,
    for every rotation whose cos and sin lie in the enclosures.  Those give
    integer centers c, s and radii r_c, r_s; each step sets
    X, Y = (X*c - Y*s) >> w, (X*s + Y*c) >> w and
    R += ceil(rho*(2^w + R)/2^w) + 2 with rho = r_c + r_s.  The true rotation
    is an isometry, the center rotation is within rho*2^-w of it in norm,
    the point has norm at most 1 + R*2^-w, and the floors lose under
    sqrt(2) ulp, so the true point stays within R*2^-w of the center.
    """
    c, r_c = _ball(rotation.cos, w)
    s, r_s = _ball(rotation.sin, w)
    rho = r_c + r_s
    one = 1 << w
    x, y, r = one, 0, 0
    for _ in range(n):
        x, y = (x * c - y * s) >> w, (x * s + y * c) >> w
        r += -(-rho * (one + r) >> w) + 2
        yield x, y, r


def step_by_chord(p: CirclePoint, c: Interval) -> CirclePoint:
    """Counterclockwise neighbor of p at chord distance c."""
    return Rotation.of_chord(c)(p)


def tangent_intersection(p: CirclePoint, q: CirclePoint) -> Tuple[Interval, Interval]:
    """Meet of the tangent lines at p and q: (p + q) / (1 + p.q).

    Bit-identical to that Interval expression: each product, sum and
    quotient endpoint is rounded at its operation's precision, with no
    Interval built in between.
    """
    px, py, qx, qy = p.x, p.y, q.x, q.y
    a, b, c, d = px.lo, px.hi, qx.lo, qx.hi
    r = px.prec if px.prec < qx.prec else qx.prec
    am, ae, bm, be = _product(a.man, a.exp, b.man, b.exp,
                              c.man, c.exp, d.man, d.exp, r)
    x_lo = _sum(a.man, a.exp, c.man, c.exp, r, False)
    x_hi = _sum(b.man, b.exp, d.man, d.exp, r, True)
    a, b, c, d = py.lo, py.hi, qy.lo, qy.hi
    s = py.prec if py.prec < qy.prec else qy.prec
    cm, ce, dm, de = _product(a.man, a.exp, b.man, b.exp,
                              c.man, c.exp, d.man, d.exp, s)
    y_lo = _sum(a.man, a.exp, c.man, c.exp, s, False)
    y_hi = _sum(b.man, b.exp, d.man, d.exp, s, True)
    t = r if r < s else s
    am, ae = _raw_sum(am, ae, cm, ce, t, False)
    bm, be = _raw_sum(bm, be, dm, de, t, True)
    lo = _sum(am, ae, 1, 0, t, False)
    hi = _sum(bm, be, 1, 0, t, True)
    if lo.man <= 0 <= hi.man:
        raise AntipodalTangents("tangent lines are (possibly) parallel")
    # the denominator's precision t is at most r and s
    return _quotient(x_lo, x_hi, lo, hi, t), _quotient(y_lo, y_hi, lo, hi, t)


@dataclass(frozen=True)
class Circuit:
    """Closed counterclockwise circuit through vertices of the 3*2^m-gon ring.

    Only ``from_regular_indices`` builds one.  It keeps the ring depth
    ``ring_m``, the sorted vertex ``indices`` and the per-edge step counts
    ``gaps``, checks the circuit conditions (at least 3 points, every
    adjacent arc under half the circle) with integer gap bookkeeping, and
    builds no ring.  ``vertices`` is the open vertex list: the indexed
    points of one ``ring_walk``.
    """

    ring_m: int
    indices: Tuple[int, ...]
    gaps: List[int]
    prec: int

    @property
    def vertices(self) -> List[CirclePoint]:
        wanted = set(self.indices)
        ring = ring_walk(self.ring_m, self.prec, self.indices[-1])
        return [p for i, p in enumerate(ring) if i in wanted]

    def __len__(self) -> int:
        return len(self.indices)

    @staticmethod
    def from_regular_indices(m: int, indices: Sequence[int], prec: int) -> "Circuit":
        """Circuit through the given vertices of the 3*2^m-gon ring."""
        if not 0 <= m <= MAX_RING_DEPTH:
            raise PreconditionViolation(
                f"ring depth must lie in 0..{MAX_RING_DEPTH}, got {m}")
        n = 3 << m
        idx = sorted(set(i % n for i in indices))
        if len(idx) < 3:
            raise PreconditionViolation("a circuit needs at least 3 points")
        gaps = [idx[j + 1] - idx[j] for j in range(len(idx) - 1)]
        gaps.append(n - idx[-1] + idx[0])
        if max(gaps) * 2 >= n:
            raise PreconditionViolation("adjacent arc spans at least half the circle")
        return Circuit(m, tuple(idx), gaps, prec)


@dataclass(frozen=True)
class CircuitMeasures:
    perimeter_in: Interval
    perimeter_circ: Interval
    area_in: Interval
    area_circ: Interval
    mesh: Interval
    min_edge: Interval

    def serialize(self) -> dict:
        return {f.name: list(getattr(self, f.name).decimal_pair())
                for f in fields(self)}


def _edge_terms(chord: Interval) -> Tuple[Interval, Interval]:
    """(tangent detour length, inscribed triangle area) for one edge chord.

    The two tangent legs at an edge of chord c each measure c/sqrt(4-c^2);
    the inscribed triangle has area (c/4)*sqrt(4-c^2) (Heron form).
    """
    root = (4 - chord * chord).sqrt()
    return (chord * 2) / root, (chord * root) / 4


def circuit_measures(circuit: Circuit) -> CircuitMeasures:
    prec = circuit.prec
    # one chord per distinct step count, each with its multiplicity, read
    # off one walk prefix
    counts = Counter(circuit.gaps)
    prefix = list(ring_walk(circuit.ring_m, prec, max(counts)))
    terms = [(distance(prefix[0], prefix[g]), n) for g, n in counts.items()]
    perim_in = perim_circ = area_in = Interval.exact(0, prec)
    for chord, count in terms:
        detour, tri_area = _edge_terms(chord)
        perim_in = perim_in + chord * count
        perim_circ = perim_circ + detour * count
        area_in = area_in + tri_area * count
    chords = [chord for chord, _ in terms]
    mesh = Interval(
        max(c.lo for c in chords), max(c.hi for c in chords), prec
    )
    min_edge = Interval(
        min(c.lo for c in chords), min(c.hi for c in chords), prec
    )
    return CircuitMeasures(
        perimeter_in=perim_in,
        perimeter_circ=perim_circ,
        area_in=area_in,
        area_circ=perim_circ / 2,
        mesh=mesh,
        min_edge=min_edge,
    )


def regular_ring(m: int, prec: int) -> List[CirclePoint]:
    """All 3*2^m vertices of the regular triangle refinement."""
    return list(ring_walk(m, prec, (3 << m) - 1))


def ring_walk(m: int, prec: int, k: int) -> Iterator[CirclePoint]:
    """The first k + 1 vertices of the 3*2^m-gon ring, from (1, 0)."""
    return walk(unit_start(prec), lattice_ladder(prec)[1][m], k)


@lru_cache(maxsize=64)
def lattice_ladder(prec: int) -> Tuple[Tuple[Interval, ...], Tuple[Rotation, ...]]:
    """Chords of 1/(3*2^j) of a turn and their rotations, j = 0..depth, cached.

    The depth, max(prec, MAX_RING_DEPTH) + 8, covers every ring depth and
    every level of the arclength bisection in ``trig.geometric_point``.
    """
    chords = tuple(islice(edge_chain(3, prec), max(prec, MAX_RING_DEPTH) + 9))
    return chords, tuple(Rotation.of_chord(c) for c in chords)


def _refinement_for_cap(k: int, mesh_cap: Interval, prec: int) -> Tuple[int, int]:
    """Smallest depth m whose ring supports varied gaps under the cap.

    Returns (m, gmax): gmax steps of the ring edge are certainly shorter
    than the cap, gmax*k fits in the ring, and arcs stay under half circle.
    Prefers a depth where gmax >= 4 so generated circuits actually vary.
    Rejects a cap whose search would pass ``MAX_RING_DEPTH``.
    """
    if mesh_cap.lo.sign <= 0:
        raise PreconditionViolation("mesh cap must be certifiably positive")
    # only the cap's lower end decides "certainly shorter"
    cap_lo = mesh_cap.lo
    fallback = None
    for m, ell in enumerate(lattice_ladder(prec)[0][: MAX_RING_DEPTH + 1]):
        n = 3 << m
        if n >= 2 * k:
            gmax = 0
            while (
                (ell * (gmax + 1)).hi < cap_lo
                and (gmax + 1) * 2 < n
                and (gmax + 1) * k <= n
            ):
                gmax += 1
            if gmax >= 4:
                return m, gmax
            if gmax >= 1 and fallback is None:
                fallback = (m, gmax)
            if fallback is not None and m - fallback[0] >= 4:
                return fallback
    raise PreconditionViolation(
        f"mesh cap too small for ring depth at most {MAX_RING_DEPTH} "
        f"({3 << MAX_RING_DEPTH} vertices): lower --mesh-cap-exp or --points"
    )


def _gap_draws(seed: int, gmax: int) -> Iterator[int]:
    """The successive ``randint(1, gmax)`` of ``random.Random(seed)``.

    randint rejects getrandbits(gmax.bit_length()) draws until one is below
    gmax; doing that here skips its argument handling, several times the
    cost of the draw itself.
    """
    draw = random.Random(seed).getrandbits
    bits = gmax.bit_length()
    while True:
        r = draw(bits)
        while r >= gmax:
            r = draw(bits)
        yield r + 1


def random_circuit(
    k: int, mesh_cap: Interval, seed: int, prec: int = 64
) -> Circuit:
    """Deterministic random circuit on regular-polygon vertices.

    Every edge chord is certified below the cap (via the subadditive bound
    gap * ring_edge), every arc is under half a circle, and at least k
    points appear.
    """
    if k < 3:
        raise PreconditionViolation("need at least 3 points")
    m, gmax = _refinement_for_cap(k, mesh_cap, prec)
    n = 3 << m
    draws = _gap_draws(seed, gmax)
    indices = [0]
    position = 0
    while True:
        remaining = n - position
        if remaining <= gmax:
            break
        gap = min(next(draws), remaining - 1)
        position += gap
        indices.append(position)
    return Circuit.from_regular_indices(m, indices, prec)
