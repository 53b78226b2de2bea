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
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import accumulate, islice
from typing import Callable, Iterator, List, Sequence, Tuple

from .dyadic import Dyadic, _rounded
from .errors import AntipodalTangents, NegativeSqrt, PreconditionViolation
from .interval import (Interval, _interval, _product, _quotient, _raw_sum,
                       _sum)
from .polygons import _chord_root, _tangent_edge, edge_chain, require_chord

#: deepest ring a circuit may sit on: 3*2^18 = 786,432 vertices
MAX_RING_DEPTH = 18


class CirclePoint:
    """A point of the unit circle, as its coordinate intervals."""

    __slots__ = ("x", "y")

    def __init__(self, x: Interval, y: Interval):
        self.x = x
        self.y = y

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
        return _rotation(c, _chord_root(c))

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


def _rotation(c: Interval, terms: tuple) -> Rotation:
    """``Rotation.of_chord(c)`` from ``polygons._chord_root(c)``, for a
    chord c > 0: the cosine 1 - c_sq/2 and the sine (c * root)/2,
    bit-identical to those Interval expressions."""
    lm, le, hm, he, root = terms
    p, a, b, r, s = c.prec, c.lo, c.hi, root.lo, root.hi
    return Rotation(
        _interval(_sum(1, 0, -hm, he - 1, p, False), _sum(1, 0, -lm, le - 1, p, True), p),
        _interval(_rounded(a.man * r.man, a.exp + r.exp - 1, p, False),
                  _rounded(b.man * s.man, b.exp + s.exp - 1, p, True), p))


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

    It keeps the ring depth ``ring_m``, the sorted vertex ``indices`` and
    the per-edge step counts ``gaps``, and builds no ring.  Both
    ``from_regular_indices`` and ``random_circuit`` build one through
    ``_checked_circuit``, which checks the circuit conditions (at least 3
    points, every adjacent arc under half the circle) on the gaps.
    ``vertices`` is the open vertex list: the points of one ``ring_walk``.
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
        _require_depth(m)
        n = 3 << m
        idx = sorted(set(i % n for i in indices))
        gaps = [(b - a) % n for a, b in zip(idx, idx[1:] + idx[:1])]
        return _checked_circuit(m, idx, gaps, prec)


def _checked_circuit(m: int, indices: List[int], gaps: List[int], prec: int) -> Circuit:
    """The circuit with these ring indices and cyclic gaps, if it has at
    least 3 points and every adjacent arc is under half the circle."""
    if len(indices) < 3:
        raise PreconditionViolation("a circuit needs at least 3 points")
    if max(gaps) * 2 >= 3 << m:
        raise PreconditionViolation("adjacent arc spans at least half the circle")
    return Circuit(m, tuple(indices), gaps, prec)


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
    root = _chord_root(chord)[4]
    return _tangent_edge(chord, root), (chord * root) / 4


@lru_cache(maxsize=512)
def _gap_terms(m: int, prec: int, g: int) -> Tuple[Interval, Interval, Interval]:
    """(chord, detour, triangle area) of g steps of the 3*2^m-gon ring, kept.

    The chord is the distance from (1, 0) to the end of a walk of g steps,
    and the other two are its ``_edge_terms``.  A term that falls short of
    precision raises, and is formed and raised again on the next call.
    """
    points = ring_walk(m, prec, g)
    start = end = next(points)
    for end in points:
        pass
    chord = distance(start, end)
    return (chord, *_edge_terms(chord))


def _weighted_sum(terms: Sequence[Interval], counts: Sequence[int], prec: int) -> Interval:
    """Interval.exact(0, prec) + t1*n1 + t2*n2 + ... for counts n >= 0.

    Bit-identical to that Interval expression: each product endpoint is
    rounded at its term's precision and each sum endpoint at the sum's,
    which is the least precision so far, with no Interval or Dyadic built
    in between.  A raw endpoint may carry trailing zero bits, and directed
    rounding depends only on the value.
    """
    lm = le = hm = he = 0
    for t, n in zip(terms, counts):
        a, b, q = t.lo, t.hi, t.prec
        if q < prec:
            prec = q
        # the product rounded alone, as a sum with 0
        am, ae = _raw_sum(a.man * n, a.exp, 0, a.exp, q, False)
        bm, be = _raw_sum(b.man * n, b.exp, 0, b.exp, q, True)
        lm, le = _raw_sum(lm, le, am, ae, prec, False)
        hm, he = _raw_sum(hm, he, bm, be, prec, True)
    return _interval(_rounded(lm, le, prec, False), _rounded(hm, he, prec, True), prec)


def circuit_measures(circuit: Circuit) -> CircuitMeasures:
    prec = circuit.prec
    # the kept terms of each distinct step count, weighted by its multiplicity
    counts = Counter(circuit.gaps)
    chords, detours, areas = zip(*(_gap_terms(circuit.ring_m, prec, g) for g in counts))
    weights = list(counts.values())
    perim_circ = _weighted_sum(detours, weights, prec)
    return CircuitMeasures(
        perimeter_in=_weighted_sum(chords, weights, prec),
        perimeter_circ=perim_circ,
        area_in=_weighted_sum(areas, weights, prec),
        area_circ=perim_circ / 2,
        mesh=Interval(max(c.lo for c in chords), max(c.hi for c in chords), prec),
        min_edge=Interval(min(c.lo for c in chords), min(c.hi for c in chords), prec),
    )


def _require_depth(m: int) -> None:
    """Reject a ring depth outside 0..``MAX_RING_DEPTH``, the ladder's levels."""
    if not 0 <= m <= MAX_RING_DEPTH:
        raise PreconditionViolation(f"ring depth must lie in 0..{MAX_RING_DEPTH}, got {m}")


def regular_ring(m: int, prec: int) -> List[CirclePoint]:
    """All 3*2^m vertices of the regular triangle refinement."""
    _require_depth(m)
    return list(ring_walk(m, prec, (3 << m) - 1))


def ring_walk(m: int, prec: int, k: int) -> Iterator[CirclePoint]:
    """The first k + 1 vertices, from (1, 0), of the 3*2^m-gon ring, 0 <= m <= MAX_RING_DEPTH."""
    _require_depth(m)
    return walk(unit_start(prec), lattice_ladder(prec, MAX_RING_DEPTH)[1][m], k)


@lru_cache(maxsize=64)
def lattice_ladder(prec: int, depth: int) -> Tuple[Tuple[Interval, ...], Tuple[Rotation, ...]]:
    """Chords of 1/(3*2^j) of a turn and their rotations, j = 0..depth, cached.

    The levels are ``polygons.edge_chain(3, prec)``'s; each rotation reads
    its level's root.  Each reader names the depth it reads.
    """
    chords, rotations = [], []
    for ell, terms in islice(edge_chain(3, prec), depth + 1):
        chords.append(ell)
        rotations.append(_rotation(ell, terms))
    return tuple(chords), tuple(rotations)


def _refinement_for_cap(k: int, mesh_cap: Interval, prec: int) -> Tuple[int, int]:
    """Smallest depth m whose ring supports varied gaps under the cap.

    Returns (m, gmax): gmax steps of the ring edge are certainly shorter
    than the cap, gmax*k fits in the ring, and arcs stay under half circle.
    Prefers a depth where gmax >= 4 so circuits vary, else the first with
    gmax >= 1; rejects a cap or k no depth to ``MAX_RING_DEPTH`` supports.
    """
    if mesh_cap.lo.sign <= 0:
        raise PreconditionViolation("mesh cap must be certifiably positive")
    # only the cap's lower end decides "certainly shorter"
    return _ring_depth(k, mesh_cap.lo, prec)


@lru_cache(maxsize=256)
def _ring_depth(k: int, cap_lo: Dyadic, prec: int) -> Tuple[int, int]:
    """``_refinement_for_cap``'s search on the ladder, for a cap whose lower
    end ``cap_lo`` is positive, kept per (k, cap_lo, prec)."""
    fallback = None
    for m, ell in enumerate(lattice_ladder(prec, MAX_RING_DEPTH)[0]):
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
    if fallback is not None:
        return fallback
    raise PreconditionViolation(
        f"mesh cap too small for ring depth at most {MAX_RING_DEPTH} "
        f"({3 << MAX_RING_DEPTH} vertices): lower --mesh-cap-exp or --points"
    )


@lru_cache(maxsize=8)
def _draw_table(gmax: int) -> Tuple[bytes, bytes]:
    """``_gap_draws``' translate table and rejected top bytes, gmax <= 255."""
    shift = 8 - gmax.bit_length()
    return (bytes((v >> shift) + 1 & 255 for v in range(256)),
            bytes(range(gmax << shift, 256)))


def _gap_draws(draw: Callable[[int], int], gmax: int, words: int) -> bytes:
    """The ``randint(1, gmax)`` draws that the next ``words`` 32-bit words
    of ``draw``, a ``random.Random.getrandbits``, give, in order.

    randint(1, gmax) is 1 + r, r = getrandbits(b), b = gmax.bit_length(),
    redrawn while r >= gmax; getrandbits(b <= 32) is the top b bits of one
    32-bit word, and getrandbits(32*j) packs the next j words
    little-endian.  So for gmax <= 255 the j tries are bytes 3, 7, 11, ...
    of getrandbits(32*j).to_bytes(4*j, "little"), shifted right by 8 - b,
    and one ``bytes.translate`` drops the rejected ones and maps the rest,
    in C.  ``_refinement_for_cap`` returns gmax <= 7: the first depth with
    gmax >= 4 follows one with gmax <= 3, and one level deeper at most
    doubles gmax + 1.
    """
    top = draw(32 * words).to_bytes(4 * words, "little")[3::4]
    return top.translate(*_draw_table(gmax))


def random_circuit(
    k: int, mesh_cap: Interval, seed: int, prec: int = 64
) -> Circuit:
    """Deterministic random circuit on regular-polygon vertices.

    Every edge chord is certified below the cap (via the subadditive bound
    gap * ring_edge), every arc is under half a circle, and at least k
    points appear.  The gaps are ``random.Random(seed)``'s draws of
    randint(1, gmax), read in chunks sized to the arc left; the vertices
    are their prefix sums up to the first at or past n - gmax, and the
    closing gap is at most gmax.
    """
    if k < 3:
        raise PreconditionViolation("need at least 3 points")
    m, gmax = _refinement_for_cap(k, mesh_cap, prec)
    n = 3 << m
    last = n - gmax
    draw = random.Random(seed).getrandbits
    indices, gaps = [0], []
    while indices[-1] < last:
        # a draw steps (gmax + 1)/2 and takes 2^b/gmax words, on average
        words = ((last - indices[-1]) * 2 << gmax.bit_length()) // ((gmax + 1) * gmax)
        chunk = _gap_draws(draw, gmax, words + 16)
        sums = list(accumulate(chunk, initial=indices[-1]))
        cut = bisect_left(sums, last)
        indices += sums[1:cut + 1]
        gaps += chunk[:cut]
    gaps.append(n - indices[-1])
    return _checked_circuit(m, indices, gaps, prec)
