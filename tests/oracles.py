"""Independent oracles for tests only.

The Machin arctangent formula gives pi digits through pure integer
arithmetic, sharing no code or method with the polygon pipeline under test.
mpmath supplies high-precision trig reference values.  ``directed`` rounds
an exact rational with ``Fraction`` and ``int`` alone, as the reference for
the dyadic kernel.  ``interval_walk`` and ``interval_classify`` are the
chord solver's former walk in ``Interval`` steps, the reference for its
fixed-point ball walk; ``interval_distance`` and ``interval_tangent_meet``
are the ``Interval`` expressions that ``circuits.distance`` and
``circuits.tangent_intersection`` fuse; ``explicit_circuit_measures``
measures a circuit edge by edge in ``Interval`` expressions, the reference
for ``circuits.circuit_measures``, which measures one chord per distinct
gap, and ``interval_weighted_sum`` is the count-weighted ``Interval`` sum
that ``circuits._weighted_sum`` fuses; ``ball_winding`` counts a winding on one ball walk of the whole chord
enclosure, with no split, and ``interval_winding`` on the ``Interval`` walk
of ``gamma_path``; ``two_path_winding``, the first with the second as its
fallback, is ``rational.winding_count`` as it was before it split the
enclosure.  ``interval_chord_root``, ``interval_rotation``,
``interval_halve_edge``, ``interval_circumscribed_edge``,
``interval_edge_terms``, ``interval_scheme_measures`` and
``interval_ladder`` are the ``Interval`` expressions that the chord kernel
``polygons._chord_root`` and its readers replace, each forming its own
sqrt(4 - c^2); ``interval_lattice_verdict`` is ``trig.geometric_point``'s
former lattice test, a whole boundary ``Interval`` and ``compare_certain``;
``tolerance_geometric_point`` is ``trig.geometric_point``'s former loop,
stopped by a chord tolerance on a ladder of the former depth;
``unfiltered_crossings`` is ``rational._crossings`` with every edge tested.
These are the only oracles built on archpi.
``per_draw_circuit`` is ``random_circuit``'s former loop, one ``randint``
per vertex, the reference for its bulk gap draws.  ``scanned_romberg_order``
is ``polygons._romberg_order``'s former scan, one k at a time, the
reference for its search.  ``chain_pi_enclosure`` is
``polygons.pi_enclosure``'s former formula, Archimedes' bracket from the
``Interval`` chain, the reference for its Romberg bracket.  ``encloses``
checks that an interval holds an exact value, ``suite_passed`` that every
row of a suite result is ok, and ``on_circle`` that a point's coordinates
can lie on the unit circle.  Nothing here
is imported by the library.
"""

import math
import random
from fractions import Fraction

import mpmath

from archpi.circuits import (MAX_RING_DEPTH, CircuitMeasures, Rotation, _ball_walk,
                             lattice_ladder, unit_start, walk)
from archpi.dyadic import Dyadic
from archpi.errors import AmbiguousCrossing, AntipodalTangents, ClosureFailure, ThetaOutOfRange
from archpi.interval import Interval, Verdict, compare_certain
from archpi.polygons import (ROMBERG_BASE_DEPTH, RegularScheme, SchemeMeasures, pi_bounds,
                             pi_enclosure, require_chord, seed_edge, vertex_gap)
from archpi.rational import _ball_crosses, gamma_path
from archpi.trig import _inflate, _lattice_verdict, _theta_slack


def machin_pi_digits(count: int) -> str:
    """First ``count`` decimal digits of pi from pi/4 = 4*atan(1/5) - atan(1/239).

    Integer-only evaluation with explicit tail bounds: each arctangent
    series is alternating, so truncation error is below the first dropped
    term; guard digits absorb both tails and the final rounding.
    """
    guard = 12
    scale = 10 ** (count + guard)

    def atan_inv(x: int) -> int:
        # floor-ish of atan(1/x) * scale, error < 2 units in the last place
        total = 0
        term = scale // x
        x_sq = x * x
        k = 0
        while term:
            total += -term if k & 1 else term
            k += 1
            term = scale // (x_sq ** k * x * (2 * k + 1))
        return total

    pi_scaled = 4 * (4 * atan_inv(5) - atan_inv(239))
    digits = str(pi_scaled)[:count]
    return digits[0] + "." + digits[1:] if count > 1 else digits


def directed(value: Fraction, prec: int, up: bool) -> tuple:
    """(man, exp) of ``value`` rounded to ``prec`` significant bits toward
    +inf (up) or -inf, with an odd ``man``, or (0, 0) for zero.

    The grid is set by the value's own leading bit: 2**exp with
    2**(prec-1) <= |value| / 2**exp < 2**prec.
    """
    value = Fraction(value)
    if value == 0:
        return 0, 0
    exp = abs(value.numerator).bit_length() - value.denominator.bit_length() - prec
    while abs(value) / Fraction(2) ** exp >= 2**prec:
        exp += 1
    while abs(value) / Fraction(2) ** exp < 2 ** (prec - 1):
        exp -= 1
    scaled = value / Fraction(2) ** exp
    if up:
        man = -(-scaled.numerator // scaled.denominator)
    else:
        man = scaled.numerator // scaled.denominator
    zeros = len(bin(man)) - len(bin(man).rstrip("0"))
    return man // 2**zeros, exp + zeros


def trig_chord(fraction: Fraction, dps: int = 50) -> str:
    """Chord subtending the given fraction of the circle: 2*sin(pi*fraction)."""
    with mpmath.workdps(dps):
        value = 2 * mpmath.sin(mpmath.pi * fraction.numerator / fraction.denominator)
        return mpmath.nstr(value, dps - 5)


def projection_gap(fraction: Fraction, n: int, k: int, dps: int = 50) -> str:
    """The gap (P_{k+2} - P_{k+1}).u, k = 0..n-1, between points of the arc
    spanning ``fraction`` of the circle from (1, 0), split n ways, projected
    onto the unit vector u along its chord: with beta the step angle, the
    step chord 2 sin(beta/2) times cos((2k + 1 - n) beta/2)."""
    with mpmath.workdps(dps):
        beta = 2 * mpmath.pi * fraction.numerator / (fraction.denominator * n)
        value = 2 * mpmath.sin(beta / 2) * mpmath.cos((2 * k + 1 - n) * beta / 2)
        return mpmath.nstr(value, dps - 5)


def trig_value(fn_name: str, x, dps: int = 50) -> str:
    with mpmath.workdps(dps):
        value = getattr(mpmath, fn_name)(mpmath.mpf(x))
        return mpmath.nstr(value, dps - 5)


def contains(interval, reference, dps: int = 50) -> bool:
    """Does the dyadic interval contain the mpmath reference value?"""
    with mpmath.workdps(dps):
        ref = mpmath.mpf(reference)
        lo = mpmath.mpf(interval.lo.man) * mpmath.power(2, interval.lo.exp)
        hi = mpmath.mpf(interval.hi.man) * mpmath.power(2, interval.hi.exp)
        return lo <= ref <= hi


def encloses(interval, value) -> bool:
    """Does ``interval`` hold the exact ``value``, an int, a Fraction or a Dyadic?"""
    exact = value.as_fraction() if isinstance(value, Dyadic) else Fraction(value)
    return interval.lo.as_fraction() <= exact <= interval.hi.as_fraction()


def suite_passed(result) -> bool:
    """Is every row of a ``SuiteResult`` ok?"""
    return all(row["status"] == "ok" for row in result.rows)


def on_circle(point) -> bool:
    """Certified membership: x^2 + y^2 must contain 1."""
    return encloses(point.x * point.x + point.y * point.y, 1)


def interval_walk(step, n: int, prec: int) -> list:
    """The n points after (1, 0) of the half-angle rotation (sin = step/2),
    stepped as ``Interval`` coordinates at ``prec`` bits."""
    sb = Interval.exact(step, prec) / 2
    rotation = Rotation((1 - sb * sb).sqrt(), sb)
    return list(walk(unit_start(prec), rotation, n))[1:]


def interval_classify(step, n: int, chord_total, prec: int) -> str:
    """Whether n steps of chord ``step`` fall "under" or pass ("over") the end
    of the arc of chord ``chord_total``, or "ambig": the ``Interval`` walk,
    with its exit at the first certain pass."""
    target = (4 - chord_total * chord_total).sqrt() / 2
    for point in interval_walk(step, n, prec):
        if compare_certain(point.x, target) is Verdict.CERTAINLY_LESS:
            return "over"
    if compare_certain(point.x, target) is Verdict.CERTAINLY_GREATER:
        return "under"
    return "ambig"


def interval_distance(p, q):
    """|q - p| as the ``Interval`` expression sqrt(dx*dx + dy*dy)."""
    dx = q.x - p.x
    dy = q.y - p.y
    return (dx * dx + dy * dy).sqrt()


def interval_tangent_meet(p, q):
    """The meet (p + q) / (1 + p.q) of the tangents at p and q, as
    ``Interval`` expressions."""
    denom = 1 + (p.x * q.x + p.y * q.y)
    if denom.lo.sign <= 0 <= denom.hi.sign:
        raise AntipodalTangents("tangent lines are (possibly) parallel")
    return ((p.x + q.x) / denom, (p.y + q.y) / denom)


def interval_weighted_sum(terms, counts, prec):
    """``circuits._weighted_sum``: the ``Interval`` expression
    Interval.exact(0, prec) + t1*n1 + t2*n2 + ..., in that order."""
    total = Interval.exact(0, prec)
    for term, count in zip(terms, counts):
        total = total + term * count
    return total


def explicit_circuit_measures(vertices, prec):
    """The measures of the closed circuit through ``vertices``, edge by edge.

    Each edge's chord c is ``interval_distance`` of its ends; its two
    tangent legs add the detour 2c/sqrt(4 - c^2), and its inscribed
    triangle has area c*sqrt(4 - c^2)/4.
    """
    chords = [interval_distance(p, q)
              for p, q in zip(vertices, vertices[1:] + vertices[:1])]
    roots = [(4 - c * c).sqrt() for c in chords]
    zero = Interval.exact(0, prec)
    perim_in = sum(chords, zero)
    perim_circ = sum((c * 2 / r for c, r in zip(chords, roots)), zero)
    area_in = sum((c * r / 4 for c, r in zip(chords, roots)), zero)
    return CircuitMeasures(
        perimeter_in=perim_in,
        perimeter_circ=perim_circ,
        area_in=area_in,
        area_circ=perim_circ / 2,
        mesh=Interval(max(c.lo for c in chords), max(c.hi for c in chords), prec),
        min_edge=Interval(min(c.lo for c in chords), min(c.hi for c in chords), prec),
    )


def interval_chord_root(c):
    """(c*c, (4 - c*c).sqrt()), as ``Interval`` expressions."""
    c_sq = c * c
    return c_sq, (4 - c_sq).sqrt()


def interval_rotation(c):
    """``Rotation.of_chord(c)``: cos 1 - c^2/2, sin c*sqrt(4 - c^2)/2."""
    require_chord(c, "step chord")
    c_sq = c * c
    return Rotation(1 - c_sq / 2, (c * (4 - c_sq).sqrt()) / 2)


def interval_halve_edge(ell):
    """``polygons.halve_edge``: ell / sqrt(2 + sqrt(4 - ell^2))."""
    require_chord(ell, "chord")
    return ell / (2 + (4 - ell * ell).sqrt()).sqrt()


def interval_circumscribed_edge(ell):
    """``polygons.circumscribed_edge``: 2 ell / sqrt(4 - ell^2)."""
    require_chord(ell, "chord")
    return (ell * 2) / (4 - ell * ell).sqrt()


def interval_edge_terms(chord):
    """``circuits._edge_terms``: the detour 2c/sqrt(4 - c^2) and the
    triangle area c*sqrt(4 - c^2)/4."""
    root = (4 - chord * chord).sqrt()
    return (chord * 2) / root, (chord * root) / 4


def interval_scheme_measures(scheme, ell):
    """``polygons._measures_from_edge``, its root formed twice."""
    count = scheme.edge_count
    L = interval_circumscribed_edge(ell)
    p = ell * count
    P = L * count
    a = (p * (4 - ell * ell).sqrt()) / 4
    return SchemeMeasures(scheme, ell, L, p, P, a, P / 2, vertex_gap(L))


def interval_ladder(prec, depth):
    """The first ``depth`` levels of ``circuits.lattice_ladder``: the
    triangle's edge halved by ``interval_halve_edge``, and each chord's
    ``interval_rotation``."""
    chords = [seed_edge(3, prec)]
    while len(chords) < depth:
        chords.append(interval_halve_edge(chords[-1]))
    return chords, [interval_rotation(c) for c in chords]


def interval_lattice_verdict(theta, two_pi, count, level):
    """``compare_certain`` of theta and the lattice boundary
    (two_pi * count) / (3 * 2^level), an ``Interval``."""
    return compare_certain(theta, (two_pi * count) / (3 << level))


def tolerance_geometric_point(theta, prec):
    """``trig.geometric_point`` with its former loop: over a ladder of depth
    max(prec, MAX_RING_DEPTH) + 8, stopped after the first level above 0
    whose chord is below 2^(8 - prec)."""
    if theta.lo.sign < 0:
        if theta.hi.sign > 0:
            raise ThetaOutOfRange("theta interval straddles zero")
        return tolerance_geometric_point(-theta, prec).reflect()
    two_pi = pi_enclosure(prec) * 2
    if compare_certain(theta, two_pi) is not Verdict.CERTAINLY_LESS:
        raise ThetaOutOfRange("theta must be certifiably below the full turn")
    if theta.hi.sign == 0:
        return unit_start(prec)
    chords, rotations = lattice_ladder(prec, max(prec, MAX_RING_DEPTH) + 8)
    tol = Dyadic(1, 8 - prec)
    index = 0
    point = unit_start(prec)
    for level in range(len(chords)):
        index *= 2
        for _ in range(3 if level == 0 else 1):
            verdict = _lattice_verdict(theta, two_pi, index + 1, level)
            if verdict is Verdict.CERTAINLY_LESS:
                break
            point = rotations[level](point)
            if verdict is Verdict.OVERLAP:
                boundary = (two_pi * (index + 1)) / (3 << level)
                return _inflate(point, _theta_slack(theta, boundary))
            index += 1
        if level and chords[level].hi < tol:
            break
    return _inflate(point, chords[level].hi)


def unfiltered_crossings(balls, w) -> int:
    """``rational._ball_crosses`` summed over every edge between
    consecutive balls."""
    return sum(_ball_crosses(a, b, w) for a, b in zip(balls, balls[1:]))


def sign_certain(value) -> int:
    """The sign of every number in the interval, else 0."""
    if value.lo.sign > 0:
        return 1
    if value.hi.sign < 0:
        return -1
    return 0


def crosses_start_radius(a, b) -> bool:
    """Does segment ab, of ``Interval`` points, cross the radius from the
    origin to (1, 0)?  ``rational._ball_crosses`` on boxes: the same two
    straddle tests with the same rules."""
    sa = sign_certain(a.y)
    sb = sign_certain(b.y)
    if sa != 0 and sa == sb:
        return False
    ex = b.x - a.x
    ey = b.y - a.y
    ex_ay = ex * a.y
    so = sign_certain(ex_ay - ey * a.x)
    su = sign_certain(ex_ay - ey * (a.x - 1))
    if so != 0 and so == su:
        return False
    if sa != 0 and sb != 0 and so != 0 and su != 0:
        return True
    raise AmbiguousCrossing("ambiguous crossing test; raise precision")


def interval_winding(r) -> int:
    """The winding of ``r`` on the ``Interval`` walk of ``gamma_path``."""
    points = gamma_path(r)
    return 1 + sum(crosses_start_radius(a, b) for a, b in zip(points[1:-1], points[2:]))


def ball_winding(r) -> int:
    """The winding of ``r`` on one ball walk of its whole chord enclosure."""
    w = r.chord.prec
    balls = list(_ball_walk(Rotation.of_chord(r.chord), r.N, w))
    x, y, radius = balls[-1]
    if (x - (1 << w)) ** 2 + y * y > radius * radius:
        raise ClosureFailure(f"path for ({r.k}, {r.N}) certifiably misses its start")
    return 1 + unfiltered_crossings(balls[:-1], w)


def two_path_winding(r) -> int:
    """``ball_winding``, taken again by ``interval_winding`` where a crossing
    on the balls is ambiguous."""
    try:
        return ball_winding(r)
    except AmbiguousCrossing:
        return interval_winding(r)


def per_draw_circuit(m: int, gmax: int, seed: int):
    """(indices, gaps) of the circuit that steps round the 3*2^m-gon ring
    from vertex 0 by ``random.Random(seed).randint(1, gmax)`` vertices at a
    time, each step clamped to stay short of a full turn, until at most
    gmax steps are left; the last gap closes the circuit."""
    n = 3 << m
    rng = random.Random(seed)
    indices, position = [0], 0
    while n - position > gmax:
        position += min(rng.randint(1, gmax), n - position - 1)
        indices.append(position)
    return indices, [b - a for a, b in zip(indices, indices[1:])] + [n - position]


def scanned_romberg_order(count: int) -> int:
    """The least k whose float estimate of the Romberg error bound is below
    10^-(count+2), found by trying k = 0, 1, 2, ... in turn."""
    log2 = math.log10(2)
    log_h0 = -math.log10(9 << 2 * ROMBERG_BASE_DEPTH)
    k = 0
    while (log_h0 * (k + 1) - log2 * k * (k + 1) + log2 * (6 * k + 11)
           - math.lgamma(2 * k + 5) / math.log(10)) >= -(count + 2):
        k += 1
    return k


def chain_pi_enclosure(prec: int) -> Interval:
    """Archimedes' bracket of the triangle at depth prec//2 + 8 and
    prec + 16 bits, rounded outward to ``prec`` bits."""
    return pi_bounds(RegularScheme(3, prec // 2 + 8), prec + 16).with_prec(prec)
