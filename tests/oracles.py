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
gap; ``ball_winding`` counts a winding on one ball walk of the whole chord
enclosure, with no split, and ``interval_winding`` on the ``Interval`` walk
of ``gamma_path``; ``two_path_winding``, the first with the second as its
fallback, is ``rational.winding_count`` as it was before it split the
enclosure.  These eight are the only oracles built on archpi.
``per_draw_circuit`` is ``random_circuit``'s former loop, one ``randint``
per vertex, the reference for its bulk gap draws.  Nothing here is imported
by the library.
"""

import random
from fractions import Fraction

import mpmath

from archpi.circuits import CircuitMeasures, Rotation, _ball_walk, unit_start, walk
from archpi.errors import AmbiguousCrossing, AntipodalTangents, ClosureFailure
from archpi.interval import Interval, Verdict, compare_certain
from archpi.rational import _ball_crosses, gamma_path


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
    return 1 + sum(_ball_crosses(a, b, w) for a, b in zip(balls[:-2], balls[1:-1]))


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
