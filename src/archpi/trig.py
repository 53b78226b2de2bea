"""Sine and cosine grounded in the polygon scheme, and the theta/sin theta sandwich.

The point at a given arclength is found by inverting the certified
arclength map: one bisection on the circle fraction over the vertex lattice
of the refined triangle, a loop over a fixed count of levels of
``circuits.lattice_ladder``, never through a series.  Signed arguments
reflect across the x-axis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import CirclePoint, lattice_ladder, unit_start
from .dyadic import Dyadic, _rounded
from .errors import ThetaOutOfRange
from .interval import Interval, Verdict, compare_certain
from .polygons import pi_enclosure


def geometric_point(theta: Interval, prec: int) -> CirclePoint:
    """Point whose counterclockwise arc from (1, 0) has length theta.

    One bisection of the circle fraction on the lattice a/(3*2^j), a loop
    over the levels of the cached lattice ladder: each boundary theta
    reaches advances the candidate point by that level's rotation.  It
    walks levels 0 .. max(prec - 6, 1); the last is the first level above 0
    whose chord is below 2^(8 - prec).
    """
    if theta.lo.sign < 0:
        if theta.hi.sign > 0:
            raise ThetaOutOfRange("theta interval straddles zero")
        return geometric_point(-theta, prec).reflect()
    two_pi = pi_enclosure(prec) * 2
    if compare_certain(theta, two_pi) is not Verdict.CERTAINLY_LESS:
        raise ThetaOutOfRange("theta must be certifiably below the full turn")
    if theta.hi.sign == 0:
        return unit_start(prec)

    # chords[j] spans the circle fraction 1/(3*2^j), rotations[j] steps by it
    depth = max(prec - 6, 1)
    chords, rotations = lattice_ladder(prec, depth)

    # bracket state: point at fraction index/(3*2^level); invariant theta
    # lies in [arc(index), arc(index + 1)] at the current level.  Level 0
    # tests the three thirds, each later level the bracket's midpoint
    index = 0
    point = unit_start(prec)
    # chord j >= 2 is within 1.2% below 2^(1.066 - j): depth is the first under 2^(8 - prec)
    for level in range(depth + 1):
        index *= 2
        for _ in range(3 if level == 0 else 1):
            verdict = _lattice_verdict(theta, two_pi, index + 1, level)
            if verdict is Verdict.CERTAINLY_LESS:
                break
            # theta is at or past the boundary: only then rotate to it
            point = rotations[level](point)
            if verdict is Verdict.OVERLAP:
                # theta sits on a lattice boundary: pin to it directly
                boundary = (two_pi * (index + 1)) / (3 << level)
                return _inflate(point, _theta_slack(theta, boundary))
            index += 1

    # true point lies on the arc from point to point advanced one chord;
    # every coordinate is within the bracket chord of the lower endpoint
    return _inflate(point, chords[level].hi)


def _lattice_verdict(theta: Interval, two_pi: Interval, count: int, level: int) -> Verdict:
    """``compare_certain(theta, (two_pi * count) / (3 << level))`` for
    count > 0, on the boundary's raw ends: the upper end is formed only
    when the lower end does not settle the test."""
    p, lo = two_pi.prec, two_pi.lo
    if theta.hi._cmp(_boundary_end(lo.man, lo.exp, count, level, p, False)) < 0:
        return Verdict.CERTAINLY_LESS
    hi = two_pi.hi
    if theta.lo._cmp(_boundary_end(hi.man, hi.exp, count, level, p, True)) > 0:
        return Verdict.CERTAINLY_GREATER
    return Verdict.OVERLAP


def _boundary_end(man: int, exp: int, count: int, level: int, prec: int, up: bool) -> Dyadic:
    """The lower (upper) end of (two_pi * count) / (3 << level) from the
    lower (upper) end man * 2^exp > 0 of two_pi, rounded as that Interval
    expression rounds it: the product to ``prec`` bits, then the quotient
    as ``Dyadic.div`` forms it, prec + 2 or prec + 3 bits rounded once."""
    man *= count
    drop = man.bit_length() - prec
    if drop > 0:
        man = -(-man >> drop) if up else man >> drop
        exp += drop
    shift = prec + 4 - man.bit_length()
    man <<= shift
    return _rounded(-(-man // 3) if up else man // 3, exp - level - shift, prec, up)


def _theta_slack(theta: Interval, boundary: Interval) -> Dyadic:
    # |theta - boundary| is below the hull width; arc distance bounds chord
    return max(theta.hi - boundary.lo, boundary.hi - theta.lo)


def _inflate(point: CirclePoint, slack: Dyadic) -> CirclePoint:
    return CirclePoint(point.x.widen(slack), point.y.widen(slack))


def geometric_sin(theta: Interval, prec: int) -> Interval:
    return geometric_point(theta, prec).y


def geometric_cos(theta: Interval, prec: int) -> Interval:
    return geometric_point(theta, prec).x


@dataclass(frozen=True)
class SandwichReport:
    theta: Interval
    mid: Interval         # theta / sin(theta)
    upper: Interval       # 1 / cos(theta)
    lower_verdict: Verdict   # expect 1 certainly <= mid
    upper_verdict: Verdict   # expect mid certainly <= upper

    def serialize(self) -> dict:
        return {
            "theta": list(self.theta.decimal_pair()),
            "mid": list(self.mid.decimal_pair()),
            "upper": list(self.upper.decimal_pair()),
            "lower_verdict": self.lower_verdict.value,
            "upper_verdict": self.upper_verdict.value,
        }


def sandwich_report(theta: Interval, prec: int) -> SandwichReport:
    """Certified two-triangle bracket 1 <= theta/sin(theta) <= 1/cos(theta)."""
    if theta.lo.sign <= 0:
        raise ThetaOutOfRange("theta must be certifiably positive")
    half_pi = pi_enclosure(prec) / 2
    if compare_certain(theta, half_pi) is not Verdict.CERTAINLY_LESS:
        raise ThetaOutOfRange("theta must be certifiably below a quarter turn")
    point = geometric_point(theta, prec)
    mid = theta / point.y
    upper = 1 / point.x
    one = Interval.exact(1, prec)
    return SandwichReport(
        theta=theta,
        mid=mid,
        upper=upper,
        lower_verdict=compare_certain(one, mid),
        upper_verdict=compare_certain(mid, upper),
    )
