from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archpi.circuits import lattice_ladder, step_by_chord, unit_start
from archpi.dyadic import Dyadic
from archpi.errors import ArchpiError, ThetaOutOfRange
from archpi.interval import Interval, Verdict, compare_certain
from archpi.polygons import edge_chain, pi_enclosure
from archpi.trig import (
    _inflate,
    _theta_slack,
    geometric_cos,
    geometric_point,
    geometric_sin,
    sandwich_report,
)

from oracles import contains, encloses, on_circle, tolerance_geometric_point, trig_value

PREC = 64


def exact(value, prec=PREC):
    if isinstance(value, str):
        return Interval.from_fraction(Fraction(value), prec)
    return Interval.exact(value, prec)


def arc(a, b, prec=PREC):
    """The arclength 2*pi*a/b, as an enclosure."""
    return (pi_enclosure(prec) * 2 * a) / b


def test_geometric_point_known_values():
    p = geometric_point(exact(1), PREC)
    assert contains(p.x, trig_value("cos", 1))
    assert contains(p.y, trig_value("sin", 1))
    assert on_circle(p)


def test_geometric_point_zero_and_negative():
    z = geometric_point(exact(0), PREC)
    assert encloses(z.x, 1) and encloses(z.y, 0)
    n = geometric_point(exact(-1), PREC)
    assert contains(n.x, trig_value("cos", 1))
    assert contains(n.y, trig_value("sin", -1))


def test_geometric_point_lattice_boundary():
    # exactly a quarter turn sits on the fraction lattice
    theta = arc(1, 4)
    p = geometric_point(theta, PREC)
    assert encloses(p.x, 0) and encloses(p.y, 1)
    third = geometric_point(arc(1, 3), PREC)
    assert contains(third.x, "-0.5")
    assert contains(third.y, "0.8660254037844386467637231707529361834714")


def test_geometric_point_domain():
    with pytest.raises(ThetaOutOfRange):
        geometric_point(pi_enclosure(PREC) * 2, PREC)
    with pytest.raises(ThetaOutOfRange):
        geometric_point(Interval.from_endpoints(Fraction(-1), Fraction(1), PREC), PREC)


def test_sin_cos_wrappers():
    assert contains(geometric_sin(exact("0.5"), PREC), trig_value("sin", "0.5"))
    assert contains(geometric_cos(exact("0.5"), PREC), trig_value("cos", "0.5"))


def test_enclosure_width_tracks_precision():
    for prec in (48, 96):
        p = geometric_point(exact(1, prec), prec)
        # bisection stops once the bracket chord is below 2^(8-prec), and
        # the point is inflated by that chord, so ~2^(10-prec) covers both
        assert p.x.width() < Dyadic(1, 10 - prec)
        assert p.y.width() < Dyadic(1, 10 - prec)


@pytest.mark.parametrize("prec", sorted({*range(3, 131), 16, 17, 32, 64, 128, 256, 1024}))
def test_tolerance_break_is_the_ladders_level_prec_minus_6(prec):
    # geometric_point's former loop stopped at the first level above 0 whose
    # chord is below 2^(8-prec): the last level of the ladder it now reads
    chords = lattice_ladder(prec, max(prec - 6, 1))[0]
    tol = Dyadic(1, 8 - prec)
    stop = next(level for level in range(1, len(chords)) if chords[level].hi < tol)
    assert stop == max(prec - 6, 1) < len(chords)


@given(st.integers(min_value=0, max_value=20), st.data())
@settings(max_examples=80)
def test_theta_slack_is_never_negative_on_an_overlap(level, data):
    # _inflate widens by this slack, so it must not shrink a pinned point
    prec = data.draw(st.sampled_from([16, 32, 64]))
    index = data.draw(st.integers(min_value=1, max_value=(3 << level) - 1))
    boundary = (pi_enclosure(prec) * 2 * index) / (3 << level)
    # theta's ends step by half the boundary's width, so most draws overlap
    step = boundary.width().as_fraction() / 2
    lo = boundary.lo.as_fraction() + data.draw(st.integers(-6, 4)) * step
    hi = lo + data.draw(st.integers(0, 4)) * step
    theta = Interval.from_endpoints(lo, hi, prec)
    if compare_certain(theta, boundary) is Verdict.OVERLAP:
        assert _theta_slack(theta, boundary).sign >= 0


def test_sandwich_at_tenth():
    rep = sandwich_report(exact("0.1"), PREC)
    assert contains(rep.mid, "1.0016686131634776648706352542076549559538")
    assert contains(rep.upper, "1.0050209184004554284651141013076594136095")
    assert rep.lower_verdict is Verdict.CERTAINLY_LESS
    assert rep.upper_verdict is Verdict.CERTAINLY_LESS


def test_sandwich_ladder_gap_shrinks():
    prev = None
    for k in (2, 4, 8):
        rep = sandwich_report(Interval.exact(Dyadic(1, -k), 96), 96)
        gap = rep.mid - 1
        assert gap.lo.sign > 0
        if prev is not None:
            assert gap.hi < prev.lo
        prev = gap


def test_sandwich_domain():
    with pytest.raises(ThetaOutOfRange):
        sandwich_report(exact(0), PREC)
    quarter_turn = arc(1, 4)
    with pytest.raises(ThetaOutOfRange):
        sandwich_report(quarter_turn, PREC)


def test_sandwich_serialize():
    out = sandwich_report(exact("0.25"), PREC).serialize()
    assert set(out) == {"theta", "mid", "upper", "lower_verdict", "upper_verdict"}
    assert out["lower_verdict"] == "certainly_less"


def test_approximation_sequence_independence():
    # an irrational-looking arclength supplied as two nested brackets must
    # give nested point enclosures: both contain the same underlying point
    wide = Interval.from_endpoints(Fraction(7, 10), Fraction(7, 10) + Fraction(1, 10**6), PREC)
    tight = Interval.from_endpoints(
        Fraction(7, 10) + Fraction(1, 10**9),
        Fraction(7, 10) + Fraction(2, 10**9),
        PREC,
    )
    pw = geometric_point(wide, PREC)
    pt = geometric_point(tight, PREC)
    assert pw.x.overlaps(pt.x) and pw.y.overlaps(pt.y)
    assert contains(pw.x, trig_value("cos", "0.7"))


def _reference_point(theta, prec):
    """geometric_point as written before the lattice ladder: a fresh edge
    chain per call and a chord step, cosine and sine recomputed, per level."""
    if theta.lo.sign < 0:
        return _reference_point(-theta, prec).reflect()
    two_pi = pi_enclosure(prec) * 2
    if theta.hi.sign == 0:
        return unit_start(prec)
    depth = prec + 8
    chords = [ell for ell, _ in islice(edge_chain(3, prec), depth + 1)]
    tol = Dyadic(1, 8 - prec)
    level = index = 0
    point = unit_start(prec)
    for third in range(3):
        boundary = (two_pi * (third + 1)) / 3
        verdict = compare_certain(theta, boundary)
        if verdict is Verdict.CERTAINLY_LESS:
            break
        if verdict is Verdict.OVERLAP:
            pinned = unit_start(prec)
            for _ in range(third + 1):
                pinned = step_by_chord(pinned, chords[0])
            return _inflate(pinned, _theta_slack(theta, boundary))
        index = third + 1
        point = step_by_chord(point, chords[0])
    while level < depth:
        mid_index = 2 * index + 1
        mid_point = step_by_chord(point, chords[level + 1])
        boundary = (two_pi * mid_index) / (3 << (level + 1))
        verdict = compare_certain(theta, boundary)
        if verdict is Verdict.OVERLAP:
            return _inflate(mid_point, _theta_slack(theta, boundary))
        level += 1
        index = mid_index - 1 if verdict is Verdict.CERTAINLY_LESS else mid_index
        if verdict is Verdict.CERTAINLY_GREATER:
            point = mid_point
        if chords[level].hi < tol:
            break
    return _inflate(point, chords[level].hi)


def _point_bits(p):
    return tuple((v.lo.man, v.lo.exp, v.hi.man, v.hi.exp, v.prec) for v in (p.x, p.y))


@pytest.mark.parametrize("prec", [32, 64, 128, 256])
def test_geometric_point_matches_the_stepwise_reference(prec):
    thetas = [exact(s, prec) for s in ("0.001", "0.5", "1", "-1", "-2.5", "3", "4.75",
                                       "6.2", "-0.125")]
    thetas += [arc(a, b, prec) for a, b in ((1, 4), (1, 3), (2, 3), (1, 12), (5, 24))]
    thetas.append(-arc(1, 6, prec))
    thetas.append(Interval.from_endpoints(Fraction(7, 10), Fraction(7001, 10000), prec))
    for theta in thetas:
        assert _point_bits(geometric_point(theta, prec)) == _point_bits(
            _reference_point(theta, prec)), theta


def _outcome(locate, theta, prec):
    """The point's bits, or the error's type and message."""
    try:
        return _point_bits(locate(theta, prec))
    except ArchpiError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _thetas(draw):
    """(theta, prec): theta within a few widths of 0, of the full turn or of
    a lattice boundary (two_pi * count) / (3 * 2^level), either sign."""
    prec = draw(st.sampled_from([16, 17, 32, 33, 64, 65, 128, 256]))
    two_pi = pi_enclosure(prec) * 2
    near = draw(st.sampled_from(["zero", "turn", "boundary", "boundary"]))
    if near == "zero":
        center = Interval.exact(0, prec)
    elif near == "turn":
        center = two_pi
    else:
        level = draw(st.integers(0, prec - 6))
        center = (two_pi * draw(st.integers(1, (3 << level) - 1))) / (3 << level)
    # the ends step by quarters of the center's width, at least 2^-prec
    quarter = max(center.width().as_fraction() / 4, Fraction(1, 1 << prec))
    a = draw(st.integers(-12, 12))
    b = a + draw(st.integers(-4, 12))
    lo = center.lo.as_fraction() + a * quarter
    theta = Interval.from_endpoints(lo, max(lo, center.hi.as_fraction() + b * quarter), prec)
    return (-theta if draw(st.booleans()) else theta), prec


@given(_thetas())
@settings(max_examples=300, deadline=None)
def test_geometric_point_is_the_tolerance_loop(case):
    # the fixed count of levels walks exactly the levels the chord
    # tolerance did, so every bit of both coordinates agrees
    theta, prec = case
    assert _outcome(geometric_point, theta, prec) == _outcome(
        tolerance_geometric_point, theta, prec)
