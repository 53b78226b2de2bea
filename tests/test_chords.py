from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archpi import chords
from archpi.chords import (
    ArcSpec,
    angle_profile,
    chord_compare,
    partition_profile,
    solve_regular_chord,
    tangent_compare,
)
from archpi.dyadic import Dyadic
from archpi.errors import (BisectionStall, DomainViolation, InvalidChord,
                           PreconditionViolation)
from archpi.interval import Interval, Verdict, compare_certain
from archpi.polygons import seed_edge

from oracles import contains, trig_chord, trig_value

PREC = 64


def quarter_arc(prec=PREC):
    return ArcSpec.from_chord(seed_edge(4, prec))


def test_arcspec_validation():
    with pytest.raises(InvalidChord):
        ArcSpec.from_chord(Interval.exact(2, PREC))
    with pytest.raises(InvalidChord):
        ArcSpec.from_chord(Interval.exact(0, PREC))


def test_solve_regular_chord_halving():
    # splitting the quarter arc in two gives the 2*sin(pi/8) chord
    step = solve_regular_chord(quarter_arc(), 2, PREC)
    assert contains(step, trig_chord(Fraction(1, 8)))


def test_solve_regular_chord_matches_oracle():
    # quarter arc in five parts: 2*sin(pi/20)
    step = solve_regular_chord(quarter_arc(), 5, PREC)
    assert contains(step, trig_chord(Fraction(1, 20)))
    # n=1 returns the arc chord itself
    whole = solve_regular_chord(quarter_arc(), 1, PREC)
    assert whole.lo == quarter_arc().chord_total.lo


def reference_solve(arc, n, prec):
    """The chord bisection with every mid classified by a walk."""
    chord_total = arc.chord_total
    lo = Dyadic(0)
    hi = chord_total.hi
    tol = Dyadic(1, 8 - prec)
    guard = 0
    while (hi - lo) > tol:
        guard += 1
        if guard > 4 * prec + 64:
            raise BisectionStall("chord bisection exceeded its iteration budget")
        mid = (lo + hi).half().round(prec + 16, up=False)
        if not (lo < mid < hi):
            break
        result = chords._classify_adaptive(mid, n, chord_total, prec)
        if result is chords._AMBIG:
            mid = (lo + mid).half().round(prec + 16, up=False)
            if not (lo < mid < hi):
                break
            result = chords._classify_adaptive(mid, n, chord_total, prec)
            if result is chords._AMBIG:
                raise BisectionStall("ambiguous verdicts at the precision cap")
        if result is chords._OVER:
            hi = mid
        else:
            lo = mid
    return Interval(lo, hi, prec).with_prec(prec + 16)


def _bits(v):
    return (v.lo.man, v.lo.exp, v.hi.man, v.hi.exp, v.prec)


def count_classifications(monkeypatch):
    calls = []
    classify = chords._classify_adaptive

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(chords, "_classify_adaptive", counted)
    return calls


@given(
    st.sampled_from([16, 24, 64, 128, 256]),
    st.integers(min_value=2, max_value=32),
    st.integers(min_value=2, max_value=2**17 - 2),
    st.booleans(),
)
@example(16, 32, 40, False)  # a step below tol/8: the bracket's lower end is <= 0
@settings(max_examples=30, deadline=None)
def test_solve_is_bit_identical_to_walking_every_mid(prec, n, k, widened):
    chord = Interval.exact(Dyadic(k, -16), prec)
    if widened:
        # realize_rational's chords are distances about 2^-prec wide
        chord = chord.widen(Dyadic(1, -prec))
    arc = ArcSpec.from_chord(chord)
    assert _bits(solve_regular_chord(arc, n, prec)) == _bits(reference_solve(arc, n, prec))


@pytest.mark.parametrize("n", [2, 5, 17])
@pytest.mark.parametrize("wrong", ["half", "arc-chord"])
def test_wrong_seed_falls_back_to_walking_every_mid(n, wrong, monkeypatch):
    arc = quarter_arc()
    true_seed = chords._seed
    if wrong == "half":
        monkeypatch.setattr(chords, "_seed", lambda c, n: 0.5 * true_seed(c, n))
    else:
        monkeypatch.setattr(chords, "_seed", lambda c, n: float(c.mid()))
    calls = count_classifications(monkeypatch)
    expected = reference_solve(arc, n, PREC)
    walked = len(calls)
    assert _bits(solve_regular_chord(arc, n, PREC)) == _bits(expected)
    assert walked <= len(calls) - walked <= walked + 2


@pytest.mark.parametrize(
    "chord",
    [seed_edge(4, PREC), Interval.from_fraction(Fraction(1, 10), PREC),
     Interval.from_fraction(Fraction(199, 100), PREC)],
    ids=["quarter", "tenth", "near-half-circle"],
)
@pytest.mark.parametrize("n", [2, 5, 17, 32])
def test_solve_walks_at_most_six_mids(chord, n, monkeypatch):
    # walking every mid takes about prec - 8 classifications
    calls = count_classifications(monkeypatch)
    solve_regular_chord(ArcSpec.from_chord(chord), n, PREC)
    assert len(calls) <= 6


def test_solve_near_full_arc():
    # chord 1.99 is an arc of ~2.94 rad; a 7-fold split must still work
    arc = ArcSpec.from_chord(Interval.from_fraction(Fraction(199, 100), PREC))
    step = solve_regular_chord(arc, 7, PREC)
    total = step
    # stepping 7 times along the circle must land on the endpoint chord
    from archpi.chords import partition_points
    pts = partition_points(arc, 7, step)
    from archpi.circuits import distance
    end = distance(pts[0], pts[7])
    assert end.overlaps(arc.chord_total)


def test_partition_profile_quarter_n4():
    profile = partition_profile(quarter_arc(), 4, PREC)
    assert contains(profile.step_chord, trig_chord(Fraction(1, 16)))
    # cumulative chords are the k-step chords
    assert contains(profile.cumulative_chords[1], trig_chord(Fraction(1, 8)))
    assert contains(profile.cumulative_chords[3], trig_chord(Fraction(1, 4)))
    # projection gaps mirror exactly and sum to the full chord
    gaps = profile.projections
    assert gaps[0].lo == gaps[3].lo and gaps[0].hi == gaps[3].hi
    assert gaps[1].lo == gaps[2].lo and gaps[1].hi == gaps[2].hi
    total = gaps[0] + gaps[1] + gaps[2] + gaps[3]
    assert total.overlaps(quarter_arc().chord_total)
    assert compare_certain(gaps[0], gaps[1]) is Verdict.CERTAINLY_LESS


def test_partition_profile_odd_n():
    profile = partition_profile(quarter_arc(), 5, PREC)
    gaps = profile.projections
    assert len(gaps) == 5
    for i in range(5):
        assert gaps[i].lo == gaps[4 - i].lo and gaps[i].hi == gaps[4 - i].hi
    assert compare_certain(gaps[0], gaps[1]) is Verdict.CERTAINLY_LESS
    assert compare_certain(gaps[1], gaps[2]) is Verdict.CERTAINLY_LESS


def test_tangent_profile_total():
    # tangent path over the quarter arc totals 2*tan(pi/4) = 2
    profile = partition_profile(quarter_arc(), 4, PREC)
    assert profile.tangent_total.contains(2)
    segs = profile.tangent_segments
    for a, b in zip(segs, segs[1:]):
        assert compare_certain(a, b) is Verdict.CERTAINLY_LESS
    # first increment: 2*tan(pi/16)
    assert contains(segs[0], "0.3978247347593160138231952452893524571957")
    # sum of increments equals the total by construction
    s = segs[0]
    for seg in segs[1:]:
        s = s + seg
    assert s.overlaps(profile.tangent_total)


def test_chord_compare_certainly_ordered():
    res = chord_compare(quarter_arc(), 2, 5, PREC)
    assert res.verdict is Verdict.CERTAINLY_LESS
    # lhs = 5 * two-fifths chord, rhs = 2 * full chord
    assert contains(res.lhs, "3.0901699437494742410229341718281905886015458990288")
    assert contains(res.rhs, "2.8284271247461900976033774484193961571393437507539")


def test_tangent_compare_certainly_ordered():
    res = tangent_compare(quarter_arc(), 2, 5, PREC)
    assert res.verdict is Verdict.CERTAINLY_LESS
    assert contains(res.lhs, "3.2491969623290632615587141221513326069557259734715")
    assert res.rhs.contains(4)


@pytest.mark.parametrize("m,n", [(1, 2), (1, 16), (7, 8), (3, 11)])
def test_compare_families(m, n):
    arc = ArcSpec.from_chord(Interval.from_fraction(Fraction(3, 2), PREC))
    assert chord_compare(arc, m, n, PREC).verdict is Verdict.CERTAINLY_LESS
    assert tangent_compare(arc, m, n, PREC).verdict is Verdict.CERTAINLY_LESS


def test_compare_validation():
    with pytest.raises(PreconditionViolation):
        chord_compare(quarter_arc(), 0, 3, PREC)
    with pytest.raises(PreconditionViolation):
        tangent_compare(quarter_arc(), 3, 3, PREC)
    with pytest.raises(PreconditionViolation):
        partition_profile(quarter_arc(), 1, PREC)


def test_angle_profile_closed_forms():
    prof = angle_profile(4, Fraction(20), PREC)
    assert prof.outer_apex.contains(100)   # 180 - 4*20
    assert prof.base_angles.contains(60)   # 3*20
    assert prof.inner_apex.contains(140)   # 180 - 2*20
    assert not prof.degenerate_inner
    # angles of the isoceles tangent triangle sum to 180 with the bases
    total = prof.outer_apex + prof.base_angles * 2
    assert total.contains(Fraction(220))   # outer + 2*(n-1)theta = 180 + (n-2)theta


def test_angle_profile_degenerate():
    prof = angle_profile(2, Fraction(45), PREC)
    assert prof.degenerate_inner
    assert prof.inner_apex.contains(180)


def test_angle_profile_domain():
    with pytest.raises(DomainViolation):
        angle_profile(4, Fraction(45), PREC)
    with pytest.raises(DomainViolation):
        angle_profile(3, Fraction(0), PREC)
    with pytest.raises(PreconditionViolation):
        angle_profile(1, Fraction(10), PREC)


def test_angle_profile_arccos_cross_check():
    # independent coordinate-geometry check: the three degree measures are
    # angles of the quadrilateral of tangent-line meets over an n-step arc
    # (apex over the full arc, shoulders one step in, inner two steps in),
    # recovered via arccos of normalized dot products
    import mpmath

    n, theta_deg = 5, Fraction(12)
    prof = angle_profile(n, theta_deg, PREC)
    with mpmath.workdps(40):
        th = mpmath.radians(mpmath.mpf(theta_deg.numerator) / theta_deg.denominator)

        def point(i):
            return mpmath.matrix([mpmath.cos((i - 1) * th), mpmath.sin((i - 1) * th)])

        def meet(a, b):
            return (a + b) / (1 + (a.T * b)[0])

        def angle_at(v, a, b):
            u, w = a - v, b - v
            c = (u.T * w)[0] / (mpmath.norm(u) * mpmath.norm(w))
            return mpmath.degrees(mpmath.acos(c))

        apex = meet(point(1), point(n + 1))
        sh1 = meet(point(1), point(n))
        sh2 = meet(point(2), point(n + 1))
        inner = meet(point(2), point(n))
        tol = mpmath.mpf("1e-25")
        for enclosure, measured in (
            (prof.outer_apex, angle_at(apex, sh1, sh2)),
            (prof.base_angles, angle_at(sh1, inner, apex)),
            (prof.base_angles, angle_at(sh2, inner, apex)),
            (prof.inner_apex, angle_at(inner, sh1, sh2)),
        ):
            lo = mpmath.mpf(enclosure.lo.man) * mpmath.power(2, enclosure.lo.exp)
            hi = mpmath.mpf(enclosure.hi.man) * mpmath.power(2, enclosure.hi.exp)
            assert lo - tol <= measured <= hi + tol
