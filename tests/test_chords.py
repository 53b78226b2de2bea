from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archpi import chords
from archpi.chords import (
    ArcSpec,
    chord_compare,
    partition_profile,
    solve_regular_chord,
    tangent_compare,
)
from archpi.circuits import Rotation
from archpi.dyadic import Dyadic
from archpi.errors import (SHORTFALLS, BisectionStall, InvalidChord,
                           PreconditionViolation)
from archpi.interval import Interval, Verdict, compare_certain
from archpi.polygons import seed_edge

from oracles import (contains, encloses, interval_classify, interval_walk, projection_gap,
                     trig_chord)

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
    """The chord bisection's one loop with every mid classified by a walk."""
    chord_total = arc.chord_total
    targets = chords._targets(chord_total)
    lo = Dyadic(0)
    hi = chord_total.hi
    tol = Dyadic(1, 8 - prec)
    za = zb = None
    guard = 0
    while (hi - lo) > tol:
        guard += 1
        if guard > 4 * prec + 64:
            raise BisectionStall("chord bisection exceeded its iteration budget")
        if za is None:
            a, b = lo, hi
        elif zb - za >= tol:
            raise BisectionStall("ambiguous steps span the whole tolerance")
        else:
            a, b = (lo, za) if za - lo >= hi - zb else (zb, hi)
        mid = (a + b).half().round(prec + 16, up=False)
        if not (a < mid < b):
            break
        result = chords._classify_adaptive(mid, n, targets, prec)
        if result is chords._AMBIG:
            za, zb = (mid, mid) if za is None else (min(za, mid), max(zb, mid))
        elif result is chords._UNDER and (za is None or mid < za):
            lo = mid
        elif result is chords._OVER and (za is None or mid > zb):
            hi = mid
        else:
            raise BisectionStall("verdicts out of order around the ambiguous steps")
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
@example(16, 2, 2**17 - 2, True)  # two ambiguous mids: the chord is wide near 2
@settings(max_examples=30, deadline=None)
def test_solve_is_bit_identical_to_walking_every_mid(prec, n, k, widened):
    chord = Interval.exact(Dyadic(k, -16), prec)
    if widened:
        # realize_rational's chords are distances about 2^-prec wide
        chord = chord.widen(Dyadic(1, -prec))
    arc = ArcSpec.from_chord(chord)
    assert _bits(solve_regular_chord(arc, n, prec)) == _bits(reference_solve(arc, n, prec))


SMALLEST_CHORD = Dyadic(1, -15)  # the least chord the bit-identity test draws


@pytest.mark.parametrize(
    "chord, n, prec",
    [(Dyadic(1, -1), 5, 1024),
     (Dyadic(1, -1), 3, chords.MAX_PRECISION),
     (SMALLEST_CHORD, 32, 16),
     (SMALLEST_CHORD, 32, 64),
     (SMALLEST_CHORD, 32, 256)],
    ids=["p1024", "p4080", "smallest-p16", "smallest-p64", "smallest-p256"],
)
def test_solve_matches_walking_every_mid_at_the_extremes(chord, n, prec):
    arc = ArcSpec.from_chord(Interval.exact(chord, prec))
    expected = reference_solve(arc, n, prec)
    assert _bits(solve_regular_chord(arc, n, prec)) == _bits(expected)


@pytest.mark.parametrize(
    "chord, n, prec",
    [(Interval.exact(Dyadic(1, -1), PREC), 5, PREC),
     (Interval.exact(SMALLEST_CHORD, 16), 32, 16),
     (Interval.exact(Dyadic(2**17 - 2, -16), 16).widen(Dyadic(1, -16)), 2, 16)],
    ids=["half", "smallest", "ambiguous"],
)
def test_solve_without_a_bracket_walks_every_mid(chord, n, prec, monkeypatch):
    monkeypatch.setattr(chords, "_bracket", lambda *args: None)
    calls = count_classifications(monkeypatch)
    arc = ArcSpec.from_chord(chord)
    expected = reference_solve(arc, n, prec)
    walked = len(calls)
    assert _bits(solve_regular_chord(arc, n, prec)) == _bits(expected)
    assert len(calls) - walked == walked


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


def _true_step(chord_end, n):
    chord = mpmath.ldexp(chord_end.man, chord_end.exp)
    return 2 * mpmath.sin(mpmath.asin(chord / 2) / n)


@pytest.mark.parametrize("prec, n", [(16, 2), (16, 3), (16, 32), (24, 2)])
def test_solve_closes_on_ambiguous_steps(prec, n):
    # near chord 2 a chord 2^-15 wide leaves a zone of steps that no
    # precision classifies; the result must still bracket every true step
    chord = Interval.exact(Dyadic(2**17 - 2, -16), prec).widen(Dyadic(1, -prec))
    step = solve_regular_chord(ArcSpec.from_chord(chord), n, prec)
    assert step.hi - step.lo <= Dyadic(1, 8 - prec)
    with mpmath.workdps(50):
        for end in (chord.lo, chord.hi):
            assert contains(step, mpmath.nstr(_true_step(end, n), 45))


@given(
    st.sampled_from([16, 24, 32]),
    st.integers(min_value=2, max_value=32),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=2**8 + 1, max_value=2**12),
)
@settings(max_examples=100, deadline=None)
def test_solve_brackets_the_ambiguous_zone(prec, n, j, k):
    # chords 2 - k 2^-prec, widened by 2^(j - prec): the steps between the
    # true steps of the two chord ends are ambiguous at any precision
    chord = Interval.exact(Dyadic(2**(prec + 1) - k, -prec), prec)
    chord = chord.widen(Dyadic(1, j - prec))
    tol = Dyadic(1, 8 - prec)
    with mpmath.workdps(50):
        true_lo, true_hi = (_true_step(end, n) for end in (chord.lo, chord.hi))
        try:
            step = solve_regular_chord(ArcSpec.from_chord(chord), n, prec)
        except BisectionStall:
            assert true_hi - true_lo >= mpmath.ldexp(1, 7 - prec)  # tol/2
            return
        assert step.hi - step.lo <= tol
        for true in (true_lo, true_hi):
            assert contains(step, mpmath.nstr(true, 45))


def test_solve_stalls_when_ambiguous_steps_exceed_tolerance():
    # a chord [1.994, 1.998]: its steps differ by more than 2^-8; walking
    # every mid stalls on the same zone
    chord = Interval.exact(Dyadic(2**17 - 256, -16), 16).widen(Dyadic(1, -9))
    for solve in (solve_regular_chord, reference_solve):
        with pytest.raises(BisectionStall, match="whole tolerance"):
            solve(ArcSpec.from_chord(chord), 2, 16)


def test_solve_refuses_a_subdivision_count_below_one():
    with pytest.raises(PreconditionViolation, match="subdivision count must be at least 1"):
        solve_regular_chord(quarter_arc(), 0, PREC)


def test_solve_stalls_on_verdicts_out_of_order(monkeypatch):
    # after one ambiguous mid, a mid below it classified over and a mid
    # above it classified under order no step
    zone = []

    def classify(step, n, targets, prec):
        if not zone:
            zone.append(step)
            return chords._AMBIG
        return chords._OVER if step < zone[0] else chords._UNDER

    monkeypatch.setattr(chords, "_bracket", lambda *args: None)
    monkeypatch.setattr(chords, "_classify_adaptive", classify)
    with pytest.raises(BisectionStall, match="verdicts out of order"):
        solve_regular_chord(quarter_arc(), 5, PREC)


@pytest.mark.parametrize("fails", ["sign", "error"])
def test_a_failed_newton_step_leaves_no_bracket(fails, monkeypatch):
    # a step whose walk cannot tell the sign of y, or that raises, gives no
    # bracket, and the solve walks every mid to the same bits
    def newton_step(step, n, target, prec):
        if fails == "error":
            raise InvalidChord("operand too wide at this precision")
        return None

    monkeypatch.setattr(chords, "_newton_step", newton_step)
    arc = quarter_arc()
    chord_total = arc.chord_total
    assert chords._bracket(chord_total, 5, PREC, chords._targets(chord_total)) is None
    assert _bits(solve_regular_chord(arc, 5, PREC)) == _bits(reference_solve(arc, 5, PREC))


def test_solve_above_the_precision_ceiling_is_a_precondition_not_a_shortfall():
    # walks run 16 bits above the working precision, so above 4080 bits no
    # walk fits under the cap; that is a bad argument, not too little
    # precision, and the message names the most that works
    arc = ArcSpec.from_chord(Interval.from_fraction(Fraction(1, 2), 4081))
    with pytest.raises(PreconditionViolation, match="4080") as caught:
        solve_regular_chord(arc, 3, 4081)
    assert not isinstance(caught.value, SHORTFALLS)
    assert chords.MAX_PRECISION == 4080


def test_escalating_compare_stops_at_the_ceiling():
    works = []
    wide = Interval(Dyadic(0), Dyadic(1), 64)

    def build(arc, m, n, work):
        works.append(work)
        return wide, wide

    result = chords._compare_adaptive(build, quarter_arc(), 1, 2, 64)
    assert works == [64, 128, 256, 512, 1024, 2048, 4080]
    assert result.verdict is Verdict.OVERLAP and result.precision_used == 4080


def test_compare_does_not_escalate_a_wide_zone_stall():
    # the chord 2 - 2^-28 widened by 2^-32: its ambiguous steps span the
    # tolerance at 64 bits, and lifting the arc keeps the chord's width
    chord = Interval.exact(Dyadic(2**29 - 1, -28), 64).widen(Dyadic(1, -32))
    works = []

    def build(arc, m, n, work):
        works.append(work)
        return chords._chord_sides(arc, m, n, work)

    with pytest.raises(BisectionStall, match="whole tolerance"):
        chords._compare_adaptive(build, ArcSpec(chord), 3, 7, 64)
    assert works == [64]


def test_compare_escalates_other_stalls():
    works = []

    def build(arc, m, n, work):
        works.append(work)
        if work == 64:
            raise BisectionStall("verdicts out of order around the ambiguous steps")
        return Interval.exact(1, work), Interval.exact(2, work)

    result = chords._compare_adaptive(build, quarter_arc(), 1, 2, 64)
    assert works == [64, 128]
    assert result.verdict is Verdict.CERTAINLY_LESS and result.precision_used == 128


@pytest.mark.parametrize(
    "compare, chord, m, n",
    [(chord_compare, Dyadic(515, -12), 25, 31),
     (tangent_compare, Dyadic(18601, -14), 5, 8)],
    ids=["chord", "tangent"],
)
def test_escalation_lifts_the_arc(compare, chord, m, n):
    # both overlap at 16 bits; the escalated sides must be built from an arc
    # at the precision the result reports, not from the caller's 16 bits
    res = compare(ArcSpec.from_chord(Interval.exact(chord, 16)), m, n, 16)
    assert res.verdict is Verdict.CERTAINLY_LESS
    assert res.precision_used > 16
    assert res.lhs.prec == res.rhs.prec == res.precision_used


@given(
    st.integers(min_value=1, max_value=2**17 - 1),
    st.integers(min_value=1, max_value=32),
    st.sampled_from([16, 24, 64, 128]),
)
@example(2**17 - 1, 32, 16)  # past half a turn: the walk wraps
@settings(max_examples=60, deadline=None)
def test_ball_walk_encloses_the_interval_walk(k, n, w):
    # every ball [X +- R] * 2^-w holds the Interval walk's point at 4x the bits
    step = Dyadic(k, -16)
    balls = chords._ball_walk(chords._half_step(step, w), n, w)
    for (x, y, r), point in zip(balls, interval_walk(step, n, 4 * w), strict=True):
        for center, coord in ((x, point.x), (y, point.y)):
            assert Dyadic(center - r, -w) <= coord.lo
            assert coord.hi <= Dyadic(center + r, -w)


@pytest.mark.parametrize("w", [16, 64, 200])
@pytest.mark.parametrize("a, b, c", [(3, 4, 5), (20, 21, 29), (40, 399, 401)])
def test_ball_walk_encloses_the_exact_walk_of_its_matrix(a, b, c, w):
    # cos a/c and sin b/c floored onto the walk's grid: the rotation's balls
    # have radius 0 (rho = 0), so each step's radius term is all truncation,
    # and the exact iterate of the same matrix must stay within it
    bits = w - 4
    cos, sin = Dyadic(a * 2**bits // c, -bits), Dyadic(b * 2**bits // c, -bits)
    rotation = Rotation(Interval.exact(cos, w), Interval.exact(sin, w))
    cf, sf = cos.as_fraction() * 2**w, sin.as_fraction() * 2**w
    x, y = Fraction(2**w), Fraction(0)
    for center_x, center_y, r in chords._ball_walk(rotation, 64, w):
        x, y = (x * cf - y * sf) / 2**w, (x * sf + y * cf) / 2**w
        assert (x - center_x) ** 2 + (y - center_y) ** 2 <= r * r


@pytest.mark.parametrize("n", [5, 17, 32])
@pytest.mark.parametrize("prec", [16, 64, 128])
def test_classify_near_the_root_is_ambiguous_or_exact(prec, n):
    # steps d 2^-(prec+16) around the true step, 2^-16 of an ulp of the
    # walk apart: their exact walks end a small fraction of an ulp from the
    # target, well inside the ball's radius, so only the radius keeps a
    # verdict from disagreeing with the exact sign
    for k in range(6554, 130417, 6000):
        chord = Dyadic(k, -16)
        with mpmath.workdps(80):
            root = int(mpmath.floor(mpmath.ldexp(_true_step(chord, n), prec + 16)))
        for d in range(-3, 4):
            step = Dyadic(root + d, -(prec + 16))
            verdict = chords._classify(step, n, chords._target(Interval.exact(chord, prec)),
                                       prec)
            # the step is below the true one exactly when d <= 0
            exact = chords._UNDER if d <= 0 else chords._OVER
            assert verdict in (chords._AMBIG, exact), (k, d)


@given(
    st.integers(min_value=6554, max_value=130416),
    st.integers(min_value=2, max_value=32),
    st.integers(min_value=-256, max_value=256),
    st.sampled_from([16, 24, 64]),
)
@settings(max_examples=100, deadline=None)
def test_ball_and_interval_walks_agree_when_both_certify(k, n, offset, prec):
    # steps within 256 ulps of the walk's scale around the root, where the
    # radius decides whether a verdict certifies
    chord = Dyadic(k, -16)
    work = prec + 16
    with mpmath.workdps(60):
        root = int(mpmath.floor(mpmath.ldexp(_true_step(chord, n), work)))
    step = Dyadic(root + offset, -work)
    chord_total = Interval.exact(chord, work)
    ball = chords._classify(step, n, chords._target(chord_total), work)
    oracle = interval_classify(step, n, chord_total, work)
    if chords._AMBIG not in (ball, oracle):
        assert ball == oracle


@given(
    st.integers(min_value=6554, max_value=130416),
    st.integers(min_value=2, max_value=32),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_lean_sides_match_the_profile(k, n, data):
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    arc = ArcSpec.from_chord(Interval.exact(Dyadic(k, -16), PREC))
    profile = partition_profile(arc, n, PREC)
    chord_sides = (profile.cumulative_chords[m - 1] * n,
                   profile.cumulative_chords[n - 1] * m)
    partial = profile.tangent_segments[0]
    for seg in profile.tangent_segments[1:m]:
        partial = partial + seg
    tangent_sides = (partial * n, profile.tangent_total * m)
    assert [_bits(v) for v in chords._chord_sides(arc, m, n, PREC)] == [
        _bits(v) for v in chord_sides]
    assert [_bits(v) for v in chords._tangent_sides(arc, m, n, PREC)] == [
        _bits(v) for v in tangent_sides]


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
    # each projection gap holds the exact gap, mirrored gaps overlap, and
    # they sum to the full chord
    gaps = profile.projections
    for k, gap in enumerate(gaps):
        assert contains(gap, projection_gap(Fraction(1, 4), 4, k))
    assert gaps[0].overlaps(gaps[3]) and gaps[1].overlaps(gaps[2])
    total = gaps[0] + gaps[1] + gaps[2] + gaps[3]
    assert total.overlaps(quarter_arc().chord_total)
    assert compare_certain(gaps[0], gaps[1]) is Verdict.CERTAINLY_LESS


def test_partition_profile_odd_n():
    profile = partition_profile(quarter_arc(), 5, PREC)
    gaps = profile.projections
    assert len(gaps) == 5
    for i in range(5):
        assert contains(gaps[i], projection_gap(Fraction(1, 4), 5, i))
        assert gaps[i].overlaps(gaps[4 - i])
    assert compare_certain(gaps[0], gaps[1]) is Verdict.CERTAINLY_LESS
    assert compare_certain(gaps[1], gaps[2]) is Verdict.CERTAINLY_LESS


def test_tangent_profile_total():
    # tangent path over the quarter arc totals 2*tan(pi/4) = 2
    profile = partition_profile(quarter_arc(), 4, PREC)
    assert encloses(profile.tangent_total, 2)
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
    assert encloses(res.rhs, 4)


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



@pytest.mark.parametrize("n", [2, 5, 17, 32])
def test_a_solve_forms_its_target_once_per_working_precision(n, monkeypatch):
    # every walk at w bits compares with the arc chord's target at w bits:
    # one root of the chord per working precision serves them all
    roots, walks, real_root, real_walk = [], [], chords._chord_root, chords._ball_walk

    def counted_root(c):
        roots.append(c.prec)
        return real_root(c)

    def counted_walk(rotation, steps, w):
        walks.append(w)
        return real_walk(rotation, steps, w)

    monkeypatch.setattr(chords, "_chord_root", counted_root)
    monkeypatch.setattr(chords, "_ball_walk", counted_walk)
    solve_regular_chord(quarter_arc(), n, PREC)
    assert sorted(roots) == sorted(set(walks))
