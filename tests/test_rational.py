from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archpi import rational
from archpi.circuits import Rotation, _ball_walk
from archpi.dyadic import Dyadic
from archpi.errors import (
    SHORTFALLS,
    AmbiguousCrossing,
    ChordTooLong,
    ClosureFailure,
    HypothesisUnordered,
    NonCoprime,
    PreconditionViolation,
)
from archpi.interval import Interval, Verdict, compare_certain
from archpi.polygons import seed_edge, two_pi_enclosure
from archpi.rational import (
    RationalLength,
    _ball_crosses,
    coprime_pairs,
    gamma_path,
    normalized_compare,
    normalized_length,
    realize_rational,
    winding_count,
)

from oracles import ball_winding, contains, interval_winding, trig_chord

PREC = 64


def test_realize_simple_polygon_edges():
    # k=1 gives plain regular polygon edges
    tri = realize_rational(1, 3, PREC)
    assert tri.chord.overlaps(seed_edge(3, PREC))
    assert (tri.numerator, tri.denominator) == (3, 1)
    sq = realize_rational(1, 4, PREC)
    assert contains(sq.chord, trig_chord(Fraction(1, 4)))


def test_realize_winding_chord():
    star = realize_rational(2, 5, PREC)
    assert contains(star.chord, trig_chord(Fraction(2, 5)))
    assert star.numerator == 5 and star.denominator == 2


def test_realize_validation():
    with pytest.raises(NonCoprime):
        realize_rational(2, 6, PREC)
    with pytest.raises(ChordTooLong):
        realize_rational(3, 5, PREC)  # 2k >= N
    with pytest.raises(PreconditionViolation):
        realize_rational(1, 2, PREC)


def test_gamma_path_closes():
    star = realize_rational(2, 5, PREC)
    path = gamma_path(star)
    assert len(path) == 5
    for p in path:
        assert p.on_circle()


def test_winding_counts():
    assert winding_count(realize_rational(1, 6, PREC)) == 1
    assert winding_count(realize_rational(2, 5, PREC)) == 2
    assert winding_count(realize_rational(3, 7, PREC)) == 3
    assert winding_count(realize_rational(5, 11, PREC)) == 5
    # even N puts a vertex exactly antipodal to the start
    assert winding_count(realize_rational(3, 8, PREC)) == 3
    assert winding_count(realize_rational(5, 12, PREC)) == 5


def test_normalized_length_brackets_two_pi():
    two_pi = two_pi_enclosure(PREC)
    for k, N in ((1, 3), (2, 5), (3, 8), (5, 11)):
        r = realize_rational(k, N, PREC)
        assert (
            compare_certain(normalized_length(r), two_pi)
            is Verdict.CERTAINLY_LESS
        )
        assert (
            compare_certain(normalized_length(r, "circumscribed"), two_pi)
            is Verdict.CERTAINLY_GREATER
        )


def test_normalized_compare_example():
    a = realize_rational(2, 5, PREC)
    b = realize_rational(1, 3, PREC)
    res = normalized_compare(a, b, "inscribed")
    assert res.verdict is Verdict.CERTAINLY_LESS
    assert contains(res.lhs, "4.755282581475767860582196666896910717028")
    assert contains(res.rhs, "5.196152422706631880582339024517617100828")
    flipped = normalized_compare(b, a, "inscribed")  # order-insensitive
    assert flipped.verdict is Verdict.CERTAINLY_LESS
    circ = normalized_compare(a, b, "circumscribed")
    assert circ.verdict is Verdict.CERTAINLY_GREATER


def test_normalized_compare_rejects_unordered():
    a = realize_rational(1, 5, PREC)
    with pytest.raises(HypothesisUnordered):
        normalized_compare(a, a)
    with pytest.raises(PreconditionViolation):
        normalized_compare(a, realize_rational(1, 3, PREC), "sideways")
    with pytest.raises(PreconditionViolation):
        normalized_length(a, "bogus")


def test_coprime_pairs():
    pairs = coprime_pairs(8)
    assert (2, 5) in pairs and (3, 7) in pairs and (3, 8) in pairs
    assert (2, 6) not in pairs and (4, 8) not in pairs
    assert all(2 * k < n for k, n in pairs)
    assert pairs == sorted(pairs, key=lambda p: (p[1], p[0]))


def _reference_sign(value, radius):
    return 1 if value > radius else -1 if value < -radius else 0


def _reference_crosses(a, b, w):
    """The crossing test on balls as written without the same-side
    shortcut: all four signs first, then the x-axis straddle."""
    (ax, ay, ra), (bx, by, rb) = a, b
    sa = _reference_sign(ay, ra)
    sb = _reference_sign(by, rb)
    cross = bx * ay - by * ax
    radius = (abs(bx) + abs(by)) * ra + (abs(ax) + abs(ay)) * rb + ra * rb
    so = _reference_sign(cross, radius)
    su = _reference_sign(cross + (by - ay) * 2**w, radius + (ra + rb) * 2**w)
    if so != 0 and su != 0 and so == su:
        return False
    if sa != 0 and sb != 0 and sa == sb:
        return False
    if sa != 0 and sb != 0 and so != 0 and su != 0:
        return sa != sb and so != su
    raise AmbiguousCrossing("ambiguous crossing test; raise precision")


def _crossing_outcome(fn, a, b, w):
    try:
        return fn(a, b, w)
    except AmbiguousCrossing:
        return AmbiguousCrossing


@pytest.mark.parametrize("prec", [20, 24, 64])
def test_crossing_shortcut_matches_the_full_test(prec):
    edges = outcomes = 0
    for k, N in coprime_pairs(24):
        try:
            chord = realize_rational(k, N, prec).chord
            balls = list(_ball_walk(Rotation.of_chord(chord), N, prec))
        except SHORTFALLS:
            continue
        for a, b in zip(balls[:-2], balls[1:-1]):
            expected = _crossing_outcome(_reference_crosses, a, b, prec)
            assert _crossing_outcome(_ball_crosses, a, b, prec) is expected, (k, N)
            edges += 1
            outcomes += expected is AmbiguousCrossing
    assert edges > 1000
    if prec == 20:
        assert outcomes > 0  # the ambiguous branch is exercised too


def _outcome(fn, *args):
    """fn's result, or the type of the shortfall that stopped it."""
    try:
        return fn(*args)
    except SHORTFALLS as exc:
        return type(exc)


#: the windings settled over ``coprime_pairs(40)``, at least, by precision
_SETTLED = {16: 153, 20: 226, 24: 244, 32: 244}


@pytest.mark.parametrize("prec", sorted(_SETTLED))
def test_ball_winding_settles_wherever_the_interval_walk_does(prec):
    # splitting the chord enclosure settles every winding that the
    # Interval walk or one ball walk of the whole enclosure settles, and
    # more below 32 bits; no path that closes is taken to miss its start
    settled = gained = 0
    for k, N in coprime_pairs(40):
        r = _outcome(realize_rational, k, N, prec)
        if not isinstance(r, RationalLength):
            continue
        before = [w for w in (_outcome(ball_winding, r), _outcome(interval_winding, r))
                  if isinstance(w, int)]
        winding = _outcome(winding_count, r)
        assert before == [k] * len(before), (k, N)
        assert winding is not ClosureFailure, (k, N)
        if before:
            assert winding == k, (k, N)
        if isinstance(winding, int):
            assert winding == k, (k, N)
            settled += 1
            gained += not before
    assert settled >= _SETTLED[prec]
    assert (gained > 0) is (prec < 32)


def test_pieces_that_close_must_agree():
    # at 20 bits the chord enclosure of (25, 59) is 0.059 wide: it holds the
    # exact chords of (24, 59) and (26, 59) too, and their paths close as
    # well, so pieces that close give different counts and none is certified
    r = realize_rational(25, 59, 20)
    for k in (24, 25, 26):
        assert contains(r.chord, trig_chord(Fraction(k, 59)))
    with pytest.raises(AmbiguousCrossing):
        winding_count(r)


@pytest.mark.parametrize("k, N", [(4, 9), (5, 11)])
def test_a_piece_that_misses_its_start_is_dropped(k, N, monkeypatch):
    # the 20-bit enclosure is ambiguous as a whole, and some of its pieces
    # certifiably miss (1, 0): they hold no exact chord, and the pieces that
    # close settle the winding
    r = realize_rational(k, N, 20)
    assert _outcome(ball_winding, r) is AmbiguousCrossing
    missed = []

    def closing_balls(rotation, n, w):
        balls = list(_ball_walk(rotation, n, w))
        x, y, radius = balls[-1]
        missed.append((x - 2**w) ** 2 + y * y > radius * radius)
        return balls

    monkeypatch.setattr(rational, "_ball_walk", closing_balls)
    assert winding_count(r) == k
    assert any(missed) and not all(missed)


def test_splitting_stops_at_one_unit(monkeypatch):
    # (7, 18) at 16 bits stays ambiguous down to pieces one unit 2^-16
    # wide, the ball walk's own scale, and is split no further: every piece
    # walked is wider than half a unit, and the split reaches one unit
    r = realize_rational(7, 18, 16)
    unit = Dyadic(1, -16)
    walked = []

    def of_chord(c):
        assert c.width().scale2(1) > unit, c
        walked.append(c.width())
        return Rotation.of_chord(c)

    monkeypatch.setattr(rational, "Rotation", SimpleNamespace(of_chord=of_chord))
    with pytest.raises(AmbiguousCrossing):
        winding_count(r)
    assert min(walked) <= unit


@given(st.sampled_from(coprime_pairs(30)), st.sampled_from([24, 32, 64]),
       st.integers(min_value=4, max_value=12), st.booleans())
@settings(max_examples=40, deadline=None)
def test_a_chord_beyond_its_enclosure_fails_to_close(pair, prec, e, up):
    # 2^e ulps beyond the certified chord, e <= prec/2: each step turns at
    # least 2^e ulps too far or too short, far more than the ball grows,
    # and N steps stay well under a turn
    k, N = pair
    chord = realize_rational(k, N, prec).chord
    offset = Dyadic(1, e - prec)
    end = chord.hi + offset if up else chord.lo - offset
    with pytest.raises(ClosureFailure):
        winding_count(RationalLength(k, N, Interval.exact(end, prec)))


def _sign(x):
    return (x > 0) - (x < 0)


def _exact_crosses(a, b):
    """The crossing rule on the exact signs of true points a and b: True,
    False, or None where a zero sign leaves it undecided."""
    sa, sb = _sign(a[1]), _sign(b[1])
    if sa and sa == sb:
        return False
    cross = b[0] * a[1] - b[1] * a[0]
    so, su = _sign(cross), _sign(cross + b[1] - a[1])
    if so and so == su:
        return False
    if sa and sb and so and su:
        return True
    return None


#: offsets of true points from a ball's center, in units of its radius:
#: the center, and points on its rim
_RIM = [(Fraction(0), Fraction(0))] + [
    (Fraction(sx * u, 5), Fraction(sy * v, 5))
    for u, v in ((5, 0), (0, 5), (3, 4), (4, 3))
    for sx in (1, -1) for sy in (1, -1)]

_W = 4
_coord = st.integers(min_value=-40, max_value=40)
_radius = st.integers(min_value=0, max_value=6)


@given(_coord, _coord, _radius, _coord, _coord, _radius)
# the center's sign equals its radius, and a rim point has exact sign 0:
# cross_origin at +radius and -radius, then Y at +R and -R
@example(2, 8, 1, 0, -8, 0)
@example(-2, 8, 1, 0, -8, 0)
@example(8, 1, 1, 8, -8, 0)
@example(8, -1, 1, 8, 8, 0)
@settings(max_examples=300, deadline=None)
def test_ball_crossing_agrees_with_exact_points_in_its_balls(ax, ay, ra, bx, by, rb):
    try:
        verdict = _ball_crosses((ax, ay, ra), (bx, by, rb), _W)
    except AmbiguousCrossing:
        return
    scale = 2**_W
    for dax, day in _RIM:
        a = ((ax + dax * ra) / scale, (ay + day * ra) / scale)
        for dbx, dby in _RIM:
            b = ((bx + dbx * rb) / scale, (by + dby * rb) / scale)
            assert _exact_crosses(a, b) is verdict, (a, b)


def _documented_radii(a, b, w):
    """The two cross products' radii, as ``_ball_crosses`` states them."""
    (ax, ay, ra), (bx, by, rb) = a, b
    origin = (abs(bx) + abs(by)) * ra + (abs(ax) + abs(ay)) * rb + ra * rb
    return origin, origin + (ra + rb) * 2**w


@pytest.mark.parametrize("a, b, product, sign", [
    ((2, 6, 1), (0, -9, 1), "origin", 1),
    ((-2, 6, 1), (0, -9, 1), "origin", -1),
    ((101, 2, 1), (0, -2, 1), "unit", 1),
    ((101, -2, 1), (0, 2, 1), "unit", -1),
])
def test_ball_crossing_at_its_radius_is_ambiguous(a, b, product, sign):
    # both radii positive, every other sign certain: a cross product whose
    # center is exactly at its radius must not certify, whichever term of
    # the radius is left out
    (ax, ay, _), (bx, by, _) = a, b
    cross = bx * ay - by * ax
    origin, unit = _documented_radii(a, b, _W)
    if product == "origin":
        assert cross == sign * origin
    else:
        assert cross + (by - ay) * 2**_W == sign * unit
    with pytest.raises(AmbiguousCrossing):
        _ball_crosses(a, b, _W)
