import contextlib
import io
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archpi import chords, circuits, cli, polygons, rational
from archpi.cli import main
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
from archpi.polygons import pi_enclosure, seed_edge
from archpi.rational import (
    RationalLength,
    _ball_crosses,
    coprime_pairs,
    gamma_path,
    normalized_compare,
    realize_rational,
    winding_count,
)

from oracles import ball_winding, contains, interval_winding, on_circle, trig_chord

PREC = 64


def test_realize_simple_polygon_edges():
    # k=1 gives plain regular polygon edges
    tri = realize_rational(1, 3, PREC)
    assert tri.chord.overlaps(seed_edge(3, PREC))
    assert (tri.N, tri.k) == (3, 1)
    sq = realize_rational(1, 4, PREC)
    assert contains(sq.chord, trig_chord(Fraction(1, 4)))


def test_realize_winding_chord():
    star = realize_rational(2, 5, PREC)
    assert contains(star.chord, trig_chord(Fraction(2, 5)))
    assert star.N == 5 and star.k == 2


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
        assert on_circle(p)


def test_gamma_path_that_misses_its_start_fails_to_close():
    # chord 1 steps a sixth of a turn, so five steps end a sixth short
    with pytest.raises(ClosureFailure, match=r"path for \(1, 5\) certifiably misses"):
        gamma_path(RationalLength(1, 5, Interval.exact(1, 64)))


def test_winding_counts():
    assert winding_count(realize_rational(1, 6, PREC)) == 1
    assert winding_count(realize_rational(2, 5, PREC)) == 2
    assert winding_count(realize_rational(3, 7, PREC)) == 3
    assert winding_count(realize_rational(5, 11, PREC)) == 5
    # even N puts a vertex exactly antipodal to the start
    assert winding_count(realize_rational(3, 8, PREC)) == 3
    assert winding_count(realize_rational(5, 12, PREC)) == 5


def test_normalized_length_brackets_two_pi():
    two_pi = pi_enclosure(PREC) * 2
    for k, N in ((1, 3), (2, 5), (3, 8), (5, 11)):
        # a fresh length, not the cached pair's kept one
        r = RationalLength(k, N, realize_rational(k, N, PREC).chord)
        assert compare_certain(r.inscribed, two_pi) is Verdict.CERTAINLY_LESS
        assert compare_certain(r.circumscribed, two_pi) is Verdict.CERTAINLY_GREATER


def test_normalized_compare_example():
    a = realize_rational(2, 5, PREC)
    b = realize_rational(1, 3, PREC)
    verdict, lhs, rhs = normalized_compare(a, b, "inscribed")
    assert verdict is Verdict.CERTAINLY_LESS
    assert contains(lhs, "4.755282581475767860582196666896910717028")
    assert contains(rhs, "5.196152422706631880582339024517617100828")
    flipped = normalized_compare(b, a, "inscribed")  # order-insensitive
    assert flipped == (verdict, lhs, rhs)
    verdict, _, _ = normalized_compare(a, b, "circumscribed")
    assert verdict is Verdict.CERTAINLY_GREATER


def test_normalized_compare_rejects_unordered():
    a = realize_rational(1, 5, PREC)
    with pytest.raises(HypothesisUnordered):
        normalized_compare(a, a)
    with pytest.raises(PreconditionViolation):
        normalized_compare(a, realize_rational(1, 3, PREC), "sideways")
    # an unknown mode is a bad argument, not a shortfall, even for a pair
    # whose chords cannot be ordered
    with pytest.raises(PreconditionViolation, match="unknown mode 'bogus'"):
        normalized_compare(a, a, "bogus")


def test_coprime_pairs():
    pairs = coprime_pairs(8)
    assert (2, 5) in pairs and (3, 7) in pairs and (3, 8) in pairs
    assert (2, 6) not in pairs and (4, 8) not in pairs
    # the definition, in order of N then k: 1 <= k < N/2, gcd(k, N) = 1
    defined = [(k, N) for N in range(3, 257) for k in range(1, N)
               if 2 * k < N and math.gcd(k, N) == 1]
    for max_n in range(3, 257):
        assert coprime_pairs(max_n) == [(k, N) for k, N in defined if N <= max_n], max_n


def test_coprime_pairs_serve_new_prefixes_of_the_kept_list(monkeypatch):
    from archpi import suites

    assert rational._KEPT_PAIRS_MAX_N == suites.MOST["max_n"]
    monkeypatch.setattr(rational, "_kept_pairs", [])
    formed, pairs_of = [], rational._pairs
    monkeypatch.setattr(rational, "_pairs", lambda lo, hi: formed.append((lo, hi)) or pairs_of(lo, hi))
    defined = pairs_of(3, 300)
    for max_n, forms in [(40, [(3, 40)]), (12, []), (2, []), (3, []), (41, [(41, 41)]),
                         (256, [(42, 256)]), (100, []), (257, [(3, 257)]), (300, [(3, 300)]),
                         (256, [])]:
        formed.clear()
        served = coprime_pairs(max_n)
        assert served == [(k, N) for k, N in defined if N <= max_n], max_n
        assert formed == forms, max_n
        # a caller may change its list: the kept one stays as it was
        served.append((1, 1))
        served[:1] = []
        assert coprime_pairs(max_n) == [(k, N) for k, N in defined if N <= max_n], max_n
    # only the pairs up to the bound are kept: 9,973 of them
    assert len(rational._kept_pairs) == 9_973
    assert rational._kept_pairs[-1][1] == 256


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


# -- the measures a cached RationalLength keeps ---------------------------------


def _count_calls(monkeypatch, module, name):
    """A list that grows by one for each call of ``module.name``."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _sweep(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def test_a_second_sweep_forms_no_root_and_walks_nothing(monkeypatch, cold_rational):
    # every binding of the two kernels a pair's measures call
    roots = [_count_calls(monkeypatch, module, "_chord_root")
             for module in (polygons, circuits, chords, rational)]
    walks = [_count_calls(monkeypatch, module, "_ball_walk")
             for module in (circuits, chords, rational)]
    argv = ["sweep-rational", "--max-n", "16"]
    assert _sweep(argv) == 0
    assert sum(map(len, roots)) > 0 and sum(map(len, walks)) > 0
    for calls in roots + walks:
        calls.clear()
    assert _sweep(argv) == 0
    assert sum(map(len, roots)) == sum(map(len, walks)) == 0


def test_verify_rational_forms_each_normalized_length_once(monkeypatch, cold_rational):
    # a pair's row and its adjacent circumscribed comparisons read one
    # length, so each pair's chord forms one tangent edge
    calls = _count_calls(monkeypatch, rational, "_tangent_edge")
    assert _sweep(["verify", "rational", "--max-n", "12"]) == 0
    # an Interval hashes by identity: these are the pairs' kept chords
    formed = Counter(chord for chord, _ in calls)
    assert formed == {realize_rational(k, N, PREC).chord: 1 for k, N in coprime_pairs(12)}


def test_a_shortfall_is_not_kept(monkeypatch, cold_rational):
    # (7, 18) at 16 bits: its winding falls short each time it is read
    r = realize_rational(7, 18, 16)
    calls = _count_calls(monkeypatch, rational, "winding_count")
    errors = []
    for _ in range(2):
        with pytest.raises(AmbiguousCrossing) as raised:
            r.winding
        errors.append(str(raised.value))
    assert len(calls) == 2 and errors[0] == errors[1]
    assert realize_rational(7, 18, 16) is r


def test_a_second_sweep_writes_no_decimal(monkeypatch, cold_rational):
    calls = _count_calls(monkeypatch, Interval, "decimal_pair")
    argv = ["sweep-rational", "--max-n", "16"]
    assert _sweep(argv) == 0
    assert len(calls) == 3 * len(coprime_pairs(16))
    calls.clear()
    assert _sweep(argv) == 0
    assert calls == []
    # the kept row is a str, which no reader of it can change
    assert type(cli._sweep_text(1, 5, 64)) is cli._RowText


def test_a_second_sweep_joins_only_kept_row_text(monkeypatch, cold_rational):
    argv = ["sweep-rational", "--max-n", "16"]
    assert _sweep(argv) == 0
    formed = _count_calls(monkeypatch, cli, "_sweep_row")
    joined = _count_calls(monkeypatch, cli, "_json")
    assert _sweep(argv) == 0
    assert formed == []
    # no realized row is joined again: each is the CLI's kept text
    assert [value for value, *_ in joined if isinstance(value, dict) and "k" in value] == []
    kept = [value for value, *_ in joined if type(value) is cli._RowText]
    assert kept == [cli._sweep_text(k, N, PREC) for k, N in coprime_pairs(16)]


def test_a_shortfall_sweep_text_is_not_kept(cold_rational):
    # (7, 18) at 16 bits: its winding falls short, and so does its row text
    r = realize_rational(7, 18, 16)
    for _ in range(2):
        with pytest.raises(AmbiguousCrossing):
            cli._sweep_text(7, 18, 16)
    assert cli._sweep_text.cache_info().currsize == 0 and "winding" not in vars(r)


def test_a_shortfall_sweep_row_is_not_kept(monkeypatch, cold_rational):
    # (7, 18) at 16 bits: its winding, the row's last measure, falls short,
    # so each read forms the row's three decimal pairs again
    r = realize_rational(7, 18, 16)
    calls = _count_calls(monkeypatch, Interval, "decimal_pair")
    for _ in range(2):
        with pytest.raises(AmbiguousCrossing):
            cli._sweep_row(r)
    assert len(calls) == 6 and "winding" not in vars(r)
