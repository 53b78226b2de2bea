from fractions import Fraction

import pytest

from archpi.errors import (
    SHORTFALLS,
    AmbiguousCrossing,
    ChordTooLong,
    HypothesisUnordered,
    NonCoprime,
    PreconditionViolation,
)
from archpi.interval import Interval, Verdict, compare_certain
from archpi.polygons import seed_edge, two_pi_enclosure
from archpi.rational import (
    _crosses_start_radius,
    _sign_certain,
    coprime_pairs,
    gamma_path,
    normalized_compare,
    normalized_length,
    realize_rational,
    winding_count,
)

from oracles import contains, trig_chord

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


def _reference_crosses(a, b):
    """The crossing test as written before the same-side shortcut: both
    cross products first, then the x-axis straddle."""
    sa = _sign_certain(a.y)
    sb = _sign_certain(b.y)
    ex = b.x - a.x
    ey = b.y - a.y
    so = _sign_certain(ex * a.y - ey * a.x)
    su = _sign_certain(ex * a.y - ey * (a.x - 1))
    if so != 0 and su != 0 and so == su:
        return False
    if sa != 0 and sb != 0 and sa == sb:
        return False
    if sa != 0 and sb != 0 and so != 0 and su != 0:
        return sa != sb and so != su
    raise AmbiguousCrossing("ambiguous crossing test; raise precision")


def _crossing_outcome(fn, a, b):
    try:
        return fn(a, b)
    except AmbiguousCrossing:
        return AmbiguousCrossing


@pytest.mark.parametrize("prec", [20, 24, 64])
def test_crossing_shortcut_matches_the_full_test(prec):
    edges = outcomes = 0
    for k, N in coprime_pairs(24):
        try:
            points = gamma_path(realize_rational(k, N, prec))
        except SHORTFALLS:
            continue
        for a, b in zip(points[1:-1], points[2:]):
            expected = _crossing_outcome(_reference_crosses, a, b)
            assert _crossing_outcome(_crosses_start_radius, a, b) is expected, (k, N)
            edges += 1
            outcomes += expected is AmbiguousCrossing
    assert edges > 1000
    if prec == 20:
        assert outcomes > 0  # the ambiguous branch is exercised too
