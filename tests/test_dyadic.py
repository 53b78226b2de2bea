import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archpi.dyadic import Dyadic, ZERO, ONE


def test_canonical_mantissa():
    d = Dyadic(12, 0)
    assert (d.man, d.exp) == (3, 2)
    assert Dyadic(0, 5).exp == 0
    assert Dyadic(-8).man == -1 and Dyadic(-8).exp == 3


def test_exact_ring_ops():
    a = Dyadic(3, -2)   # 0.75
    b = Dyadic(5, -3)   # 0.625
    assert (a + b).as_fraction() == Fraction(11, 8)
    assert (a - b).as_fraction() == Fraction(1, 8)
    assert (a * b).as_fraction() == Fraction(15, 32)
    assert (-a).as_fraction() == Fraction(-3, 4)
    assert a.half().as_fraction() == Fraction(3, 8)
    assert a.scale2(3).as_fraction() == 6


def test_comparisons():
    assert Dyadic(1, -1) < Dyadic(3, -2) < ONE
    assert Dyadic(-1) < ZERO < ONE
    assert Dyadic(1, 10) == Dyadic(1024)
    assert Dyadic(7, -3).sign == 1 and Dyadic(-7, -3).sign == -1 and ZERO.sign == 0


def test_directed_round_brackets_value():
    v = Dyadic(0b101011, -3)
    down = v.round(3, up=False)
    up = v.round(3, up=True)
    assert down <= v <= up
    assert down < up   # rounding actually dropped bits
    assert v.round(64, up=False) == v


def test_round_exact_when_fits():
    v = Dyadic(5, -4)
    assert v.round(3, up=True) == v
    assert v.round(3, up=False) == v


@pytest.mark.parametrize("up", [False, True])
def test_div_directed(up):
    q = Dyadic(1).div(Dyadic(3), 32, up=up)
    exact = Fraction(1, 3)
    if up:
        assert q.as_fraction() >= exact
    else:
        assert q.as_fraction() <= exact
    assert abs(q.as_fraction() - exact) < Fraction(1, 2**31)


def test_sqrt_brackets():
    two = Dyadic(2)
    lo = two.sqrt(64, up=False)
    hi = two.sqrt(64, up=True)
    assert lo.as_fraction() ** 2 <= 2 <= hi.as_fraction() ** 2
    assert (hi - lo).as_fraction() < Fraction(1, 2**60)
    # perfect square is exact both ways
    assert Dyadic(9).sqrt(8, up=False) == Dyadic(3)
    assert Dyadic(9).sqrt(8, up=True) == Dyadic(3)


def test_sqrt_negative_raises():
    with pytest.raises(ValueError):
        Dyadic(-1).sqrt(16, up=False)


def test_from_fraction_directed():
    f = Fraction(22, 7)
    lo = Dyadic.from_fraction(f, 40, up=False)
    hi = Dyadic.from_fraction(f, 40, up=True)
    assert lo.as_fraction() <= f <= hi.as_fraction()
    assert Dyadic.from_fraction(Fraction(5, 8), 4, up=True) == Dyadic(5, -3)


def test_decimal_rendering():
    assert Dyadic(1, -1).decimal(3, up=False) == "0.500"
    assert Dyadic(-1, -1).decimal(2, up=True) == "-0.50"
    third_lo = Dyadic(1).div(Dyadic(3), 64, up=False)
    assert third_lo.decimal(5, up=False) == "0.33333"
    assert Dyadic(7).decimal(0, up=False) == "7"


dyadics = st.builds(
    Dyadic,
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=-90, max_value=90),
)


@given(dyadics, dyadics)
def test_ops_match_fractions(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
    assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
    assert (a < b) == (a.as_fraction() < b.as_fraction())


@given(dyadics, st.integers(min_value=4, max_value=128))
def test_round_directed_property(a, prec):
    lo, hi = a.round(prec, up=False), a.round(prec, up=True)
    assert lo <= a <= hi
    assert max(abs(lo.man), abs(hi.man)).bit_length() <= prec


@given(dyadics, dyadics, st.integers(min_value=8, max_value=96))
@settings(max_examples=60)
def test_div_contains_quotient(a, b, prec):
    if b.sign == 0:
        return
    exact = a.as_fraction() / b.as_fraction()
    lo = a.div(b, prec, up=False)
    hi = a.div(b, prec, up=True)
    assert lo.as_fraction() <= exact <= hi.as_fraction()


@given(dyadics, st.integers(min_value=8, max_value=96))
@settings(max_examples=60)
def test_sqrt_contains_root(a, prec):
    if a.sign < 0:
        return
    lo, hi = a.sqrt(prec, up=False), a.sqrt(prec, up=True)
    assert lo.as_fraction() ** 2 <= a.as_fraction() <= hi.as_fraction() ** 2


def test_float_conversion():
    assert float(Dyadic(3, -1)) == 1.5
    assert math.isclose(float(Dyadic(1).div(Dyadic(3), 64, False)), 1 / 3)


def _sqrt_by_squaring_back(d, prec, up):
    """Dyadic.sqrt with the rounded-up root found by squaring the floor root."""
    shift = max(0, 2 * (prec + 2) - d.man.bit_length())
    if (d.exp - shift) & 1:
        shift += 1
    scaled = d.man << shift
    root = math.isqrt(scaled)
    if up and root * root != scaled:
        root += 1
    return Dyadic(root, (d.exp - shift) // 2).round(prec, up)


@given(
    st.one_of(
        st.integers(min_value=1, max_value=2**4200),
        st.integers(min_value=1, max_value=2**2100).map(lambda r: r * r),
    ),
    st.integers(min_value=-4300, max_value=64),
    st.integers(min_value=8, max_value=2048),
    st.booleans(),
)
@settings(max_examples=200)
def test_sqrt_matches_squaring_back(man, exp, prec, up):
    d = Dyadic(man, exp)
    ours, ref = d.sqrt(prec, up), _sqrt_by_squaring_back(d, prec, up)
    assert (ours.man, ours.exp) == (ref.man, ref.exp)
