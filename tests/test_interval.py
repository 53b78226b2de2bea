from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from archpi.dyadic import Dyadic, ZERO
from archpi.errors import DivByZeroInterval, NegativeSqrt
from archpi.interval import Interval, Verdict, compare_certain

from oracles import encloses


def ival(lo, hi, prec=64):
    return Interval.from_endpoints(Fraction(lo), Fraction(hi), prec)


def test_constructors():
    x = Interval.exact(3, 32)
    assert x.lo == x.hi == Dyadic(3)
    y = Interval.from_fraction(Fraction(1, 3), 32)
    assert y.lo < y.hi
    assert encloses(y, Fraction(1, 3))
    with pytest.raises(ValueError):
        Interval(Dyadic(2), Dyadic(1), 32)


def test_add_sub_contain_exact():
    a, b = ival("0.1", "0.2"), ival("1", "3")
    s = a + b
    assert encloses(s, Fraction(11, 10)) and encloses(s, Fraction(16, 5))
    d = b - a
    assert encloses(d, Fraction(4, 5)) and encloses(d, Fraction(29, 10))


def test_mul_sign_cases():
    assert encloses(ival(-2, 3) * ival(-5, 7), -15)  # hi*lo extreme
    assert encloses(ival(-2, 3) * ival(-5, 7), 21)
    assert encloses(ival(2, 3) * 4, 12)
    assert encloses(ival(2, 3) * -1, -3)


def test_division():
    q = ival(1, 1) / ival(3, 3)
    assert encloses(q, Fraction(1, 3))
    assert encloses(ival(4, 8) / 2, 2) and encloses(ival(4, 8) / 2, 4)
    with pytest.raises(DivByZeroInterval):
        ival(1, 2) / ival(-1, 1)


def test_sqrt():
    r = ival(2, 2).sqrt()
    assert encloses(r, Fraction(141421356237, 10**11)) or r.lo.as_fraction() ** 2 <= 2 <= r.hi.as_fraction() ** 2
    with pytest.raises(NegativeSqrt):
        ival(-1, 1).sqrt()


def test_width_contract_single_op():
    # one primitive op on point inputs stays within 2^(1-p) * magnitude
    p = 64
    x = Interval.exact(Dyadic(1).div(Dyadic(3), p, False), p)
    y = x * x
    assert y.width() <= Dyadic(1, 1 - p) * y.mag()


def test_compare_certain():
    assert compare_certain(ival(1, 2), ival(3, 4)) is Verdict.CERTAINLY_LESS
    assert compare_certain(ival(5, 6), ival(3, 4)) is Verdict.CERTAINLY_GREATER
    assert compare_certain(ival(1, 3), ival(2, 4)) is Verdict.OVERLAP
    # touching endpoints are not certain
    assert compare_certain(ival(1, 2), ival(2, 3)) is Verdict.OVERLAP


def test_queries():
    x = ival(1, 3)
    assert x.width() == Dyadic(2)
    assert x.mid() == Dyadic(2)
    assert x.mag() == Dyadic(3)
    assert ival(-4, 1).mag() == Dyadic(4)
    assert x.overlaps(ival(3, 5)) and not x.overlaps(ival(4, 5))


def test_widen_and_with_prec():
    x = ival(1, 2).widen(Dyadic(1, -4))
    assert encloses(x, Fraction(31, 32)) and encloses(x, Fraction(33, 16))
    y = Interval.from_fraction(Fraction(1, 3), 256).with_prec(32)
    assert y.prec == 32 and encloses(y, Fraction(1, 3))


def test_widen_by_negative_slack_past_the_midpoint_raises():
    x = ival(1, 2)
    assert x.widen(Dyadic(-1, -1)).width() == ZERO
    with pytest.raises(ValueError, match="inverted"):
        x.widen(Dyadic(-3, -2))


def test_decimal_pair_shape():
    x = ival("0.5", "0.5", 32)
    lo, hi = x.decimal_pair(4)
    assert lo == "0.5000" and hi == "0.5000"


fractions = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=10**6
)


@st.composite
def intervals(draw):
    a = draw(fractions)
    b = draw(fractions)
    prec = draw(st.integers(min_value=16, max_value=128))
    lo, hi = (a, b) if a <= b else (b, a)
    return Interval.from_endpoints(lo, hi, prec), lo, hi


@given(intervals(), intervals())
@settings(max_examples=80)
def test_containment_under_ops(ai, bi):
    a, alo, ahi = ai
    b, blo, bhi = bi
    # exact arithmetic on the endpoints must stay inside the interval result
    for xa in (alo, ahi):
        for xb in (blo, bhi):
            assert encloses(a + b, xa + xb)
            assert encloses(a - b, xa - xb)
            assert encloses(a * b, xa * xb)
    if blo > 0 or bhi < 0:
        for xa in (alo, ahi):
            for xb in (blo, bhi):
                assert encloses(a / b, Fraction(xa, 1) / xb)


@given(intervals())
@settings(max_examples=80)
def test_sqrt_containment(ai):
    a, alo, ahi = ai
    if alo < 0:
        return
    r = a.sqrt()
    assert r.lo.as_fraction() ** 2 <= alo
    assert r.hi.as_fraction() ** 2 >= ahi


@given(intervals(), st.integers(min_value=16, max_value=64))
@settings(max_examples=60)
def test_with_prec_only_widens(ai, prec):
    a, alo, ahi = ai
    c = a.with_prec(prec)
    assert c.lo <= a.lo and a.hi <= c.hi


# -- sign-table kernels against the four-endpoint reference -------------------


def _four_product_mul(a, b):
    p = min(a.prec, b.prec)
    products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    return Interval(min(products).round(p, up=False), max(products).round(p, up=True), p)


def _four_quotient_div(a, b):
    p = min(a.prec, b.prec)
    pairs = [(a.lo, b.lo), (a.lo, b.hi), (a.hi, b.lo), (a.hi, b.hi)]
    lo = min(x.div(y, p, up=False) for x, y in pairs)
    hi = max(x.div(y, p, up=True) for x, y in pairs)
    return Interval(lo, hi, p)


def _bits(x):
    return x.lo.man, x.lo.exp, x.hi.man, x.hi.exp, x.prec


SIGN_CLASSES = ("positive", "negative", "straddling", "zero-lo", "zero-hi", "point", "zero")


@st.composite
def signed_intervals(draw, classes=SIGN_CLASSES):
    """An interval of the given sign class, endpoints of up to prec + 8 bits."""
    prec = draw(st.integers(min_value=16, max_value=1024))

    def magnitude():
        bits = draw(st.integers(min_value=1, max_value=prec + 8))
        man = draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))
        return Dyadic(man, draw(st.integers(min_value=-prec - 16, max_value=16)))

    kind = draw(st.sampled_from(classes))
    if kind == "zero":
        lo = hi = ZERO
    elif kind == "point":
        lo = hi = magnitude() if draw(st.booleans()) else -magnitude()
    elif kind == "straddling":
        lo, hi = -magnitude(), magnitude()
    elif kind == "zero-lo":
        lo, hi = ZERO, magnitude()
    elif kind == "zero-hi":
        lo, hi = -magnitude(), ZERO
    else:
        lo, hi = sorted((magnitude(), magnitude()))
        if kind == "negative":
            lo, hi = -hi, -lo
    return Interval(lo, hi, prec)


@given(signed_intervals(), signed_intervals())
@settings(max_examples=300)
def test_mul_matches_four_products(a, b):
    assert _bits(a * b) == _bits(_four_product_mul(a, b))
    assert _bits(b * a) == _bits(_four_product_mul(b, a))


@given(signed_intervals(), signed_intervals(("positive", "negative", "point")))
@settings(max_examples=300)
def test_div_matches_four_quotients(a, b):
    assert _bits(a / b) == _bits(_four_quotient_div(a, b))
