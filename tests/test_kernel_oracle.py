"""The dyadic kernel against ``oracles.directed``, which rounds with
``Fraction`` and ``int`` alone: every rounded result is the exact directed
rounding of the exact value, equal in mantissa and exponent, so a quotient
or an endpoint one ulp loose fails here where a containment check passes.
Mantissas reach 2100 bits, the widths ``pi_digits`` works at."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from archpi.dyadic import Dyadic
from archpi.interval import Interval

from oracles import directed

#: enough bits to hold any exact sum or product drawn here
EXACT = 8000

precs = st.integers(min_value=2, max_value=2100)


@st.composite
def mantissas(draw):
    widths = st.sampled_from((1, 2, 8, 53, 64, 65, 300, 1024, 2100))
    bits = draw(widths | st.integers(min_value=1, max_value=2100))
    man = draw(st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1))
    man <<= draw(st.sampled_from((0, 0, 1, 7)))      # not canonical as given
    return -man if draw(st.booleans()) else man


@st.composite
def dyadics(draw):
    man = draw(mantissas() | st.just(0))
    return Dyadic(man, draw(st.integers(min_value=-400, max_value=400)))


@st.composite
def pairs(draw):
    """Two dyadics: unrelated, with equal exponents, or of opposite signs."""
    a, b = draw(dyadics()), draw(dyadics())
    kind = draw(st.sampled_from(("any", "equal-exp", "opposite")))
    if kind == "equal-exp":
        b = Dyadic(b.man, a.exp) if b.man & 1 else b
    elif kind == "opposite" and (a.man > 0) == (b.man > 0):
        b = -b
    return a, b


def bits(d):
    return d.man, d.exp


def frac(d):
    return d.as_fraction()


def value(pair):
    man, exp = pair
    return man * Fraction(2) ** exp


@given(pairs())
@settings(max_examples=200)
def test_exact_ops_are_canonical(pair):
    a, b = pair
    assert bits(a) == directed(frac(a), EXACT, False)
    assert bits(a + b) == directed(frac(a) + frac(b), EXACT, False)
    assert bits(a - b) == directed(frac(a) - frac(b), EXACT, False)
    assert bits(a * b) == directed(frac(a) * frac(b), EXACT, False)
    assert bits(-a) == directed(-frac(a), EXACT, False)
    assert bits(a.half()) == directed(frac(a) / 2, EXACT, False)
    assert bits(a.scale2(b.exp)) == directed(frac(a) * Fraction(2) ** b.exp, EXACT, False)


@given(pairs())
@settings(max_examples=200)
def test_cmp_sign_matches_fractions(pair):
    a, b = pair
    fa, fb = frac(a), frac(b)
    assert a._cmp(b) == (fa > fb) - (fa < fb)
    assert (a < b, a <= b, a == b) == (fa < fb, fa <= fb, fa == fb)


@given(pairs(), precs, st.booleans())
@settings(max_examples=200)
def test_round_and_div_match_oracle(pair, prec, up):
    a, b = pair
    assert bits(a.round(prec, up)) == directed(frac(a), prec, up)
    assert bits((a * b).round(prec, up)) == directed(frac(a) * frac(b), prec, up)
    if b.man:
        assert bits(a.div(b, prec, up)) == directed(frac(a) / frac(b), prec, up)
    f = frac(a) / frac(b) if b.man else frac(a)
    assert bits(Dyadic.from_fraction(f, prec, up)) == directed(f, prec, up)


@given(dyadics(), precs, st.booleans())
@settings(max_examples=200)
def test_sqrt_is_its_defining_bracket(a, prec, up):
    """The rounded-down root r has r^2 <= a < s^2 for the next prec-bit
    number s above r; the rounded-up root mirrors it."""
    a = abs(a)
    r = a.sqrt(prec, up)
    assert bits(r) == directed(frac(r), prec, up)    # r has at most prec bits
    if not r.man:
        assert not a.man
        return
    tiny = Fraction(2) ** (r.exp - prec - 1)          # below every ulp near r
    if up:
        below = value(directed(frac(r) - tiny, prec, False))
        assert below**2 < frac(a) <= frac(r) ** 2
    else:
        above = value(directed(frac(r) + tiny, prec, True))
        assert frac(r) ** 2 <= frac(a) < above**2


@st.composite
def intervals(draw):
    lo, hi = sorted((draw(dyadics()), draw(dyadics())))
    return Interval(lo, hi, draw(precs))


def endpoints(values, prec):
    return directed(min(values), prec, False), directed(max(values), prec, True)


def ends(x):
    return bits(x.lo), bits(x.hi)


@given(intervals(), intervals())
@settings(max_examples=200)
def test_interval_endpoints_match_oracle(x, y):
    p = min(x.prec, y.prec)
    xs, ys = (frac(x.lo), frac(x.hi)), (frac(y.lo), frac(y.hi))
    assert ends(x + y) == endpoints([u + v for u in xs for v in ys], p)
    assert ends(x - y) == endpoints([u - v for u in xs for v in ys], p)
    assert ends(x * y) == endpoints([u * v for u in xs for v in ys], p)
    if y.lo.man > 0 or y.hi.man < 0:
        assert ends(x / y) == endpoints([u / v for u in xs for v in ys], p)


@given(intervals(), st.integers(min_value=-(10**12), max_value=10**12))
@settings(max_examples=200)
def test_interval_int_operand_endpoints_match_oracle(x, k):
    p = x.prec
    xs = (frac(x.lo), frac(x.hi))
    assert ends(x + k) == ends(k + x) == endpoints([u + k for u in xs], p)
    assert ends(x - k) == endpoints([u - k for u in xs], p)
    assert ends(k - x) == endpoints([k - u for u in xs], p)
    assert ends(x * k) == ends(k * x) == endpoints([u * k for u in xs], p)
    if k:
        # a positive power of two divides exactly
        exact = k > 0 and k & (k - 1) == 0
        assert ends(x / k) == endpoints([u / k for u in xs], EXACT if exact else p)
