"""Outward-rounded interval arithmetic over dyadic endpoints.

Every operation returns an interval that contains the exact real result for
any selection of reals from the operand intervals.  Precision is threaded
explicitly: a binary operation works at the smaller of the operand
precisions and rounds each endpoint outward to that many mantissa bits.
Values are immutable; nothing here touches host floating point.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Union

from .dyadic import Dyadic, _new, _rounded
from .errors import DivByZeroInterval, NegativeSqrt

Scalar = Union[int, Dyadic, "Interval"]


class Verdict(enum.Enum):
    CERTAINLY_LESS = "certainly_less"
    CERTAINLY_GREATER = "certainly_greater"
    OVERLAP = "overlap"


class Interval:
    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo: Dyadic, hi: Dyadic, prec: int):
        if lo._cmp(hi) > 0:
            raise ValueError(f"inverted interval endpoints: {lo!r} > {hi!r}")
        self.lo = lo
        self.hi = hi
        self.prec = prec

    # -- constructors ------------------------------------------------------

    @staticmethod
    def exact(value: Union[int, Dyadic], prec: int) -> "Interval":
        d = Dyadic(value) if isinstance(value, int) else value
        return _interval(d, d, prec)

    @staticmethod
    def from_fraction(value: Fraction, prec: int) -> "Interval":
        return Interval.from_endpoints(value, value, prec)

    @staticmethod
    def from_endpoints(lo: Fraction, hi: Fraction, prec: int) -> "Interval":
        return Interval(
            Dyadic.from_fraction(lo, prec, up=False),
            Dyadic.from_fraction(hi, prec, up=True),
            prec,
        )

    def _coerce(self, other: Scalar) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval.exact(other, self.prec)

    def _terms(self, other: Scalar) -> tuple:
        """(lo man, lo exp, hi man, hi exp, precision) of an operand."""
        if isinstance(other, Interval):
            lo, hi = other.lo, other.hi
            return lo.man, lo.exp, hi.man, hi.exp, min(self.prec, other.prec)
        if isinstance(other, int):
            return other, 0, other, 0, self.prec
        return other.man, other.exp, other.man, other.exp, self.prec

    # -- arithmetic ---------------------------------------------------------
    # Each endpoint is the exact result, formed on the mantissas and
    # rounded outward once; directed rounding depends only on the value.
    # Outward rounding keeps lo <= hi, so results skip the order check.

    def __add__(self, other: Scalar) -> "Interval":
        lm, le, hm, he, p = self._terms(other)
        return _interval(
            _sum(self.lo.man, self.lo.exp, lm, le, p, False),
            _sum(self.hi.man, self.hi.exp, hm, he, p, True),
            p,
        )

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "Interval":
        lm, le, hm, he, p = self._terms(other)
        return _interval(
            _sum(self.lo.man, self.lo.exp, -hm, he, p, False),
            _sum(self.hi.man, self.hi.exp, -lm, le, p, True),
            p,
        )

    def __rsub__(self, other: Scalar) -> "Interval":
        lm, le, hm, he, p = self._terms(other)
        return _interval(
            _sum(lm, le, -self.hi.man, self.hi.exp, p, False),
            _sum(hm, he, -self.lo.man, self.lo.exp, p, True),
            p,
        )

    def __neg__(self) -> "Interval":
        return _interval(-self.hi, -self.lo, self.prec)

    def __mul__(self, other: Scalar) -> "Interval":
        if isinstance(other, int):
            p = self.prec
            lo, hi = (self.lo, self.hi) if other >= 0 else (self.hi, self.lo)
            return _interval(
                _rounded(lo.man * other, lo.exp, p, False),
                _rounded(hi.man * other, hi.exp, p, True),
                p,
            )
        o = self._coerce(other)
        a, b, c, d = self.lo, self.hi, o.lo, o.hi
        p = self.prec if self.prec < o.prec else o.prec
        lm, le, hm, he = _product(a.man, a.exp, b.man, b.exp,
                                  c.man, c.exp, d.man, d.exp, p)
        return _interval(_rounded(lm, le, p, False), _rounded(hm, he, p, True), p)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Interval":
        if isinstance(other, int) and other != 0:
            p = self.prec
            if other & (other - 1) == 0 and other > 0:
                k = other.bit_length() - 1
                return _interval(self.lo.scale2(-k), self.hi.scale2(-k), p)
            d = Dyadic(other)
            if other > 0:
                return _interval(
                    self.lo.div(d, p, up=False), self.hi.div(d, p, up=True), p
                )
            return _interval(
                self.hi.div(d, p, up=False), self.lo.div(d, p, up=True), p
            )
        o = self._coerce(other)
        if o.lo.man <= 0 <= o.hi.man:
            raise DivByZeroInterval(f"division by {o}")
        return _quotient(self.lo, self.hi, o.lo, o.hi, min(self.prec, o.prec))

    def __rtruediv__(self, other: Scalar) -> "Interval":
        return self._coerce(other) / self

    def sqrt(self) -> "Interval":
        if self.lo.man < 0:
            raise NegativeSqrt(f"sqrt of {self}")
        return _interval(
            self.lo.sqrt(self.prec, up=False),
            self.hi.sqrt(self.prec, up=True),
            self.prec,
        )

    # -- queries ------------------------------------------------------------

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def mid(self) -> Dyadic:
        return (self.lo + self.hi).half()

    def mag(self) -> Dyadic:
        return max(abs(self.lo), abs(self.hi))

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def widen(self, slack: Dyadic) -> "Interval":
        return Interval(self.lo - slack, self.hi + slack, self.prec)

    def with_prec(self, prec: int) -> "Interval":
        return _interval(
            self.lo.round(prec, up=False), self.hi.round(prec, up=True), prec
        )

    # -- rendering -----------------------------------------------------------

    def decimal_pair(self, frac_digits: int = 17) -> tuple:
        """Outward-rounded decimal endpoint strings."""
        return (
            self.lo.decimal(frac_digits, up=False),
            self.hi.decimal(frac_digits, up=True),
        )

    def __repr__(self) -> str:
        lo, hi = self.decimal_pair(12)
        return f"Interval({lo}, {hi}, prec={self.prec})"


def _interval(lo: Dyadic, hi: Dyadic, prec: int) -> Interval:
    """An Interval whose endpoints are known to be in order: no check."""
    iv = _new(Interval)
    iv.lo = lo
    iv.hi = hi
    iv.prec = prec
    return iv


def _product(am: int, ae: int, bm: int, be: int,
             cm: int, ce: int, dm: int, de: int, p: int) -> tuple:
    """(lo man, lo exp, hi man, hi exp) of [a, b] * [c, d], each endpoint
    given as a raw (man, exp) pair.

    Each endpoint is the extreme exact product rounded outward to ``p``
    bits; mantissas may be even or zero, in the operands and the result.
    """
    a_neg = bm <= 0
    c_neg = dm <= 0
    if (a_neg or am >= 0) and (c_neg or cm >= 0):
        # neither operand straddles zero: the sign table names the two
        # endpoint products that are the extremes
        if c_neg:
            if a_neg:
                lm, le, hm, he = bm * dm, be + de, am * cm, ae + ce
            else:
                lm, le, hm, he = bm * cm, be + ce, am * dm, ae + de
        elif a_neg:
            lm, le, hm, he = am * dm, ae + de, bm * cm, be + ce
        else:
            lm, le, hm, he = am * cm, ae + ce, bm * dm, be + de
    else:
        products = [(x * y, xe + ye) for x, xe in ((am, ae), (bm, be))
                    for y, ye in ((cm, ce), (dm, de))]
        base = min(e for _, e in products)
        lm, le = min(products, key=lambda t: t[0] << (t[1] - base))
        hm, he = max(products, key=lambda t: t[0] << (t[1] - base))
    drop = lm.bit_length() - p
    if drop > 0:
        lm >>= drop
        le += drop
    drop = hm.bit_length() - p
    if drop > 0:
        hm = -(-hm >> drop)
        he += drop
    return lm, le, hm, he


def _quotient(a: Dyadic, b: Dyadic, c: Dyadic, d: Dyadic, p: int) -> Interval:
    """[a, b] / [c, d] at ``p`` bits, for a divisor of one sign.

    The sign of each dividend endpoint picks the divisor endpoint of the
    extreme quotient; directed rounding is monotone, so rounding that
    quotient is the min (max) of all four rounded quotients.
    """
    if c.man > 0:
        lo = a.div(d if a.man >= 0 else c, p, up=False)
        hi = b.div(c if b.man >= 0 else d, p, up=True)
    else:
        lo = b.div(d if b.man >= 0 else c, p, up=False)
        hi = a.div(c if a.man >= 0 else d, p, up=True)
    return _interval(lo, hi, p)


def _sum(am: int, ae: int, bm: int, be: int, prec: int, up: bool) -> Dyadic:
    """``am * 2**ae + bm * 2**be`` rounded to ``prec`` bits, toward +inf (up)."""
    if ae > be:
        return _rounded((am << (ae - be)) + bm, be, prec, up)
    return _rounded(am + (bm << (be - ae)), ae, prec, up)


def _raw_sum(am: int, ae: int, bm: int, be: int, prec: int, up: bool) -> tuple:
    """``_sum`` as a raw (man, exp) pair, its mantissa maybe even or zero."""
    if ae > be:
        man, exp = (am << (ae - be)) + bm, be
    else:
        man, exp = am + (bm << (be - ae)), ae
    drop = man.bit_length() - prec
    if drop > 0:
        man = -(-man >> drop) if up else man >> drop
        exp += drop
    return man, exp


def compare_certain(a: Interval, b: Interval) -> Verdict:
    """Three-valued comparison; certain only when the intervals separate."""
    if a.hi < b.lo:
        return Verdict.CERTAINLY_LESS
    if a.lo > b.hi:
        return Verdict.CERTAINLY_GREATER
    return Verdict.OVERLAP
