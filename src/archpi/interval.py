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
        return Interval(
            Dyadic.from_fraction(value, prec, up=False),
            Dyadic.from_fraction(value, prec, up=True),
            prec,
        )

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
        lm, le, hm, he, p = _product(self, self._coerce(other))
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
        p = min(self.prec, o.prec)
        # the divisor has one sign, so the sign of each dividend endpoint
        # picks the divisor endpoint of the extreme quotient; directed
        # rounding is monotone, so rounding that quotient is the min (max)
        # of all four rounded quotients
        if o.lo.man > 0:
            lo = self.lo.div(o.hi if self.lo.man >= 0 else o.lo, p, up=False)
            hi = self.hi.div(o.lo if self.hi.man >= 0 else o.hi, p, up=True)
        else:
            lo = self.hi.div(o.hi if self.hi.man >= 0 else o.lo, p, up=False)
            hi = self.lo.div(o.lo if self.lo.man >= 0 else o.hi, p, up=True)
        return _interval(lo, hi, p)

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

    def contains(self, value: Union[int, Fraction, Dyadic]) -> bool:
        if isinstance(value, Dyadic):
            return self.lo <= value <= self.hi
        f = Fraction(value)
        return self.lo.as_fraction() <= f <= self.hi.as_fraction()

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

    def serialize(self, frac_digits: int = 17) -> str:
        lo, hi = self.decimal_pair(frac_digits)
        return f"[{lo}, {hi}] @{self.prec}"

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


def _product(a: Interval, b: Interval) -> tuple:
    """(lo man, lo exp, hi man, hi exp, precision) of a * b.

    Each endpoint is the extreme exact product rounded outward to the
    smaller operand precision; mantissas may be even or zero.
    """
    p = a.prec if a.prec < b.prec else b.prec
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    a_neg = ahi.man <= 0
    b_neg = bhi.man <= 0
    if (a_neg or alo.man >= 0) and (b_neg or blo.man >= 0):
        # neither operand straddles zero: the sign table names the two
        # endpoint products that are the extremes
        x, y = (ahi if b_neg else alo), (bhi if a_neg else blo)
        lm, le = x.man * y.man, x.exp + y.exp
        x, y = (alo if b_neg else ahi), (blo if a_neg else bhi)
        hm, he = x.man * y.man, x.exp + y.exp
    else:
        products = [(x.man * y.man, x.exp + y.exp)
                    for x in (alo, ahi) for y in (blo, bhi)]
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
    return lm, le, hm, he, p


def _sum(am: int, ae: int, bm: int, be: int, prec: int, up: bool) -> Dyadic:
    """``am * 2**ae + bm * 2**be`` rounded to ``prec`` bits, toward +inf (up)."""
    if ae > be:
        return _rounded((am << (ae - be)) + bm, be, prec, up)
    return _rounded(am + (bm << (be - ae)), ae, prec, up)


def compare_certain(a: Interval, b: Interval) -> Verdict:
    """Three-valued comparison; certain only when the intervals separate."""
    if a.hi < b.lo:
        return Verdict.CERTAINLY_LESS
    if a.lo > b.hi:
        return Verdict.CERTAINLY_GREATER
    return Verdict.OVERLAP
