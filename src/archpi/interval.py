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

from .dyadic import Dyadic, _rounded
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
        return Interval(d, d, prec)

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

    def __add__(self, other: Scalar) -> "Interval":
        lm, le, hm, he, p = self._terms(other)
        return Interval(
            _sum(self.lo.man, self.lo.exp, lm, le, p, False),
            _sum(self.hi.man, self.hi.exp, hm, he, p, True),
            p,
        )

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "Interval":
        lm, le, hm, he, p = self._terms(other)
        return Interval(
            _sum(self.lo.man, self.lo.exp, -hm, he, p, False),
            _sum(self.hi.man, self.hi.exp, -lm, le, p, True),
            p,
        )

    def __rsub__(self, other: Scalar) -> "Interval":
        lm, le, hm, he, p = self._terms(other)
        return Interval(
            _sum(lm, le, -self.hi.man, self.hi.exp, p, False),
            _sum(hm, he, -self.lo.man, self.lo.exp, p, True),
            p,
        )

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.prec)

    def __mul__(self, other: Scalar) -> "Interval":
        if isinstance(other, int):
            p = self.prec
            lo, hi = (self.lo, self.hi) if other >= 0 else (self.hi, self.lo)
            return Interval(
                _rounded(lo.man * other, lo.exp, p, False),
                _rounded(hi.man * other, hi.exp, p, True),
                p,
            )
        o = self._coerce(other)
        p = min(self.prec, o.prec)
        a_neg = self.hi.man <= 0
        b_neg = o.hi.man <= 0
        if (a_neg or self.lo.man >= 0) and (b_neg or o.lo.man >= 0):
            # neither operand straddles zero: the sign table names the two
            # endpoint products that are the extremes
            x, y = (self.hi if b_neg else self.lo), (o.hi if a_neg else o.lo)
            lo = _rounded(x.man * y.man, x.exp + y.exp, p, False)
            x, y = (self.lo if b_neg else self.hi), (o.lo if a_neg else o.hi)
            hi = _rounded(x.man * y.man, x.exp + y.exp, p, True)
            return Interval(lo, hi, p)
        products = [x * y for x in (self.lo, self.hi) for y in (o.lo, o.hi)]
        return Interval(
            min(products).round(p, up=False), max(products).round(p, up=True), p
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Interval":
        if isinstance(other, int) and other != 0:
            p = self.prec
            if other & (other - 1) == 0 and other > 0:
                k = other.bit_length() - 1
                return Interval(self.lo.scale2(-k), self.hi.scale2(-k), p)
            d = Dyadic(other)
            if other > 0:
                return Interval(
                    self.lo.div(d, p, up=False), self.hi.div(d, p, up=True), p
                )
            return Interval(
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
        return Interval(lo, hi, p)

    def __rtruediv__(self, other: Scalar) -> "Interval":
        return self._coerce(other) / self

    def sqrt(self) -> "Interval":
        if self.lo.man < 0:
            raise NegativeSqrt(f"sqrt of {self}")
        return Interval(
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
        return Interval(
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
