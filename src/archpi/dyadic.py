"""Exact dyadic rationals: arbitrary-precision integers scaled by a power of two.

A value is ``man * 2**exp`` with an odd mantissa (zero has exponent zero),
so representations are canonical and comparison is exact.  All directed
rounding lives here; interval endpoints are always Dyadic.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class Dyadic:
    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0):
        if not man & 1:
            if man:
                shift = (man & -man).bit_length() - 1
                man >>= shift
                exp += shift
            else:
                exp = 0
        self.man = man
        self.exp = exp

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(value: Fraction, prec: int, up: bool) -> "Dyadic":
        """Nearest representable value toward -inf (up=False) or +inf."""
        num, den = value.numerator, value.denominator
        if den & (den - 1) == 0:
            return Dyadic(num, 1 - den.bit_length())
        return Dyadic(num).div(Dyadic(den), prec, up)

    # -- exact arithmetic --------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        d = self.exp - other.exp
        if d > 0:
            return Dyadic((self.man << d) + other.man, other.exp)
        return Dyadic(self.man + (other.man << -d), self.exp)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        d = self.exp - other.exp
        if d > 0:
            return Dyadic((self.man << d) - other.man, other.exp)
        return Dyadic(self.man - (other.man << -d), self.exp)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.man * other.man, self.exp + other.exp)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.man, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.man), self.exp)

    def half(self) -> "Dyadic":
        return Dyadic(self.man, self.exp - 1)

    def scale2(self, k: int) -> "Dyadic":
        """Exact multiplication by 2**k."""
        return Dyadic(self.man, self.exp + k)

    # -- comparison --------------------------------------------------------

    def _cmp(self, other: "Dyadic") -> int:
        a, b = self.man, other.man
        d = self.exp - other.exp
        # equal exponents, opposite signs or a zero: the mantissas compare
        # as the values do; else the leading bits decide unless they line up
        if d and a and b and (a < 0) == (b < 0):
            lead = a.bit_length() - b.bit_length() + d
            if lead:
                return 1 if (lead > 0) == (a > 0) else -1
            if d > 0:
                a <<= d
            else:
                b <<= -d
        return (a > b) - (a < b)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dyadic)
            and self.man == other.man
            and self.exp == other.exp
        )

    def __hash__(self) -> int:
        return hash((self.man, self.exp))

    def __lt__(self, other): return self._cmp(other) < 0
    def __le__(self, other): return self._cmp(other) <= 0
    def __gt__(self, other): return self._cmp(other) > 0
    def __ge__(self, other): return self._cmp(other) >= 0

    @property
    def sign(self) -> int:
        return (self.man > 0) - (self.man < 0)

    # -- directed rounding -------------------------------------------------

    def round(self, prec: int, up: bool) -> "Dyadic":
        """Round to at most ``prec`` mantissa bits, toward +inf or -inf."""
        if self.man.bit_length() <= prec:
            return self
        return _rounded(self.man, self.exp, prec, up)

    def div(self, other: "Dyadic", prec: int, up: bool) -> "Dyadic":
        num, den = self.man, other.man
        if den < 0:
            num, den = -num, -den
        # a quotient of prec + 2 or prec + 3 bits; two roundings in one
        # direction, to an integer and then to prec bits, compose into one
        shift = den.bit_length() - num.bit_length() + prec + 2
        if shift >= 0:
            num <<= shift
        else:
            den <<= -shift
        q = -(-num // den) if up else num // den
        return _rounded(q, self.exp - other.exp - shift, prec, up)

    def sqrt(self, prec: int, up: bool) -> "Dyadic":
        if self.man < 0:
            raise ValueError("sqrt of negative dyadic")
        if self.man == 0:
            return Dyadic(0)
        shift = max(0, 2 * (prec + 2) - self.man.bit_length())
        if (self.exp - shift) & 1:
            shift += 1
        scaled = self.man << shift
        # ceil(sqrt(s)) = isqrt(s - 1) + 1 for s >= 1, and scaled >= 1 here
        root = isqrt(scaled - 1) + 1 if up else isqrt(scaled)
        return _rounded(root, (self.exp - shift) // 2, prec, up)

    # -- conversion & rendering --------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.man << self.exp)
        return Fraction(self.man, 1 << -self.exp)

    def __float__(self) -> float:
        f = self.as_fraction()
        return f.numerator / f.denominator

    def decimal(self, frac_digits: int, up: bool) -> str:
        """Decimal string with ``frac_digits`` places, rounded in direction."""
        scaled = self.man * 10**frac_digits
        if self.exp >= 0:
            n = scaled << self.exp
        elif up:
            n = -((-scaled) >> -self.exp)
        else:
            n = scaled >> -self.exp
        sign = "-" if n < 0 else ""
        digits = str(abs(n)).rjust(frac_digits + 1, "0")
        if frac_digits == 0:
            return sign + digits
        return f"{sign}{digits[:-frac_digits]}.{digits[-frac_digits:]}"

    def __repr__(self) -> str:
        return f"Dyadic({self.man}, {self.exp})"


_new = object.__new__


def _rounded(man: int, exp: int, prec: int, up: bool) -> Dyadic:
    """The canonical Dyadic of ``man * 2**exp`` (``man`` may be even or
    zero) rounded to ``prec`` bits toward +inf (up) or -inf."""
    drop = man.bit_length() - prec
    if drop > 0:
        man = -(-man >> drop) if up else man >> drop
        exp += drop
    if not man & 1:
        if not man:
            return ZERO
        shift = (man & -man).bit_length() - 1
        man >>= shift
        exp += shift
    d = _new(Dyadic)   # canonical already: skip __init__
    d.man = man
    d.exp = exp
    return d


ZERO = Dyadic(0)
ONE = Dyadic(1)
