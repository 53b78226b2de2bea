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
        if man == 0:
            exp = 0
        else:
            shift = (man & -man).bit_length() - 1
            if shift:
                man >>= shift
                exp += shift
        self.man = man
        self.exp = exp

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(value: Fraction, prec: int, up: bool) -> "Dyadic":
        """Nearest representable value toward -inf (up=False) or +inf."""
        num, den = value.numerator, value.denominator
        if den == 1:
            return Dyadic(num)
        if den & (den - 1) == 0:
            return Dyadic(num, 1 - den.bit_length())
        shift = den.bit_length() + prec + 2
        scaled = num << shift
        q = -((-scaled) // den) if up else scaled // den
        return Dyadic(q, -shift).round(prec, up)

    # -- exact arithmetic --------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.exp, other.exp)
        return Dyadic(
            (self.man << (self.exp - e)) + (other.man << (other.exp - e)), e
        )

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = min(self.exp, other.exp)
        return Dyadic(
            (self.man << (self.exp - e)) - (other.man << (other.exp - e)), e
        )

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
        if self.man == other.man and self.exp == other.exp:
            return 0
        sa = (self.man > 0) - (self.man < 0)
        sb = (other.man > 0) - (other.man < 0)
        if sa != sb:
            return sa - sb
        e = min(self.exp, other.exp)
        d = (self.man << (self.exp - e)) - (other.man << (other.exp - e))
        return (d > 0) - (d < 0)

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
        drop = self.man.bit_length() - prec
        if drop <= 0:
            return self
        if up:
            q = -((-self.man) >> drop)
        else:
            q = self.man >> drop
        return Dyadic(q, self.exp + drop)

    def div(self, other: "Dyadic", prec: int, up: bool) -> "Dyadic":
        num, den = self.man, other.man
        if den < 0:
            num, den = -num, -den
        shift = den.bit_length() + prec + 2
        scaled = num << shift
        q = -((-scaled) // den) if up else scaled // den
        return Dyadic(q, self.exp - other.exp - shift).round(prec, up)

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
        return Dyadic(root, (self.exp - shift) // 2).round(prec, up)

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


ZERO = Dyadic(0)
ONE = Dyadic(1)
