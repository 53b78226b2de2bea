"""Regular inscribed/circumscribed polygon refinements and certified pi bounds.

Everything is built from field operations and square roots on intervals: the
inscribed edge of the seed polygon, the bisected-chord recurrence, the
tangent edge, and the vertex gap.  No trigonometry enters the certified path.

Two brackets of pi come from the same bisected-edge chain: Archimedes' half
perimeters p/2 < pi < P/2 (``pi_bounds``), whose width falls as N^-2 in the
edge count N, and Huygens' refinement of them (``huygens_bounds``), whose
width falls as N^-4; ``pi_digits`` certifies digits with the latter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator

from .dyadic import Dyadic
from .errors import InvalidChord, InvalidEdge, IterationCapExceeded, UnsupportedSeed
from .interval import Interval

#: squared inscribed edge of the supported seed polygons in the unit circle
_SEED_SQUARED = {3: 3, 4: 2, 6: 1}

DEFAULT_DIGIT_CAP = 10_000


@dataclass(frozen=True)
class RegularScheme:
    """Regular refinement index: base n-gon bisected m times."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("base polygon needs at least 3 edges")
        if self.m < 0:
            raise ValueError("refinement depth must be nonnegative")

    @property
    def edge_count(self) -> int:
        return (1 << self.m) * self.n


@dataclass(frozen=True)
class SchemeMeasures:
    scheme: RegularScheme
    ell: Interval      # inscribed edge
    L: Interval        # circumscribed edge
    p: Interval        # inscribed perimeter
    P: Interval        # circumscribed perimeter
    a: Interval        # inscribed area
    A: Interval        # circumscribed area
    h: Interval        # circumscribed vertex gap

    def report_row(self, frac_digits: int = 17) -> dict:
        s = self.scheme
        return {
            "n": s.n,
            "m": s.m,
            "precision": self.ell.prec,
            "p_lo": self.p.decimal_pair(frac_digits)[0],
            "p_hi": self.p.decimal_pair(frac_digits)[1],
            "P_lo": self.P.decimal_pair(frac_digits)[0],
            "P_hi": self.P.decimal_pair(frac_digits)[1],
            "a_lo": self.a.decimal_pair(frac_digits)[0],
            "a_hi": self.a.decimal_pair(frac_digits)[1],
            "A_lo": self.A.decimal_pair(frac_digits)[0],
            "A_hi": self.A.decimal_pair(frac_digits)[1],
            "h_hi": self.h.decimal_pair(frac_digits)[1],
        }


def seed_edge(n: int, prec: int) -> Interval:
    """Inscribed edge of the base n-gon: sqrt(3), sqrt(2), 1."""
    if n not in _SEED_SQUARED:
        raise UnsupportedSeed(f"no algebraic seed for n={n}")
    return Interval.exact(_SEED_SQUARED[n], prec).sqrt()


def _require_chord(ell: Interval) -> None:
    if ell.lo.sign <= 0 or ell.hi >= Dyadic(2):
        raise InvalidChord(f"chord must lie certifiably in (0, 2): {ell}")


def halve_edge(ell: Interval) -> Interval:
    """Chord subtending half the arc: sqrt(2 - sqrt(4 - ell^2)).

    Evaluated as ell / sqrt(2 + sqrt(4 - ell^2)), the same value without
    the cancellation that destroys relative precision for small chords.
    """
    _require_chord(ell)
    return ell / (2 + (4 - ell * ell).sqrt()).sqrt()


def edge_chain(n: int, prec: int) -> Iterator[Interval]:
    """The seed edge of the base n-gon, then each bisected edge in turn."""
    ell = seed_edge(n, prec)
    while True:
        yield ell
        ell = halve_edge(ell)


def circumscribed_edge(ell: Interval) -> Interval:
    """Tangent edge with matching arc: 2*ell / sqrt(4 - ell^2)."""
    _require_chord(ell)
    return (ell * 2) / (4 - ell * ell).sqrt()


def vertex_gap(L: Interval) -> Interval:
    """Distance from a circumscribed vertex to the circle: sqrt(1+(L/2)^2)-1."""
    if L.lo.sign <= 0:
        raise InvalidEdge(f"circumscribed edge must be certifiably positive: {L}")
    return (4 + L * L).sqrt() / 2 - 1


def _measures_from_edge(scheme: RegularScheme, ell: Interval) -> SchemeMeasures:
    count = scheme.edge_count
    L = circumscribed_edge(ell)
    p = ell * count
    P = L * count
    a = (p * (4 - ell * ell).sqrt()) / 4   # (1/2) p sqrt(1 - ell^2/4)
    A = P / 2
    h = vertex_gap(L)
    return SchemeMeasures(scheme, ell, L, p, P, a, A, h)


def iter_scheme_measures(
    n: int, m_max: int, prec: int
) -> Iterator[SchemeMeasures]:
    """Measures for m = 0..m_max sharing one bisected-edge chain."""
    for m, ell in enumerate(islice(edge_chain(n, prec), m_max + 1)):
        yield _measures_from_edge(RegularScheme(n, m), ell)


def _scheme_edge(scheme: RegularScheme, prec: int) -> Interval:
    """The inscribed edge of ``scheme``: ``edge_chain`` at depth m."""
    if prec < 16:
        raise ValueError("precision must be at least 16 bits")
    return next(islice(edge_chain(scheme.n, prec), scheme.m, None))


def scheme_measures(scheme: RegularScheme, prec: int) -> SchemeMeasures:
    return _measures_from_edge(scheme, _scheme_edge(scheme, prec))


def pi_bounds(scheme: RegularScheme, prec: int) -> Interval:
    """[p/2 lower, P/2 upper]: a certified enclosure of pi."""
    measures = scheme_measures(scheme, prec)
    return Interval((measures.p / 2).lo, (measures.P / 2).hi, prec)


def huygens_bounds(scheme: RegularScheme, prec: int) -> Interval:
    """[3N sin/(2 + cos) lower, N(2 sin + tan)/3 upper]: a certified
    enclosure of pi, at theta = pi/N for the N-gon of ``scheme``.

    Huygens' bounds 3 sin t/(2 + cos t) < t < (2 sin t + tan t)/3 hold for
    0 < t < pi/2.  With the inscribed edge ell = 2 sin t and
    c = sqrt(4 - ell^2) = 2 cos t they read 3N ell/(c + 4) < pi and
    pi < N ell (c + 1)/(3c), so the bracket comes from the same edge as
    ``pi_bounds``; its width falls as N^-4, not N^-2.
    """
    ell = _scheme_edge(scheme, prec)
    _require_chord(ell)
    c = (4 - ell * ell).sqrt()
    perimeter = ell * scheme.edge_count
    lower = perimeter * 3 / (c + 4)
    upper = perimeter * (c + 1) / (c * 3)
    return Interval(lower.lo, upper.hi, prec)


@lru_cache(maxsize=64)
def pi_enclosure(prec: int) -> Interval:
    """Cached pi enclosure from the triangle scheme, tight at ``prec`` bits.

    Depth prec//2 + 8 drives the bracket width below the rounding floor,
    so the result is limited by precision, not refinement depth.
    """
    return pi_bounds(RegularScheme(3, prec // 2 + 8), prec + 16).with_prec(prec)


def two_pi_enclosure(prec: int) -> Interval:
    return pi_enclosure(prec) * 2


def _truncated_digits(value: Dyadic, count: int) -> int:
    """floor(value * 10**(count-1)) for values in (1, 10)."""
    scaled = value.man * 10 ** (count - 1)
    if value.exp >= 0:
        return scaled << value.exp
    return scaled >> -value.exp


def pi_digits(count: int) -> str:
    """First ``count`` decimal digits of pi, certified by interval agreement.

    Refines depth and precision until both endpoints of Huygens' pi
    bracket truncate to the same digit string.
    """
    if count < 1:
        raise ValueError("digit count must be positive")
    if count > DEFAULT_DIGIT_CAP:
        raise IterationCapExceeded(f"digit count {count} above cap {DEFAULT_DIGIT_CAP}")
    # the bracket is ~pi^5/(18*81*16^m) wide, so 16^-m per bisection buys
    # log10(16) > 1.2 digits: ceil(0.84*count) plus 4 spare bisections
    m = (21 * count + 24) // 25 + 4
    # log2(10) < 10/3 bits per digit, log2(m) bits lost along the chain of
    # m halvings, and guard bits
    prec = max(64, 10 * count // 3 + m.bit_length() + 16)
    for _ in range(64):
        bracket = huygens_bounds(RegularScheme(3, m), prec)
        lo_digits = _truncated_digits(bracket.lo, count)
        hi_digits = _truncated_digits(bracket.hi, count)
        if lo_digits == hi_digits:
            text = str(lo_digits)
            return text[0] + "." + text[1:] if count > 1 else text
        m += 4
        prec *= 2
    raise IterationCapExceeded("pi digit refinement failed to converge")
