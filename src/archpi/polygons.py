"""Regular inscribed/circumscribed polygon refinements and certified pi bounds.

Everything is built from field operations and square roots on intervals: the
inscribed edge of the seed polygon, the bisected-chord recurrence, the
tangent edge, and the vertex gap.  No trigonometry enters the certified path.

Two brackets of pi come from the same bisected-edge chain: Archimedes' half
perimeters p/2 < pi < P/2 (``pi_bounds``), whose width falls as N^-2 in the
edge count N, and a Richardson-Romberg extrapolation of the inscribed half
perimeters at k + 1 successive depths (``romberg_bounds``), widened by an
exact bound on its truncation error, which falls superlinearly in k;
``pi_digits`` certifies digits with the latter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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

    def report_row(self) -> dict:
        row = {"n": self.scheme.n, "m": self.scheme.m, "precision": self.ell.prec}
        for name in ("p", "P", "a", "A"):
            row[name + "_lo"], row[name + "_hi"] = getattr(self, name).decimal_pair()
        row["h_hi"] = self.h.decimal_pair()[1]
        return row


def seed_edge(n: int, prec: int) -> Interval:
    """Inscribed edge of the base n-gon: sqrt(3), sqrt(2), 1."""
    if n not in _SEED_SQUARED:
        raise UnsupportedSeed(f"no algebraic seed for n={n}")
    return Interval.exact(_SEED_SQUARED[n], prec).sqrt()


def require_chord(c: Interval, noun: str) -> None:
    """Raise ``InvalidChord``, naming ``noun``, unless c lies certifiably in (0, 2)."""
    if c.lo.sign <= 0 or c.hi >= Dyadic(2):
        raise InvalidChord(f"{noun} must lie certifiably in (0, 2): {c}")


def halve_edge(ell: Interval) -> Interval:
    """Chord subtending half the arc: sqrt(2 - sqrt(4 - ell^2)).

    Evaluated as ell / sqrt(2 + sqrt(4 - ell^2)), the same value without
    the cancellation that destroys relative precision for small chords.
    """
    require_chord(ell, "chord")
    return ell / (2 + (4 - ell * ell).sqrt()).sqrt()


def edge_chain(n: int, prec: int) -> Iterator[Interval]:
    """The seed edge of the base n-gon, then each bisected edge in turn."""
    ell = seed_edge(n, prec)
    while True:
        yield ell
        ell = halve_edge(ell)


def circumscribed_edge(ell: Interval) -> Interval:
    """Tangent edge with matching arc: 2*ell / sqrt(4 - ell^2)."""
    require_chord(ell, "chord")
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


@lru_cache(maxsize=64)
def pi_enclosure(prec: int) -> Interval:
    """Cached pi enclosure from the triangle scheme, tight at ``prec`` bits.

    Depth prec//2 + 8 drives the bracket width below the rounding floor,
    so the result is limited by precision, not refinement depth.
    """
    return pi_bounds(RegularScheme(3, prec // 2 + 8), prec + 16).with_prec(prec)


def two_pi_enclosure(prec: int) -> Interval:
    return pi_enclosure(prec) * 2


@lru_cache(maxsize=64)
def _romberg_weights(k: int) -> tuple:
    """Integers (W_0 .. W_k) and D with W_i/D the Lagrange weight at h = 0
    of the nodes h_i = h_0 4^-i: w_i = prod_{l != i} h_l/(h_l - h_i).

    Each factor is 4^(i-l)/(4^(i-l) - 1) for l < i and -1/(4^(l-i) - 1)
    for l > i, so with P_j = prod_{t=1..j} (4^t - 1), D = P_k and
    W_i = (-1)^(k-i) 4^(i(i+1)/2) P_k/(P_i P_(k-i)), a Gaussian binomial.
    """
    P = [1]
    for t in range(1, k + 1):
        P.append(P[-1] * ((1 << 2 * t) - 1))
    weights = tuple(
        (-1) ** (k - i) * (P[k] // (P[i] * P[k - i])) << i * (i + 1)
        for i in range(k + 1)
    )
    return weights, P[k]


def romberg_error_bound(m0: int, k: int) -> Fraction:
    """Exact bound on |sum w_i s_i - pi| over depths m0 .. m0 + k.

    s = N sin(pi/N) = sum_j a_j h^j with h = 1/N^2 and
    a_j = (-1)^j pi^(2j+1)/(2j+1)!.  The weights reproduce every h^j with
    j <= k at h = 0, so a_0 = pi is left exact.  For j > k they map h^j to
    the value at 0 of its interpolant, (-1)^k prod h_i H_(j-k-1)(h_0..h_k),
    where H_r is the complete homogeneous symmetric polynomial (the
    interpolation error at 0 is a divided difference of h^j times
    prod (0 - h_i)).  The nodes are h_0 4^-i, so H_r is h_0^r times a
    Gaussian binomial in 1/4, at most h_0^r prod_{i=1..k} (1 - 4^-i)^-1.
    With pi < 4, |a_j| < 4^(2j+1)/(2j+1)!, and consecutive terms over
    j > k fall by at most q = 16 h_0/((2k+4)(2k+5)), so

        |T - pi| <= prod h_i prod (1 - 4^-i)^-1 4^(2k+3)/(2k+3)! / (1 - q).

    Here prod h_i prod (1 - 4^-i)^-1 = h_0^(k+1)/D, with D from
    ``_romberg_weights``, and h_0 = 1/(3 * 2^m0)^2.
    """
    h0 = Fraction(1, 9 << 2 * m0)
    _, denom = _romberg_weights(k)
    head = h0 ** (k + 1) * (1 << 4 * k + 6) / (denom * math.factorial(2 * k + 3))
    return head / (1 - 16 * h0 / ((2 * k + 4) * (2 * k + 5)))


def romberg_bounds(m0: int, k: int, prec: int) -> Interval:
    """Certified enclosure of pi: Richardson-Romberg extrapolation of
    Archimedes' half perimeters s = N ell/2 at depths m0 .. m0 + k of the
    triangle's ``edge_chain``, widened by ``romberg_error_bound``.

    T = sum w_i s_i is Neville's tableau for h -> 0 in one weighted sum;
    k = 1 is Huygens' estimate (4 s_2N - s_N)/3.  Every term is an
    outward-rounded interval, so T contains the exact weighted sum.
    """
    if prec < 16:
        raise ValueError("precision must be at least 16 bits")
    if m0 < 0 or k < 0:
        raise ValueError("depth and order must be nonnegative")
    weights, denom = _romberg_weights(k)
    edges = islice(edge_chain(3, prec), m0, m0 + k + 1)
    total = sum(
        ell * (weight * 3 << m0 + i)   # W_i N_i ell_i
        for i, (weight, ell) in enumerate(zip(weights, edges))
    )
    slack = Dyadic.from_fraction(romberg_error_bound(m0, k), 32, up=True)
    return (total / (2 * denom)).widen(slack)


#: the Romberg bracket's first depth: the 96-gon, h_0 = 1/96^2
ROMBERG_BASE_DEPTH = 5

#: decimal digits per chunk of the digit string: below 640, the least
#: int-to-str limit the interpreter can be set to
_DIGIT_CHUNK = 512


def _romberg_order(count: int) -> int:
    """Smallest k whose bound, estimated with floats, is below 10^-(count+2).

    log10 of h_0^(k+1)/D * 4^(2k+3)/(2k+3)!, taking D as 4^(k(k+1)/2); the
    exact bound is checked by the caller.
    """
    log4 = math.log10(4)
    log_h0 = -math.log10(9 << 2 * ROMBERG_BASE_DEPTH)
    k = 0
    while (log_h0 * (k + 1) - log4 * k * (k + 1) / 2 + log4 * (2 * k + 3)
           - math.lgamma(2 * k + 4) / math.log(10)) >= -(count + 2):
        k += 1
    return k


def _truncated_digits(value: Dyadic, count: int) -> int:
    """floor(value * 10**(count-1)) for values in (1, 10)."""
    scaled = value.man * 10 ** (count - 1)
    if value.exp >= 0:
        return scaled << value.exp
    return scaled >> -value.exp


def _decimal(n: int) -> str:
    """str(n) for n >= 0, in chunks under the interpreter's int-to-str limit."""
    chunks = []
    base = 10 ** _DIGIT_CHUNK
    while n >= base:
        n, low = divmod(n, base)
        chunks.append(str(low).zfill(_DIGIT_CHUNK))
    chunks.append(str(n))
    return "".join(reversed(chunks))


def pi_digits(count: int) -> str:
    """First ``count`` decimal digits of pi, certified by interval agreement.

    Starts the Romberg bracket at depth ``ROMBERG_BASE_DEPTH`` with the
    least order k whose exact error bound is below 10^-(count+2), at
    10/3 bits per digit plus 32 guard bits.  The digits are accepted when
    both endpoints truncate to the same string; otherwise k rises by 4 and
    the precision doubles.
    """
    if count < 1:
        raise ValueError("digit count must be positive")
    if count > DEFAULT_DIGIT_CAP:
        raise IterationCapExceeded(f"digit count {count} above cap {DEFAULT_DIGIT_CAP}")
    k = _romberg_order(count)
    while romberg_error_bound(ROMBERG_BASE_DEPTH, k) >= Fraction(1, 10 ** (count + 2)):
        k += 1
    # log2(10) < 10/3 bits per digit, and guard bits
    prec = max(64, 10 * count // 3 + 32)
    for _ in range(64):
        bracket = romberg_bounds(ROMBERG_BASE_DEPTH, k, prec)
        lo_digits = _truncated_digits(bracket.lo, count)
        hi_digits = _truncated_digits(bracket.hi, count)
        if lo_digits == hi_digits:
            text = _decimal(lo_digits)
            return text[0] + "." + text[1:] if count > 1 else text
        k += 4
        prec *= 2
    raise IterationCapExceeded("pi digit refinement failed to converge")
