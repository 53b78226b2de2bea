"""Regular inscribed/circumscribed polygon refinements and certified pi bounds.

Everything is built from field operations and square roots on intervals: the
inscribed edge of the seed polygon, the bisected-chord recurrence, the
tangent edge, and the vertex gap.  No trigonometry enters the certified path.

Two brackets of pi come from the triangle's bisected edges.  Archimedes'
half perimeters p/2 < pi < P/2 (``pi_bounds``) come from the ``Interval``
chain, and their width falls as N^-2 in the edge count N.  The squared
inscribed half perimeter s^2 = N^2 sin^2(pi/N) is a power series in
h = 1/N^2 with constant term pi^2, so a Richardson-Romberg extrapolation
of s^2 at k + 1 successive depths, widened by an exact bound on its
truncation error that falls superlinearly in k, brackets pi^2
(``romberg_bounds``).  That chain carries s = sqrt(4 - ell^2) =
2 cos(pi/N), the nested radical of Viete's formula, as an integer ball at
scale 2^-G, with one integer square root per halving; as s_m^2 = 2 + s_(m-1),
each node reads Q_m = 4^m ell_m^2 = 4^m (2 - s_(m-1)) off it unsquared.
``pi_enclosure``, the pi the package computes with, rounds the Romberg bracket
outward to one ulp, and ``pi_digits`` certifies digits from its integer
ends; ``_certified_order`` picks the order for both.  ``pi_digits`` keeps
the longest digit string it has certified in the process: a shorter count
is that string's prefix, and is served from it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from math import isqrt
from typing import Iterator

from .dyadic import Dyadic, _rounded
from .errors import (DivByZeroInterval, InvalidChord, InvalidEdge, IterationCapExceeded,
                     NegativeSqrt, UnsupportedSeed)
from .interval import Interval, _interval, _product, _quotient, _sum

#: squared inscribed edge of the supported seed polygons in the unit circle
_SEED_SQUARED = {3: 3, 4: 2, 6: 1}

_TWO = Dyadic(2)

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
    if c.lo.man <= 0 or c.hi._cmp(_TWO) >= 0:
        raise InvalidChord(f"{noun} must lie certifiably in (0, 2): {c}")


def _chord_root(c: Interval) -> tuple:
    """(lo man, lo exp, hi man, hi exp) of c*c and the Interval
    (4 - c*c).sqrt(), the one square root every chord needs.

    Bit-identical to those Interval expressions at c's precision: c*c is
    formed once, as raw endpoints maybe even, and rounded no further; the
    root is formed once, and a rotation, a halving and a tangent edge of c
    all read it.
    """
    a, b, p = c.lo, c.hi, c.prec
    lm, le, hm, he = _product(a.man, a.exp, b.man, b.exp, a.man, a.exp, b.man, b.exp, p)
    lo = _sum(4, 0, -hm, he, p, False)
    hi = _sum(4, 0, -lm, le, p, True)
    if lo.man < 0:
        raise NegativeSqrt(f"sqrt of {_interval(lo, hi, p)}")
    return lm, le, hm, he, _interval(lo.sqrt(p, up=False), hi.sqrt(p, up=True), p)


def _halved(ell: Interval, root: Interval) -> Interval:
    """ell / (2 + root).sqrt() for ell's ``_chord_root`` root,
    bit-identical to that Interval expression."""
    p, r, s = ell.prec, root.lo, root.hi
    lo = _sum(r.man, r.exp, 2, 0, p, False).sqrt(p, up=False)
    hi = _sum(s.man, s.exp, 2, 0, p, True).sqrt(p, up=True)
    return _quotient(ell.lo, ell.hi, lo, hi, p)


def _tangent_edge(ell: Interval, root: Interval) -> Interval:
    """(ell * 2) / root for ell's ``_chord_root`` root, bit-identical to
    that Interval expression."""
    if root.lo.man <= 0:
        raise DivByZeroInterval(f"division by {root}")
    p, a, b = ell.prec, ell.lo, ell.hi
    return _quotient(_rounded(a.man, a.exp + 1, p, False), _rounded(b.man, b.exp + 1, p, True),
                     root.lo, root.hi, p)


def halve_edge(ell: Interval) -> Interval:
    """Chord subtending half the arc: sqrt(2 - sqrt(4 - ell^2)).

    Evaluated as ell / sqrt(2 + sqrt(4 - ell^2)), the same value without
    the cancellation that destroys relative precision for small chords.
    """
    require_chord(ell, "chord")
    return _halved(ell, _chord_root(ell)[4])


def edge_chain(n: int, prec: int) -> Iterator[tuple]:
    """The seed edge of the base n-gon, then each bisected edge in turn,
    each as (ell, terms) with terms = ``_chord_root(ell)``: a level's root
    is formed once, for its reader and for the next level's halving."""
    ell = seed_edge(n, prec)
    while True:
        require_chord(ell, "chord")
        terms = _chord_root(ell)
        yield ell, terms
        ell = _halved(ell, terms[4])


def circumscribed_edge(ell: Interval) -> Interval:
    """Tangent edge with matching arc: 2*ell / sqrt(4 - ell^2)."""
    require_chord(ell, "chord")
    return _tangent_edge(ell, _chord_root(ell)[4])


def vertex_gap(L: Interval) -> Interval:
    """Distance from a circumscribed vertex to the circle: sqrt(1+(L/2)^2)-1."""
    if L.lo.sign <= 0:
        raise InvalidEdge(f"circumscribed edge must be certifiably positive: {L}")
    return (4 + L * L).sqrt() / 2 - 1


def _measures_from_edge(scheme: RegularScheme, ell: Interval, root: Interval) -> SchemeMeasures:
    """The measures of ``scheme`` from its edge ell and ell's ``_chord_root`` root."""
    count = scheme.edge_count
    L = _tangent_edge(ell, root)
    p = ell * count
    P = L * count
    a = (p * root) / 4   # (1/2) p sqrt(1 - ell^2/4)
    A = P / 2
    h = vertex_gap(L)
    return SchemeMeasures(scheme, ell, L, p, P, a, A, h)


def iter_scheme_measures(
    n: int, m_max: int, prec: int
) -> Iterator[SchemeMeasures]:
    """Measures for m = 0..m_max sharing one bisected-edge chain."""
    for m, (ell, terms) in enumerate(islice(edge_chain(n, prec), m_max + 1)):
        yield _measures_from_edge(RegularScheme(n, m), ell, terms[4])


def scheme_measures(scheme: RegularScheme, prec: int) -> SchemeMeasures:
    """Measures of ``scheme`` from ``edge_chain`` at depth m."""
    if prec < 16:
        raise ValueError("precision must be at least 16 bits")
    ell, terms = next(islice(edge_chain(scheme.n, prec), scheme.m, None))
    return _measures_from_edge(scheme, ell, terms[4])


def pi_bounds(scheme: RegularScheme, prec: int) -> Interval:
    """[p/2 lower, P/2 upper]: a certified enclosure of pi."""
    measures = scheme_measures(scheme, prec)
    return Interval((measures.p / 2).lo, (measures.P / 2).hi, prec)


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
    """Exact bound on |sum w_i s_i^2 - pi^2| over depths m0 .. m0 + k.

    s^2 = N^2 sin^2(pi/N) = sum_j b_j h^j with h = 1/N^2 and
    b_j = (-1)^j (2 pi)^(2j+2)/(2 (2j+2)!).  The weights reproduce every
    h^j with j <= k at h = 0, so b_0 = pi^2 is left exact.  For j > k they
    map h^j to the value at 0 of its interpolant,
    (-1)^k prod h_i H_(j-k-1)(h_0..h_k), where H_r is the complete
    homogeneous symmetric polynomial (the interpolation error at 0 is a
    divided difference of h^j times prod (0 - h_i)).  The nodes are
    h_0 4^-i, so H_r is h_0^r times a Gaussian binomial in 1/4, at most
    h_0^r prod_{i=1..k} (1 - 4^-i)^-1.  With 2 pi < 8,
    |b_j| < 8^(2j+2)/(2 (2j+2)!), and consecutive terms over j > k fall by
    at most q = 64 h_0/((2k+5)(2k+6)), so

        |T - pi^2| <= prod h_i prod (1 - 4^-i)^-1 8^(2k+4)/(2 (2k+4)!) / (1 - q).

    Here prod h_i prod (1 - 4^-i)^-1 = h_0^(k+1)/D with D = prod_{t=1..k}
    (4^t - 1), ``_romberg_weights``' denominator, and h_0 = 1/(3 * 2^m0)^2.
    The bound is built as one fraction, so it costs one gcd.
    """
    base = 9 << 2 * m0   # 1/h_0
    span = (2 * k + 5) * (2 * k + 6)
    denom = math.prod((1 << 2 * t) - 1 for t in range(1, k + 1))
    return Fraction(
        span * base << 6 * k + 11,
        base ** (k + 1) * denom * math.factorial(2 * k + 4) * (span * base - 64),
    )


def _cosine_chain(bits: int) -> Iterator[tuple]:
    """Balls (S, r), |2^G s_m - S| <= r, around the half-angle cosines
    s_m = sqrt(4 - ell_m^2) = 2 cos(pi/(3 2^m)) of the triangle's bisected
    edges at scale 2^-G: s_0 = 1 exactly, then s_(m+1) = sqrt(2 + s_m), one
    integer square root per halving.  sqrt(2 + s) is 1/(2 sqrt 2)-Lipschitz
    for s >= 0 and ``isqrt`` floors by less than one unit, so
    r' = ceil(r/2) + 1 holds the new value; r never exceeds 2.
    """
    center, radius = 1 << bits, 0
    while True:
        yield center, radius
        center, radius = isqrt((2 << bits) + center << bits), (radius + 1 >> 1) + 1


def _node_brackets(bits: int, frac_bits: int) -> Iterator[tuple]:
    """Integers lo <= 2^F Q_m <= hi for m = 0, 1, ... while G >= F + 2m:
    as s_m^2 = 2 + s_(m-1), Q_m = 4^m (4 - s_m^2) = 4^m (2 - s_(m-1)), so
    node m reads the ``_cosine_chain`` ball (S, r) of s_(m-1), led by the
    exact s_(-1) = -1 (ell_0^2 = 3), as floor(4^m (2 2^G - S - r)/2^(G-F))
    and ceil(4^m (2 2^G - S + r)/2^(G-F)), with no squaring.  Before
    rounding that spans 2r 4^m 2^(F-G) <= 2^(2+2m+F-G) units (r <= 2).
    """
    two, balls = 2 << bits, chain([(-1 << bits, 0)], _cosine_chain(bits))
    for shift, (center, radius) in zip(range(bits - frac_bits, -1, -2), balls):
        yield two - center - radius >> shift, -(center - radius - two >> shift)


def _romberg_ends(m0: int, k: int, frac_bits: int, bound: Fraction) -> tuple:
    """Integers lo <= 2^F pi <= hi: the Richardson-Romberg extrapolation
    of the squared half perimeters s_i^2 = 9 Q_i/4 at depths m0 .. m0 + k,
    widened by ``bound`` (at least ``romberg_error_bound(m0, k)``).

    The nodes come from ``_node_brackets`` at G = F + 2(m0 + k) + 8 bits,
    each at most 2^-6 units wide before rounding, 2 after; the chain takes
    m0 + k - 1 halvings.  pi^2 lies within the bound of 9 sum W_i Q_i/(4D):
    from base = sum W_i lo_i, the W_i < 0 times (hi_i - lo_i) lower it and
    the W_i > 0 raise it, k + 1 large products.  The lower end of pi^2 is
    clamped at 0 (negative at m0 = 0, k = 0); each root is rounded outward.
    """
    weights, denom = _romberg_weights(k)
    nodes = islice(_node_brackets(frac_bits + 2 * (m0 + k) + 8, frac_bits), m0, None)
    base = low = high = 0
    for weight, (lo, hi) in zip(weights, nodes):
        base += weight * lo
        if weight < 0:
            low += weight * (hi - lo)
        else:
            high += weight * (hi - lo)
    # pi^2 at scale 2^-2F; the slack is the bound rounded up
    scale = denom << 2
    slack = -((-bound.numerator << 2 * frac_bits) // bound.denominator)
    square_lo = (9 * (base + low) << frac_bits) // scale - slack
    square_hi = -(-(9 * (base + high) << frac_bits) // scale) + slack
    return isqrt(max(square_lo, 0)), isqrt(square_hi - 1) + 1


def romberg_bounds(m0: int, k: int, prec: int) -> Interval:
    """Certified enclosure of pi: Richardson-Romberg extrapolation of the
    squared half perimeters s^2 = (N ell/2)^2 at depths m0 .. m0 + k of
    the triangle's bisected edges, widened by ``romberg_error_bound`` and
    square-rooted (``_romberg_ends`` at ``prec`` fraction bits).

    T = sum w_i s_i^2 is Neville's tableau for h -> 0 in one weighted sum;
    k = 1 is Huygens' estimate (4 s_2N^2 - s_N^2)/3 of pi^2.
    """
    if prec < 16:
        raise ValueError("precision must be at least 16 bits")
    if m0 < 0 or k < 0:
        raise ValueError("depth and order must be nonnegative")
    lo, hi = _romberg_ends(m0, k, prec, romberg_error_bound(m0, k))
    return Interval(Dyadic(lo, -prec), Dyadic(hi, -prec), prec).with_prec(prec)


#: the Romberg bracket's first depth: the 96-gon, h_0 = 1/96^2
ROMBERG_BASE_DEPTH = 5

#: decimal digits per chunk of the digit string: below 640, the least
#: int-to-str limit the interpreter can be set to
_DIGIT_CHUNK = 512


def _romberg_order(count: int) -> int:
    """Smallest k whose bound, estimated with floats, is below 10^-(count+2).

    log10 of h_0^(k+1)/D * 8^(2k+4)/(2 (2k+4)!), taking D as
    4^(k(k+1)/2); the exact bound is checked by the caller.
    """
    log2 = math.log10(2)
    log_h0 = -math.log10(9 << 2 * ROMBERG_BASE_DEPTH)
    ln10 = math.log(10)
    target = -(count + 2)

    def below(k: int) -> bool:
        return (log_h0 * (k + 1) - log2 * k * (k + 1) + log2 * (6 * k + 11)
                - math.lgamma(2 * k + 5) / ln10) < target

    # the estimate falls monotonically in k: double k, then bisect
    k = 1
    while not below(k):
        k *= 2
    return bisect_left(range(k), True, lo=k // 2, key=below)


def _certified_order(count: int) -> tuple:
    """The least order k whose exact ``romberg_error_bound`` from depth
    ``ROMBERG_BASE_DEPTH`` is below 10^-(count+2), and that bound: from
    ``_romberg_order``'s estimate, which never exceeds the bound, upward."""
    k = _romberg_order(count)
    target = Fraction(1, 10 ** (count + 2))
    while (bound := romberg_error_bound(ROMBERG_BASE_DEPTH, k)) >= target:
        k += 1
    return k, bound


@lru_cache(maxsize=64)
def pi_enclosure(prec: int) -> Interval:
    """Cached pi enclosure at ``prec`` bits (one ulp wide at each up to
    8192): the Romberg bracket at prec + 16 fraction bits, of the order
    ``_certified_order`` gives for ceil((prec + 16) log10 2) digits,
    rounded outward."""
    bits = prec + 16
    k, _ = _certified_order(math.ceil(bits * math.log10(2)))
    return romberg_bounds(ROMBERG_BASE_DEPTH, k, bits).with_prec(prec)


def _decimal(n: int) -> str:
    """str(n) for n >= 0, in chunks under the interpreter's int-to-str limit."""
    chunks = []
    base = 10 ** _DIGIT_CHUNK
    while n >= base:
        n, low = divmod(n, base)
        chunks.append(str(low).zfill(_DIGIT_CHUNK))
    chunks.append(str(n))
    return "".join(reversed(chunks))


#: the longest digit string ``pi_digits`` has certified in this process,
#: without its point: at most ``DEFAULT_DIGIT_CAP`` digits
_digit_string = ""


def pi_digits(count: int) -> str:
    """First ``count`` decimal digits of pi, certified by interval agreement.

    Served from ``_digit_string``, the longest certified digit string made
    so far in this process, when it holds ``count`` digits: certified
    truncations nest, as the first c' digits of floor(pi 10^(c-1)) are
    floor(pi 10^(c'-1)) for every c' <= c, and pi is irrational, so no
    carry or tie can break a prefix.  Otherwise ``_romberg_digits``
    certifies exactly ``count`` digits, and they are kept if longer.
    """
    global _digit_string
    if count < 1:
        raise ValueError("digit count must be positive")
    if count > DEFAULT_DIGIT_CAP:
        raise ValueError(f"digit count {count} above cap {DEFAULT_DIGIT_CAP}")
    text = _digit_string
    if count > len(text):
        text = _romberg_digits(count)
        # another thread may have kept a longer string meanwhile; a race
        # can keep a shorter certified string, never a wrong one
        if len(text) > len(_digit_string):
            _digit_string = text
    return text[0] + "." + text[1:count] if count > 1 else text[0]


def _romberg_digits(count: int) -> str:
    """The first ``count`` digits of pi, without the point.

    Starts the Romberg bracket at depth ``ROMBERG_BASE_DEPTH`` with the
    least order k whose exact error bound is below 10^-(count+2), at
    10/3 fraction bits per digit plus 32 guard bits.  The digits are
    accepted when both integer ends truncate to the same string; otherwise
    k rises by 4 and the precision doubles, for at most four attempts.
    """
    k, bound = _certified_order(count)
    # log2(10) < 10/3 bits per digit, and guard bits
    prec = max(64, 10 * count // 3 + 32)
    scale = 10 ** (count - 1)
    # each retry narrows the ends over 10^19-fold: a fourth miss needs some 57 nines or zeros
    for _ in range(4):
        lo, hi = _romberg_ends(ROMBERG_BASE_DEPTH, k, prec, bound)
        digits = lo * scale >> prec
        if digits == hi * scale >> prec:
            return _decimal(digits)
        k += 4
        prec *= 2
        bound = romberg_error_bound(ROMBERG_BASE_DEPTH, k)
    raise IterationCapExceeded("pi digit refinement failed to converge")
