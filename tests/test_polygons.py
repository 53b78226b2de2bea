import hashlib
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archpi.dyadic import Dyadic
from archpi.errors import InvalidChord, InvalidEdge, IterationCapExceeded, UnsupportedSeed
from archpi.interval import Interval, Verdict, compare_certain
from archpi import polygons
from archpi.polygons import (
    DEFAULT_DIGIT_CAP,
    RegularScheme,
    circumscribed_edge,
    edge_chain,
    halve_edge,
    iter_scheme_measures,
    pi_bounds,
    pi_digits,
    pi_enclosure,
    romberg_bounds,
    romberg_error_bound,
    scheme_measures,
    seed_edge,
    vertex_gap,
)

from oracles import (chain_pi_enclosure, contains, encloses, machin_pi_digits,
                     scanned_romberg_order, trig_chord)

PREC = 96


def test_seed_edges():
    assert contains(seed_edge(3, PREC), "1.7320508075688772935274463415058723669428052538104")
    assert contains(seed_edge(4, PREC), "1.4142135623730950488016887242096980785696718753769")
    assert contains(seed_edge(6, PREC), 1)
    with pytest.raises(UnsupportedSeed):
        seed_edge(5, PREC)


def test_halve_edge_oracle():
    # half of the square's quarter arc: 2*sin(pi/8)
    half = halve_edge(seed_edge(4, PREC))
    assert contains(half, trig_chord(Fraction(1, 8)))
    # dodecagon edge from the hexagon: 2*sin(pi/12)
    twelve = halve_edge(seed_edge(6, PREC))
    assert contains(twelve, trig_chord(Fraction(1, 12)))


def test_halve_edge_small_chord_stays_relative():
    # the naive 2 - sqrt(4 - l^2) form would lose everything here
    ell = Interval.from_fraction(Fraction(1, 10**6), PREC)
    half = halve_edge(ell)
    assert half.width() < Dyadic(1, -110)
    # half-arc chord is just over half the chord
    assert compare_certain(half * 2, ell) is Verdict.CERTAINLY_GREATER


def test_halve_edge_rejects_bad_chords():
    with pytest.raises(InvalidChord):
        halve_edge(Interval.exact(2, PREC))
    with pytest.raises(InvalidChord):
        halve_edge(Interval.exact(0, PREC))


def test_circumscribed_edge():
    # hexagon: L = 2/sqrt(3)
    L = circumscribed_edge(seed_edge(6, PREC))
    assert contains(L, "1.1547005383792515290182975610039149112952035025403")
    # square: L = 2
    assert encloses(circumscribed_edge(seed_edge(4, PREC)), 2)


def test_vertex_gap():
    # h = sqrt(1 + (L/2)^2) - 1; for L = 0.01 that is ~1.2499922e-05
    gap = vertex_gap(Interval.from_fraction(Fraction(1, 100), PREC))
    assert encloses(gap, Fraction(12499922, 10**12)) or (
        Dyadic(1, -17) < gap.lo and gap.hi < Dyadic(1, -16)
    )
    with pytest.raises(InvalidEdge):
        vertex_gap(Interval.from_fraction(Fraction(-1), PREC))


def test_scheme_measures_hexagon():
    m = scheme_measures(RegularScheme(6, 0), PREC)
    assert encloses(m.p, 6)
    assert contains(m.P, "6.9282032302755091741097853660234894677121507852914")
    assert contains(m.a, "2.5980762113533159402911695122588085504142508293120")
    assert contains(m.A, "3.4641016151377545870548926830117447338560753926457")
    assert m.scheme.edge_count == 6


def test_archimedes_96gon_bracket():
    # the classical 96-gon computation separates 223/71 and 22/7
    m = scheme_measures(RegularScheme(6, 4), 96)
    lo = (m.p / 2).lo.as_fraction()
    hi = (m.P / 2).hi.as_fraction()
    assert Fraction(223, 71) < lo < hi < Fraction(22, 7)


def test_iter_matches_single():
    chain = list(iter_scheme_measures(3, 5, PREC))
    solo = scheme_measures(RegularScheme(3, 5), PREC)
    assert chain[5].ell.lo == solo.ell.lo and chain[5].ell.hi == solo.ell.hi


def test_pi_bounds_and_enclosure():
    b = pi_bounds(RegularScheme(3, 20), 128)
    assert contains(b, "3.14159265358979323846264338327950288419716939937510")
    enc = pi_enclosure(128)
    assert contains(enc, "3.14159265358979323846264338327950288419716939937510")
    assert enc.width() < Dyadic(1, -100)
    assert contains(pi_enclosure(64) * 2, "6.2831853071795864769252867665590057683943387987502")


def test_pi_enclosure_is_the_chain_bracket_to_400_bits():
    # below 601 bits the Romberg bracket rounds to the former chain's bits
    for prec in range(1, 401):
        enc, chain = pi_enclosure(prec), chain_pi_enclosure(prec)
        assert (enc.lo, enc.hi, enc.prec) == (chain.lo, chain.hi, chain.prec), prec


@lru_cache(maxsize=1)
def _machin_pi_ends():
    """Integers t, t + 1 and a scale 10^d with t/10^d <= pi < (t + 1)/10^d,
    from 2,700 digits: enough for pi's bits to 8,192 bits and beyond."""
    text = machin_pi_digits(2700).replace(".", "")
    return int(text), int(text) + 1, 10 ** (len(text) - 1)


def _pi_floor(prec):
    """floor(pi 2^(prec-2)), certain: both Machin ends give the same floor."""
    lo, hi, scale = _machin_pi_ends()
    floor = (lo << prec - 2) // scale
    assert floor == (hi << prec - 2) // scale, prec
    return floor


#: the precisions to 1,056 bits at which the chain's bracket is two ulps
#: wide: pi has a long run of equal bits just past bit prec
_TWO_ULP_CHAIN = [646, 647, 648, 649, 726, 819, 820, 903, 904, 905, 906, 1042, 1043, 1056]


@pytest.mark.parametrize("prec", _TWO_ULP_CHAIN)
def test_pi_enclosure_is_the_half_of_a_two_ulp_chain_bracket_that_holds_pi(prec):
    enc, chain = pi_enclosure(prec), chain_pi_enclosure(prec)
    ulp = Fraction(1, 1 << prec - 2)
    lo, hi = chain.lo.as_fraction(), chain.hi.as_fraction()
    assert hi - lo == 2 * ulp
    half = Fraction(_pi_floor(prec), 1 << prec - 2)
    assert half in (lo, lo + ulp)
    assert (enc.lo.as_fraction(), enc.hi.as_fraction(), enc.prec) == (half, half + ulp, prec)


def test_pi_enclosure_is_one_ulp_around_pi():
    # [floor(pi 2^(p-2)), that + 1] 2^(2-p) at every p to 1,100 bits, at the
    # ends of the precision ceilings, and at seeded draws to 8,192 bits
    draws = random.Random(30).sample(range(1101, 8193), 20)
    for prec in [*range(2, 1101), 2048, 4095, 4096, 8192, *draws]:
        floor, enc = _pi_floor(prec), pi_enclosure(prec)
        assert enc.prec == prec
        assert enc.lo.as_fraction() == Fraction(floor, 1 << prec - 2), prec
        assert enc.hi.as_fraction() == Fraction(floor + 1, 1 << prec - 2), prec


def test_pi_digits_against_machin():
    for count in (1, 2, 5, 10, 30):
        assert pi_digits(count) == machin_pi_digits(count)


def test_pi_digits_every_count_against_machin(monkeypatch, cold_digits):
    # every count to 800, the Feynman point's six 9s (762-767) among them,
    # then 1000 and 2000, each from the starting order and precision: one
    # kernel call, no retry
    calls = []
    kernel = polygons._romberg_ends

    def recording(m0, k, frac_bits, bound):
        calls.append(frac_bits)
        return kernel(m0, k, frac_bits, bound)

    monkeypatch.setattr(polygons, "_romberg_ends", recording)
    reference = machin_pi_digits(2000)
    for count in [*range(1, 801), 1000, 2000]:
        expected = reference[: count + 1] if count > 1 else "3"
        calls.clear()
        assert pi_digits(count) == expected, count
        assert len(calls) == 1, count


@pytest.mark.parametrize("count", [12, 44, 63, 128, 257, 391, 500, 767])
def test_pi_digits_high_counts_against_machin(count, monkeypatch, cold_digits):
    calls = []
    kernel = polygons._romberg_ends

    def recording(m0, k, frac_bits, bound):
        calls.append((m0, k, frac_bits))
        return kernel(m0, k, frac_bits, bound)

    monkeypatch.setattr(polygons, "_romberg_ends", recording)
    assert pi_digits(count) == machin_pi_digits(count)
    # the starting order and precision suffice, even at 767, the end of the
    # six 9s of the Feynman point
    assert len(calls) == 1


def test_pi_digits_retries_with_a_higher_order_and_twice_the_bits(monkeypatch, cold_digits):
    calls = []
    kernel = polygons._romberg_ends

    def first_misses(m0, k, frac_bits, bound):
        calls.append((m0, k, frac_bits, bound))
        lo, hi = kernel(m0, k, frac_bits, bound)
        # widen the first bracket by one unit of pi: its ends disagree
        return (lo - (1 << frac_bits), hi) if len(calls) == 1 else (lo, hi)

    monkeypatch.setattr(polygons, "_romberg_ends", first_misses)
    assert pi_digits(120) == machin_pi_digits(120)
    (m0, k, bits, _), (m0_again, k_again, bits_again, bound) = calls
    assert m0 == m0_again == polygons.ROMBERG_BASE_DEPTH
    assert (k_again, bits_again) == (k + 4, 2 * bits)
    assert bound == romberg_error_bound(m0, k + 4)


def test_a_kernel_that_never_agrees_gives_up_after_four_attempts(monkeypatch, cold_digits):
    pi_digits(50)
    calls = []
    kernel = polygons._romberg_ends

    def never_agrees(m0, k, frac_bits, bound):
        calls.append((k, frac_bits, bound))
        lo, hi = kernel(m0, k, frac_bits, bound)
        # one unit of pi wider below: the ends truncate apart at every attempt
        return lo - (1 << frac_bits), hi

    monkeypatch.setattr(polygons, "_romberg_ends", never_agrees)
    with pytest.raises(IterationCapExceeded):
        pi_digits(100)
    k, bits, _ = calls[0]
    assert [(order, width) for order, width, _ in calls] == [
        (k + 4 * i, bits << i) for i in range(4)]
    assert [bound for _, _, bound in calls] == [
        romberg_error_bound(polygons.ROMBERG_BASE_DEPTH, order) for order, _, _ in calls]
    assert polygons._digit_string == machin_pi_digits(50).replace(".", "")


@pytest.mark.parametrize("m0", [0, 5])
def test_romberg_bound_forms_the_weights_denominator(m0):
    # D = prod_{t=1..k} (4^t - 1), formed without the weights themselves
    base = 9 << 2 * m0
    for k in range(65):
        _, denom = polygons._romberg_weights(k)
        assert denom == math.prod(4**t - 1 for t in range(1, k + 1))
        span = (2 * k + 5) * (2 * k + 6)
        assert romberg_error_bound(m0, k) == Fraction(
            span * base << 6 * k + 11,
            base ** (k + 1) * denom * math.factorial(2 * k + 4) * (span * base - 64))


def test_romberg_order_search_matches_the_scan():
    orders = [polygons._romberg_order(count) for count in range(1, DEFAULT_DIGIT_CAP + 1)]
    assert orders == [scanned_romberg_order(count)
                      for count in range(1, DEFAULT_DIGIT_CAP + 1)]


def test_romberg_weights_are_the_lagrange_weights_at_zero():
    for k in range(8):
        weights, denom = polygons._romberg_weights(k)
        nodes = [Fraction(1, 4**i) for i in range(k + 1)]
        for i, weight in enumerate(weights):
            expected = Fraction(1)
            for l, node in enumerate(nodes):
                if l != i:
                    expected *= node / (node - nodes[i])
            assert Fraction(weight, denom) == expected
    # k = 1 is Huygens' (4 s_2N - s_N)/3
    assert polygons._romberg_weights(1) == ((-1, 4), 3)


def _machin_pi_bracket(count):
    """[t, t + 10^(1-count)] around pi, t its first ``count`` digits."""
    text = machin_pi_digits(count).replace(".", "")
    t = Fraction(int(text), 10 ** (count - 1))
    return t, t + Fraction(1, 10 ** (count - 1))


def _contains_pi_and_beats_archimedes(m0, k, prec):
    bracket = romberg_bounds(m0, k, prec)
    # 40 digits more than a prec-bit bracket can resolve
    below, above = _machin_pi_bracket(prec * 3 // 10 + 40)
    assert bracket.lo.as_fraction() <= below and above <= bracket.hi.as_fraction()
    archimedes = pi_bounds(RegularScheme(3, m0 + k), prec)
    # from k = 1 on, while Archimedes' bracket at the deepest edge is well
    # above the rounding floor (about 2^(9 - prec) here), the extrapolated
    # one is strictly narrower
    if k and archimedes.width() > Dyadic(1, 16 - prec):
        assert bracket.width() < archimedes.width()


def _huygens_samples():
    rng = random.Random(1654)
    corners = [(0, 64), (0, 1024), (60, 64), (60, 1024)]
    return corners + [(rng.randint(0, 60), rng.randint(64, 1024)) for _ in range(24)]


@pytest.mark.parametrize("m,prec", _huygens_samples())
def test_huygens_bounds_contain_pi_and_beat_archimedes(m, prec):
    # k = 1 is Huygens' extrapolation (4 s_2N - s_N)/3 with its bound
    _contains_pi_and_beats_archimedes(m, 1, prec)


def _romberg_samples():
    rng = random.Random(1655)
    corners = [(0, 0, 64), (0, 12, 1024), (8, 0, 64), (8, 12, 1024)]
    return corners + [
        (rng.randint(0, 8), rng.randint(0, 12), rng.randint(64, 1024))
        for _ in range(24)
    ]


@pytest.mark.parametrize("m0,k,prec", _romberg_samples())
def test_romberg_bounds_contain_pi_and_beat_archimedes(m0, k, prec):
    _contains_pi_and_beats_archimedes(m0, k, prec)


def _extrapolated(m0, k):
    """The unrounded extrapolation sum w_i s_i^2, at mpmath's precision."""
    weights, denom = polygons._romberg_weights(k)
    return mpmath.fsum(
        weight * (mpmath.mpf(3 << m0 + i) * mpmath.sin(mpmath.pi / (3 << m0 + i))) ** 2
        for i, weight in enumerate(weights)
    ) / denom


@pytest.mark.parametrize("m0", [0, 1, 3, 5, 8])
def test_romberg_error_is_within_its_bound(m0):
    # the unrounded extrapolation sum w_i s_i^2 against pi^2, both at 6000
    # bits, where rounding is far below every bound for k <= 8
    with mpmath.workprec(6000):
        pi_squared = mpmath.pi ** 2
        for k in range(9):
            total = _extrapolated(m0, k)
            bound = romberg_error_bound(m0, k)
            assert abs(total - pi_squared) <= mpmath.mpf(bound.numerator) / bound.denominator


@given(st.integers(0, 40), st.sampled_from((64, 65, 127, 1024, 2048)) | st.integers(64, 2048))
@example(0, 64)        # the exact seed s_0 = 1
@example(0, 2048)
@example(40, 2048)     # the deepest, at the most bits
@settings(max_examples=300, deadline=None)
def test_cosine_step_keeps_the_root_of_both_ends_in_its_ball(m, bits):
    # one step s -> sqrt(2 + s) of the chain's own ball: for s at either
    # end of the ball at depth m, sqrt(2 + s) lies within r' of S'
    (center, radius), (new_center, new_radius) = islice(polygons._cosine_chain(bits), m, m + 2)
    one = 1 << bits
    assert 0 <= radius <= 2 and new_center >= new_radius
    for end in (center - radius, center + radius):
        value = 2 + Fraction(end, one)
        assert Fraction(new_center - new_radius, one) ** 2 <= value
        assert value <= Fraction(new_center + new_radius, one) ** 2


def test_cosine_chain_and_its_nodes_enclose_the_exact_values():
    # s_m = 2 cos(pi/(3 2^m)) in every ball at G bits, and
    # Q_m = 4^(m+1) sin^2(pi/(3 2^m)) in every node bracket at F bits, with
    # the chain at G = F + 2 * 40 + 8 as _romberg_ends runs it to depth 40
    with mpmath.workprec(600):
        for bits in (64, 100, 512):
            for m, (center, radius) in enumerate(islice(polygons._cosine_chain(bits), 41)):
                exact = 2 * mpmath.cos(mpmath.pi / (3 << m))
                assert mpmath.ldexp(center - radius, -bits) <= exact
                assert exact <= mpmath.ldexp(center + radius, -bits)
            # node 0 reads s_(-1) = -1, so Q_0 = 3
            frac_bits, bits = bits, bits + 2 * 40 + 8
            for m, (lo, hi) in enumerate(islice(polygons._node_brackets(bits, frac_bits), 41)):
                exact = 4 ** (m + 1) * mpmath.sin(mpmath.pi / (3 << m)) ** 2
                assert mpmath.ldexp(lo, -frac_bits) <= exact <= mpmath.ldexp(hi, -frac_bits)
                assert hi - lo <= 2


@given(st.integers(0, 40), st.integers(64, 1024), st.integers(0, 90))
@example(0, 64, 0)      # s_(-1) = -1, no shift
@example(0, 64, 8)
@example(40, 64, 0)     # no shift: the radius shows unrounded
@example(40, 1024, 8)
@example(7, 100, 1)
@settings(max_examples=300, deadline=None)
def test_node_brackets_round_the_ball_outward(m, frac_bits, spare):
    # node m maps the ball of s_(m-1), with s_(-1) = -1 exactly, through
    # 4^m (2 - s) and rounds its two ends outward to 2^-F, in Fraction
    bits = frac_bits + 2 * m + spare
    nodes = list(polygons._node_brackets(bits, frac_bits))
    # one node for each m with G >= F + 2m
    assert len(nodes) == m + spare // 2 + 1
    lo, hi = nodes[m]
    center, radius = next(islice(polygons._cosine_chain(bits), m - 1, None)) if m else (-1 << bits, 0)
    scale = Fraction(4 ** m << frac_bits, 1 << bits)
    assert lo == math.floor(scale * ((2 << bits) - center - radius))
    assert hi == math.ceil(scale * ((2 << bits) - center + radius))


@pytest.mark.parametrize("m0", [0, 2, 5])
def test_romberg_ends_without_slack_enclose_the_extrapolation(m0):
    # with a zero bound the ends bracket the root of sum w_i s_i^2 itself,
    # so the weighted sum must take each node end by the sign of its weight
    with mpmath.workprec(3000):
        for k in range(13):
            total = _extrapolated(m0, k)
            for frac_bits in (64, 65, 100, 127, 256, 512):
                lo, hi = polygons._romberg_ends(m0, k, frac_bits, Fraction(0))
                assert mpmath.ldexp(lo, -frac_bits) ** 2 <= total
                assert total <= mpmath.ldexp(hi, -frac_bits) ** 2


def test_pi_digits_validation():
    with pytest.raises(ValueError):
        pi_digits(0)
    # a count past the cap is an input error, not a precision shortfall
    with pytest.raises(ValueError, match="above cap"):
        pi_digits(10_001)


def _kernel_calls(monkeypatch):
    """The digit counts' Romberg kernel calls, recorded as they are made."""
    calls = []
    kernel = polygons._romberg_ends

    def recording(m0, k, frac_bits, bound):
        calls.append(frac_bits)
        return kernel(m0, k, frac_bits, bound)

    monkeypatch.setattr(polygons, "_romberg_ends", recording)
    return calls


def test_every_shorter_count_is_a_prefix_of_the_kept_digits(monkeypatch, cold_digits):
    pi_digits(2000)
    calls = _kernel_calls(monkeypatch)
    reference = machin_pi_digits(2000)
    for count in range(1, 2001):
        assert pi_digits(count) == (reference[: count + 1] if count > 1 else "3"), count
    assert calls == []


def test_a_longer_count_computes_once_and_is_kept(monkeypatch, cold_digits):
    calls = _kernel_calls(monkeypatch)
    assert pi_digits(100) == machin_pi_digits(100) and len(calls) == 1
    assert pi_digits(300) == machin_pi_digits(300) and len(calls) == 2
    assert polygons._digit_string == machin_pi_digits(300).replace(".", "")
    for count in (300, 299, 100, 1):
        assert pi_digits(count) == machin_pi_digits(count)
    assert len(calls) == 2


def test_a_refinement_that_raises_keeps_nothing(monkeypatch, cold_digits):
    pi_digits(50)
    # ends one unit apart at every attempt: -1 and 0 never truncate alike;
    # the exact bounds of the high orders the retries reach are not needed
    monkeypatch.setattr(polygons, "_romberg_ends", lambda m0, k, frac_bits, bound: (-1, 0))
    monkeypatch.setattr(polygons, "romberg_error_bound", lambda m0, k: Fraction(0))
    with pytest.raises(IterationCapExceeded):
        pi_digits(100)
    assert polygons._digit_string == machin_pi_digits(50).replace(".", "")
    calls = _kernel_calls(monkeypatch)
    assert pi_digits(40) == machin_pi_digits(40) and calls == []
    # the real kernel, recorded
    monkeypatch.undo()
    calls = _kernel_calls(monkeypatch)
    assert pi_digits(100) == machin_pi_digits(100) and len(calls) == 1


def test_pi_digits_validation_on_a_warm_string(monkeypatch):
    pi_digits(2000)
    calls = _kernel_calls(monkeypatch)
    for count in (0, -1):
        with pytest.raises(ValueError, match="positive"):
            pi_digits(count)
    with pytest.raises(ValueError, match="above cap"):
        pi_digits(10_001)
    assert calls == []


def test_the_kept_digits_never_pass_the_cap(cold_digits):
    assert pi_digits(DEFAULT_DIGIT_CAP)[:2001] == machin_pi_digits(2000)
    with pytest.raises(ValueError, match="above cap"):
        pi_digits(DEFAULT_DIGIT_CAP + 1)
    assert len(polygons._digit_string) == DEFAULT_DIGIT_CAP


def test_precision_floor():
    with pytest.raises(ValueError):
        scheme_measures(RegularScheme(3, 1), 8)


def test_a_negative_refinement_depth_is_refused():
    with pytest.raises(ValueError, match="refinement depth must be nonnegative"):
        RegularScheme(6, -1)


@pytest.mark.parametrize("m0, k, prec, message", [
    (0, 1, 15, "precision must be at least 16 bits"),
    (-1, 1, 64, "depth and order must be nonnegative"),
    (0, -1, 64, "depth and order must be nonnegative"),
], ids=["precision", "depth", "order"])
def test_romberg_bounds_refuses_bad_arguments(m0, k, prec, message):
    with pytest.raises(ValueError, match=message):
        romberg_bounds(m0, k, prec)


def test_report_row_shape():
    row = scheme_measures(RegularScheme(4, 2), 64).report_row()
    assert row["n"] == 4 and row["m"] == 2 and row["precision"] == 64
    assert set(row) >= {"p_lo", "p_hi", "P_lo", "P_hi", "a_lo", "a_hi", "A_lo", "A_hi", "h_hi"}
    assert row["p_lo"] <= row["p_hi"]


@pytest.mark.parametrize("n", [3, 4, 6])
def test_edge_chain_matches_repeated_halving(n):
    ell = seed_edge(n, PREC)
    expected = [ell]
    for _ in range(12):
        ell = halve_edge(ell)
        expected.append(ell)
    chain = [ell for ell, _ in islice(edge_chain(n, PREC), 13)]

    def bits(e):
        return e.lo.man, e.lo.exp, e.hi.man, e.hi.exp, e.prec

    assert [bits(e) for e in chain] == [bits(e) for e in expected]


def test_high_precision_endpoints_are_pinned():
    # every mantissa and exponent of three pi brackets at 256-2048 bits and
    # of a 1024-bit hexagon edge chain, as the four-endpoint interval mul
    # and div gave them; the sign-table kernels must not move a single bit
    def bits(e):
        return e.lo.man, e.lo.exp, e.hi.man, e.hi.exp, e.prec

    parts = [bits(pi_bounds(RegularScheme(n, m), p))
             for n, m, p in [(3, 40, 256), (4, 200, 1024), (6, 700, 2048)]]
    parts += [bits(e) for e, _ in islice(edge_chain(6, 1024), 60)]
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == "d1ec9a1b58479d7332857e91fca8515204f686504c309cc8b5615f5d23ffc28e"
