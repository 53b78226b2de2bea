"""Bit-identity of the fused circle-walk kernels against the ``Interval``
expressions they replace, kept in ``oracles.py``: the chord kernel
``polygons._chord_root`` and its readers, ``trig._lattice_verdict`` and
``rational._crossings``.  Identity is mantissa, exponent and precision of
every endpoint, or the same error with the same message.
"""

import contextlib
import io
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from archpi import circuits, polygons, rational
from archpi.circuits import MAX_RING_DEPTH, Rotation, _ball_walk, _edge_terms, lattice_ladder
from archpi.cli import main
from archpi.dyadic import Dyadic, _rounded
from archpi.errors import AmbiguousCrossing, ArchpiError, InvalidChord
from archpi.interval import Interval, Verdict
from archpi.polygons import (RegularScheme, SchemeMeasures, _chord_root, _measures_from_edge,
                             circumscribed_edge, halve_edge, iter_scheme_measures,
                             pi_enclosure, require_chord)
from archpi.rational import RationalLength, _crossings, coprime_pairs, realize_rational
from archpi.trig import _lattice_verdict

from oracles import (interval_chord_root, interval_circumscribed_edge, interval_edge_terms,
                     interval_halve_edge, interval_ladder, interval_lattice_verdict,
                     interval_rotation, interval_scheme_measures, unfiltered_crossings)


def _bits(value):
    if isinstance(value, Interval):
        return (value.lo.man, value.lo.exp, value.hi.man, value.hi.exp, value.prec)
    if isinstance(value, Rotation):
        return _bits(value.cos), _bits(value.sin)
    if isinstance(value, SchemeMeasures):
        return tuple(_bits(getattr(value, f.name)) for f in fields(value) if f.name != "scheme")
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _outcome(fn, *args):
    """The bits of ``fn(*args)``, or the error it raises and its message."""
    try:
        return _bits(fn(*args))
    except ArchpiError as exc:
        return type(exc).__name__, str(exc)


# -- the chord kernel ----------------------------------------------------------


@st.composite
def chords(draw):
    """A chord enclosure near 0, near 2 or between, at 16-256 bits.  Its
    endpoints may carry more or fewer bits than its precision, it may be
    widened, and near 0 or 2 it may leave (0, 2)."""
    prec = draw(st.sampled_from([16, 24, 53, 64, 113, 256]))
    end_prec = draw(st.sampled_from([prec, prec - 5, prec + 9, 2 * prec]))
    place = draw(st.sampled_from(["near 0", "near 2", "between"]))
    if place == "between":
        value = Fraction(draw(st.integers(1, 2**16 - 1)), 2**15)
    else:
        tiny = Fraction(draw(st.integers(1, 2**16)), 2**16 << draw(st.integers(1, prec + 12)))
        value = tiny if place == "near 0" else 2 - tiny
    width = Fraction(draw(st.integers(0, 8)), 1 << draw(st.integers(prec // 2, 2 * prec)))
    c = Interval(Dyadic.from_fraction(value, end_prec, up=False),
                 Dyadic.from_fraction(value + width, end_prec, up=True), prec)
    if draw(st.booleans()):
        c = c.widen(Dyadic(1, -draw(st.integers(prec // 2, 2 * prec))))
    return c


#: a chord past 2 (NegativeSqrt where nothing checks it), one just under 2
#: whose root's lower end is 0, and one straddling 0
_EDGE_CHORDS = [
    Interval(Dyadic(1), Dyadic(5, -1), 16),
    Interval(Dyadic(3, -1), Dyadic((1 << 40) - 1, -39), 16),
    Interval(Dyadic(-1, -20), Dyadic(1, -3), 24),
]


def _kernel(c):
    """``_chord_root(c)`` as (c*c, root), its raw ends of c*c made Dyadic."""
    lm, le, hm, he, root = _chord_root(c)
    p = c.prec
    return Interval(_rounded(lm, le, p, False), _rounded(hm, he, p, True), p), root


@given(chords())
@example(_EDGE_CHORDS[0])
@example(_EDGE_CHORDS[1])
@example(_EDGE_CHORDS[2])
@settings(max_examples=300, deadline=None)
def test_chord_root_is_the_interval_expression(c):
    # c*c rounded once, then (4 - c*c).sqrt(), on any enclosure
    assert _outcome(_kernel, c) == _outcome(interval_chord_root, c)


def _chain_measures(c):
    """``_measures_from_edge`` as ``edge_chain`` feeds it: c checked, then
    its root formed."""
    require_chord(c, "chord")
    return _measures_from_edge(RegularScheme(3, 4), c, _chord_root(c)[4])


@pytest.mark.parametrize("fused, expression", [
    (Rotation.of_chord, interval_rotation),
    (halve_edge, interval_halve_edge),
    (circumscribed_edge, interval_circumscribed_edge),
    (_chain_measures, lambda c: interval_scheme_measures(RegularScheme(3, 4), c)),
], ids=["of_chord", "halve_edge", "circumscribed_edge", "measures_from_edge"])
@given(c=chords())
@example(c=_EDGE_CHORDS[0])
@example(c=_EDGE_CHORDS[1])
@example(c=_EDGE_CHORDS[2])
@settings(max_examples=150, deadline=None)
def test_chord_readers_are_the_interval_expressions(fused, expression, c):
    assert _outcome(fused, c) == _outcome(expression, c)


@given(c=chords())
@example(c=_EDGE_CHORDS[0])
@example(c=_EDGE_CHORDS[1])
@settings(max_examples=150, deadline=None)
def test_edge_terms_are_the_interval_expressions(c):
    # _edge_terms checks no chord: past 2 its root is a NegativeSqrt, and
    # just under 2 its detour divides by a root whose lower end is 0
    assert _outcome(_edge_terms, c) == _outcome(interval_edge_terms, c)


@pytest.mark.parametrize("c, fused, error", [
    (_EDGE_CHORDS[0], Rotation.of_chord, "InvalidChord"),
    (_EDGE_CHORDS[0], _edge_terms, "NegativeSqrt"),
    (_EDGE_CHORDS[0], _chord_root, "NegativeSqrt"),
    (_EDGE_CHORDS[1], circumscribed_edge, "DivByZeroInterval"),
    (_EDGE_CHORDS[2], halve_edge, "InvalidChord"),
])
def test_chord_error_paths_are_reached(c, fused, error):
    # the explicit examples above take each error path, fused and expression alike
    assert _outcome(fused, c)[0] == error


@pytest.mark.parametrize("prec", [16, 64, 128, 256])
def test_ladder_is_the_interval_ladder(prec):
    # at the depths its two readers ask for: the rings and trig's bisection
    for depth in (MAX_RING_DEPTH, prec - 6):
        chords, rotations = lattice_ladder(prec, depth)
        expected = interval_ladder(prec, len(chords))
        assert (_bits(chords), _bits(rotations)) == (_bits(expected[0]), _bits(expected[1]))


def _counted_roots(monkeypatch):
    """A list that grows by one for each ``polygons._chord_root`` call."""
    calls, real = [], polygons._chord_root

    def counting(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(polygons, "_chord_root", counting)
    return calls


@pytest.mark.parametrize("n, m_max", [(3, 0), (4, 5), (6, 12)])
def test_scheme_measures_form_one_root_per_level(n, m_max, monkeypatch):
    # each level's root serves its measures and the next level's halving
    calls = _counted_roots(monkeypatch)
    assert len(list(iter_scheme_measures(n, m_max, 64))) == m_max + 1
    assert len(calls) == m_max + 1


def test_ladder_forms_one_root_per_level(monkeypatch):
    # past the cache, so the ladder is built here whatever ran before
    calls = _counted_roots(monkeypatch)
    chords, _ = lattice_ladder.__wrapped__(77, 77 - 6)
    assert len(calls) == len(chords)


@pytest.mark.parametrize("prec", [16, 20, 64])
def test_rational_length_keeps_the_chords_rotation_and_root(prec):
    for k, N in coprime_pairs(24):
        try:
            r = realize_rational(k, N, prec)
        except ArchpiError:
            continue
        assert _outcome(lambda: r.rotation) == _outcome(interval_rotation, r.chord)
        # a fresh length, not the cached pair's kept one
        assert _outcome(lambda: RationalLength(k, N, r.chord).circumscribed) == _outcome(
            lambda c: (interval_circumscribed_edge(c) * N) / k, r.chord)


def test_a_rational_sweep_forms_each_pairs_root_once(monkeypatch, cold_rational):
    # the per-pair checks, the winding and both modes' orderings all read
    # the one root each RationalLength keeps
    formed = {}

    def counting(c):
        formed[_bits(c)] = formed.get(_bits(c), 0) + 1
        return _chord_root(c)

    for module in (polygons, circuits, rational):
        monkeypatch.setattr(module, "_chord_root", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "rational", "--max-n", "12"]) == 0
    pairs = coprime_pairs(12)
    assert [formed.get(_bits(realize_rational(k, N, 64).chord)) for k, N in pairs] == [
        1] * len(pairs)


# -- the lattice test of geometric_point ---------------------------------------


def _lattice_thetas(boundary, steps):
    """Thetas around ``boundary``: its ends moved by ``steps`` quarters of
    its width (at least one unit of its last place), so that many overlap
    it and many do not."""
    quarter = max(boundary.width().as_fraction() / 4,
                  Fraction(1, 1 << -min(boundary.lo.exp, boundary.hi.exp)))
    lo, hi = boundary.lo.as_fraction(), boundary.hi.as_fraction()
    for a, b in steps:
        yield Interval.from_endpoints(lo + a * quarter, max(lo + a * quarter, hi + b * quarter),
                                      boundary.prec)


@pytest.mark.parametrize("prec", [16, 32, 64, 256])
def test_lattice_verdict_is_the_interval_test_on_every_level(prec):
    two_pi = pi_enclosure(prec) * 2
    seen = set()
    for level in range(prec - 5):
        for count in sorted({1, 2, 3, (3 << level) - 1, (5 << level) // 3}):
            boundary = (two_pi * count) / (3 << level)
            for theta in _lattice_thetas(boundary, [(-9, -8), (-1, 0), (0, 0), (1, 2), (8, 9),
                                                    (4, -4), (-6, 6)]):
                verdict = _lattice_verdict(theta, two_pi, count, level)
                assert verdict is interval_lattice_verdict(theta, two_pi, count, level)
                seen.add(verdict)
    assert seen == set(Verdict)


@given(st.sampled_from([16, 32, 64, 256]), st.data())
@settings(max_examples=200, deadline=None)
def test_lattice_verdict_is_the_interval_test(prec, data):
    level = data.draw(st.integers(0, prec - 6))
    count = data.draw(st.integers(1, 3 << level))
    two_pi = pi_enclosure(prec) * 2
    boundary = (two_pi * count) / (3 << level)
    a = data.draw(st.integers(-12, 12))
    (theta,) = _lattice_thetas(boundary, [(a, a + data.draw(st.integers(-4, 12)))])
    assert _lattice_verdict(theta, two_pi, count, level) is (
        interval_lattice_verdict(theta, two_pi, count, level))


# -- the crossing scan of winding_count ----------------------------------------


@pytest.mark.parametrize("prec", [16, 20, 64])
def test_crossing_scan_is_the_unfiltered_sum(prec):
    # on the whole chord enclosure of every pair and on its two halves:
    # the same count, or both raise AmbiguousCrossing
    ambiguous = 0
    for k, N in coprime_pairs(24):
        try:
            chord = realize_rational(k, N, prec).chord
        except ArchpiError:
            continue
        mid = chord.mid()
        for piece in (chord, Interval(chord.lo, mid, prec), Interval(mid, chord.hi, prec)):
            try:
                rotation = Rotation.of_chord(piece)
            except InvalidChord:
                continue
            balls = list(_ball_walk(rotation, N, prec))[:-1]
            got = _outcome(_crossings, balls, prec)
            assert got == _outcome(unfiltered_crossings, balls, prec), (k, N, piece)
            ambiguous += isinstance(got, tuple) and got[0] == AmbiguousCrossing.__name__
    assert (ambiguous > 0) is (prec < 64)
