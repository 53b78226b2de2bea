import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from archpi import circuits
from archpi.circuits import (
    MAX_RING_DEPTH,
    Circuit,
    CirclePoint,
    Rotation,
    _edge_terms,
    _refinement_for_cap,
    circuit_measures,
    distance,
    random_circuit,
    regular_ring,
    ring_walk,
    step_by_chord,
    tangent_intersection,
    lattice_ladder,
    unit_start,
    walk,
)
from archpi.dyadic import Dyadic
from archpi.errors import (
    SHORTFALLS,
    AntipodalTangents,
    InvalidChord,
    NegativeSqrt,
    PreconditionViolation,
)
from archpi.interval import Interval, Verdict, compare_certain
from archpi.polygons import pi_enclosure, seed_edge

from oracles import (contains, encloses, explicit_circuit_measures, interval_distance,
                     interval_tangent_meet, interval_weighted_sum, on_circle, per_draw_circuit)

PREC = 64


def test_unit_start_on_circle():
    p = unit_start(PREC)
    assert on_circle(p)
    assert encloses(p.x, 1) and encloses(p.y, 0)


def test_step_by_chord_hexagon_closes():
    edge = seed_edge(6, PREC)
    p = unit_start(PREC)
    for _ in range(6):
        p = step_by_chord(p, edge)
    assert encloses(p.x, 1) and encloses(p.y, 0)
    assert on_circle(p)


def test_step_chord_validation():
    with pytest.raises(InvalidChord):
        step_by_chord(unit_start(PREC), Interval.exact(2, PREC))


def test_long_chain_drift_stays_small():
    ring = regular_ring(10, PREC)  # 3072 steps
    last = ring[-1]
    assert on_circle(last)
    assert last.x.width() < Dyadic(1, -40)


def test_distance_symmetry_and_value():
    ring = regular_ring(1, PREC)  # hexagon
    d = distance(ring[0], ring[2])
    assert contains(d, "1.7320508075688772935274463415058723669428052538104")


def test_tangent_intersection_square():
    ring = regular_ring(2, PREC)  # 12-gon
    p, q = ring[0], ring[3]  # quarter turn apart
    tx, ty = tangent_intersection(p, q)
    assert encloses(tx, 1) and encloses(ty, 1)


def test_tangent_intersection_antipodal_raises():
    p = unit_start(PREC)
    q = type(p)(Interval.exact(-1, PREC), Interval.exact(0, PREC))
    with pytest.raises(AntipodalTangents):
        tangent_intersection(p, q)


PRECS = [16, 24, 64, 128]


def _exact_outcome(fn, p, q):
    """The bits of fn(p, q), or the type and message of what it raises."""
    try:
        value = fn(p, q)
    except (AntipodalTangents, NegativeSqrt) as exc:
        return type(exc), str(exc)
    values = value if isinstance(value, tuple) else (value,)
    return [_ibits(v) for v in values]


@st.composite
def circle_points(draw):
    """(x, +-sqrt(1 - x^2)) with its own precision per coordinate, maybe
    widened so its endpoints have unequal exponents."""
    x = Interval.from_fraction(draw(st.fractions(min_value=-1, max_value=1)),
                               draw(st.sampled_from(PRECS)))
    y = (1 - x * x).sqrt().with_prec(draw(st.sampled_from(PRECS)))
    if draw(st.booleans()):
        y = -y
    slack = draw(st.sampled_from([None, 12, 40]))
    if slack is not None:
        x = x.widen(Dyadic(3, -slack - 2))
        y = y.widen(Dyadic(1, -slack))
    return CirclePoint(x, y)


@st.composite
def point_pairs(draw):
    """p and q: q drawn freely, q near p (differences straddle zero), or q
    near -p (tangents near parallel)."""
    p = draw(circle_points())
    kind = draw(st.sampled_from(["free", "near", "antipodal"]))
    if kind == "free":
        return p, draw(circle_points())
    sign = 1 if kind == "near" else -1
    shift = [Dyadic(draw(st.integers(-8, 8)), -draw(st.integers(4, 40)))
             for _ in "xy"]
    prec = draw(st.sampled_from(PRECS))
    return p, CirclePoint((p.x * sign + shift[0]).with_prec(prec),
                          (p.y * sign + shift[1]).with_prec(prec))


@given(point_pairs())
@settings(max_examples=300, deadline=None)
def test_fused_distance_and_meet_match_the_interval_expressions(pair):
    p, q = pair
    assert _exact_outcome(distance, p, q) == _exact_outcome(interval_distance, p, q)
    assert _exact_outcome(tangent_intersection, p, q) == _exact_outcome(
        interval_tangent_meet, p, q)


def test_fused_distance_of_overlapping_points_raises_as_the_expression():
    # at 16 bits the neighbors 2^-15 apart overlap: both differences
    # straddle zero, and so does the sum of their squares
    start = CirclePoint(Interval.from_fraction(Fraction(3, 5), 16),
                        Interval.from_fraction(Fraction(4, 5), 16))
    near = step_by_chord(start, Interval.exact(Dyadic(1, -15), 16))
    for q in (start, near):
        expected = _exact_outcome(interval_distance, start, q)
        assert expected[0] is NegativeSqrt
        assert _exact_outcome(distance, start, q) == expected


@pytest.mark.parametrize("prec", [16, 64])
def test_fused_meet_of_antipodal_points_raises_as_the_expression(prec):
    p = CirclePoint(Interval.from_fraction(Fraction(3, 5), prec),
                    Interval.from_fraction(Fraction(4, 5), prec))
    for q in (CirclePoint(-p.x, -p.y), CirclePoint(-p.x, -p.y.widen(Dyadic(1, -20)))):
        expected = _exact_outcome(interval_tangent_meet, p, q)
        assert expected[0] is AntipodalTangents
        assert _exact_outcome(tangent_intersection, p, q) == expected


def test_circuit_construction_rules():
    with pytest.raises(PreconditionViolation):
        Circuit.from_regular_indices(1, [0, 1], PREC)
    with pytest.raises(PreconditionViolation):
        # arc of 3 of 6 steps = half circle
        Circuit.from_regular_indices(1, [0, 1, 3], PREC)


def test_square_circuit_measures():
    sq = Circuit.from_regular_indices(2, [0, 3, 6, 9], PREC)
    m = circuit_measures(sq)
    assert contains(m.perimeter_in, "5.6568542494923801952067548968387923142786875015078")
    assert encloses(m.perimeter_circ, 8)
    assert encloses(m.area_in, 2)
    assert encloses(m.area_circ, 4)
    assert contains(m.mesh, "1.4142135623730950488016887242096980785696718753769")


def test_hexagon_circuit_measures():
    hexa = Circuit.from_regular_indices(1, [0, 1, 2, 3, 4, 5], PREC)
    m = circuit_measures(hexa)
    assert encloses(m.perimeter_in, 6)
    assert encloses(m.mesh, 1) and encloses(m.min_edge, 1)
    assert contains(m.area_circ, "3.4641016151377545870548926830117447338560753926457")


def test_irregular_circuit_measures():
    # 12-gon vertices {0,2,5,8,10}: arcs 2,3,3,2,2 -> chords 1,sqrt2,sqrt2,1,1
    c = Circuit.from_regular_indices(2, [0, 2, 5, 8, 10], PREC)
    m = circuit_measures(c)
    assert contains(m.perimeter_in, "5.8284271247461900976033774484193961571393437507539")
    assert contains(m.mesh, "1.4142135623730950488016887242096980785696718753769")
    assert contains(m.min_edge, 1)


def test_generic_path_agrees_with_gap_path():
    fast = Circuit.from_regular_indices(3, [0, 2, 5, 9, 14, 20], PREC)
    mf, ms = circuit_measures(fast), explicit_circuit_measures(fast.vertices, PREC)
    for name in ("perimeter_in", "perimeter_circ", "area_in", "area_circ", "mesh", "min_edge"):
        assert getattr(mf, name).overlaps(getattr(ms, name)), name


def test_random_circuit_contract():
    cap = Interval.exact(Dyadic(1, -3), PREC)
    c = random_circuit(5, cap, seed=42, prec=PREC)
    assert len(c) >= 5
    m = circuit_measures(c)
    assert compare_certain(m.mesh, cap) is Verdict.CERTAINLY_LESS
    # determinism
    again = random_circuit(5, cap, seed=42, prec=PREC)
    assert [v.x.lo for v in c.vertices] == [v.x.lo for v in again.vertices]
    different = random_circuit(5, cap, seed=43, prec=PREC)
    assert len(different) != len(c) or any(
        v.x.lo != w.x.lo for v, w in zip(c.vertices, different.vertices)
    )


@pytest.mark.parametrize("gmax", [1, 2, 3, 4, 5, 7, 8, 9, 31, 64])
def test_gap_draws_are_the_randint_draws(gmax):
    for seed in (0, 1, 7, 42, 2**40 + 3):
        rng = random.Random(seed)
        expected = [rng.randint(1, gmax) for _ in range(300)]
        # chunks of 1, 7 and 1000 words read one stream of words
        draw = random.Random(seed).getrandbits
        draws = [g for words in (1, 7, 1000) for g in circuits._gap_draws(draw, gmax, words)]
        assert draws[:300] == expected


def test_refinement_gmax_fits_the_draw_tables():
    # _gap_draws reads one byte per try; the first depth with gmax >= 4
    # follows one with gmax <= 3, and a level deeper at most doubles gmax + 1
    ks = [*range(3, 64), 1000, 10**4, 10**5, 393_216]
    for prec in (16, 64):
        for cap_exp in range(21):
            cap = Interval.exact(Dyadic(1, -cap_exp), prec)
            for k in ks:
                try:
                    _, gmax = _refinement_for_cap(k, cap, prec)
                except PreconditionViolation:
                    continue
                assert 1 <= gmax <= 7, (k, cap_exp, prec)


_per_draw = lru_cache(maxsize=64)(per_draw_circuit)


def test_random_circuit_is_the_per_draw_loop():
    cases = [(k, cap_exp, seed, prec) for prec in (16, 64) for k in (3, 4, 7, 50, 1000)
             for cap_exp in range(1, 13) for seed in (0, 1, 2**40 + 3)]
    cases.append((200_000, 1, 5, PREC))   # a fallback depth, gmax 3
    for k, cap_exp, seed, prec in cases:
        cap = Interval.exact(Dyadic(1, -cap_exp), prec)
        m, gmax = _refinement_for_cap(k, cap, prec)
        circuit = random_circuit(k, cap, seed, prec)
        assert (circuit.ring_m, list(circuit.indices), circuit.gaps) == (
            m, *_per_draw(m, gmax, seed)), (k, cap_exp, seed, prec)


@pytest.mark.parametrize("k, cap_exp, depth, gmax", [
    (3, 15, 17, 1), (3, 16, 18, 1), (200_000, 1, 18, 3)])
def test_deepest_caps_fall_back_to_small_gaps(k, cap_exp, depth, gmax):
    # no depth up to the limit has gmax >= 4, but these depths carry the cap
    cap = Interval.exact(Dyadic(1, -cap_exp), PREC)
    assert _refinement_for_cap(k, cap, PREC) == (depth, gmax)
    circuit = random_circuit(k, cap, seed=1, prec=PREC)
    assert len(circuit) >= k and max(circuit.gaps) <= gmax
    m = circuit_measures(circuit)
    two_pi = pi_enclosure(PREC) * 2
    assert compare_certain(m.mesh, cap) is Verdict.CERTAINLY_LESS
    assert compare_certain(m.perimeter_in, two_pi) is Verdict.CERTAINLY_LESS
    assert compare_certain(two_pi, m.perimeter_circ) is Verdict.CERTAINLY_LESS


@pytest.mark.parametrize("prec", [16, 64])
def test_refinement_certifies_gmax_steps_under_a_cap_inside_the_hull(prec):
    # the cap sits at the upper end of ell*(g + 1), inside its hull: only
    # that upper end shows that g + 1 steps are not certainly under it
    chords = lattice_ladder(prec, MAX_RING_DEPTH)[0]
    for m in range(2, 15):
        for g in (4, 5, 6, 7):
            cap = Interval.exact((chords[m] * (g + 1)).hi, prec)
            depth, gmax = _refinement_for_cap(3, cap, prec)
            assert (chords[depth] * gmax).hi < cap.lo, (m, g)


def test_random_circuit_validation():
    cap = Interval.exact(1, PREC)
    with pytest.raises(PreconditionViolation):
        random_circuit(2, cap, seed=1, prec=PREC)
    with pytest.raises(PreconditionViolation):
        random_circuit(3, Interval.exact(0, PREC), seed=1, prec=PREC)


def test_sandwich_against_pi():
    pi = pi_enclosure(PREC)
    cap = Interval.exact(Dyadic(1, -5), PREC)
    m = circuit_measures(random_circuit(3, cap, seed=9, prec=PREC))
    assert compare_certain(m.perimeter_in, pi * 2) is Verdict.CERTAINLY_LESS
    assert compare_certain(pi * 2, m.perimeter_circ) is Verdict.CERTAINLY_LESS
    assert compare_certain(m.area_in, pi) is Verdict.CERTAINLY_LESS
    assert compare_certain(pi, m.area_circ) is Verdict.CERTAINLY_LESS


def test_monotone_comparison_between_circuits():
    # coarse circuit whose min edge certainly exceeds the fine circuit's mesh
    coarse = circuit_measures(Circuit.from_regular_indices(1, [0, 1, 2, 3, 4, 5], PREC))
    fine = circuit_measures(
        random_circuit(3, Interval.exact(Dyadic(1, -4), PREC), seed=3, prec=PREC)
    )
    assert compare_certain(fine.mesh, coarse.min_edge) is Verdict.CERTAINLY_LESS
    assert compare_certain(coarse.perimeter_in, fine.perimeter_in) is Verdict.CERTAINLY_LESS
    assert compare_certain(fine.perimeter_circ, coarse.perimeter_circ) is Verdict.CERTAINLY_LESS


def test_serialize_shape():
    m = circuit_measures(Circuit.from_regular_indices(1, [0, 1, 2, 3, 4, 5], PREC))
    out = m.serialize()
    assert set(out) == {
        "perimeter_in", "perimeter_circ", "area_in", "area_circ", "mesh", "min_edge",
    }
    assert out["perimeter_in"][0] <= out["perimeter_in"][1]


def _reference_step(p, c):
    """One chord step, recomputing cos and sin from the chord on every call."""
    c_sq = c * c
    cos_t = 1 - c_sq / 2
    sin_t = (c * (4 - c_sq).sqrt()) / 2
    return CirclePoint(p.x * cos_t - p.y * sin_t, p.x * sin_t + p.y * cos_t)


def _bits(p):
    return tuple((v.lo.man, v.lo.exp, v.hi.man, v.hi.exp, v.prec) for v in (p.x, p.y))


def _expression_step(rotation, p):
    """The rotation as the Interval expression it fuses."""
    return CirclePoint(
        p.x * rotation.cos - p.y * rotation.sin,
        p.x * rotation.sin + p.y * rotation.cos,
    )


def _assert_steps_match(rotation, expected):
    """``walk`` and each direct ``rotation`` call give ``expected``, bit for bit."""
    walked = list(walk(expected[0], rotation, len(expected) - 1))
    assert [_bits(p) for p in walked] == [_bits(p) for p in expected]
    for before, after in zip(expected, expected[1:]):
        assert _bits(rotation(before)) == _bits(after)


@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1999, 1000)),
    st.fractions(min_value=-1, max_value=1),
    st.fractions(min_value=-1, max_value=1),
    st.integers(min_value=16, max_value=128),
    st.sampled_from([16, 24, 64, 128]),
    st.sampled_from([16, 24, 64, 128]),
    st.sampled_from([None, 16, 40]),
    st.integers(min_value=0, max_value=24),
)
@settings(max_examples=60, deadline=None)
def test_walk_matches_stepwise_reference(chord, x, y, prec, x_prec, y_prec, slack, k):
    # the coordinates' precisions may differ from each other and from the
    # chord's, and a widened chord or point has endpoints of unequal exponents
    c = Interval.from_fraction(chord, prec)
    start = CirclePoint(Interval.from_fraction(x, x_prec),
                        Interval.from_fraction(y, y_prec))
    if slack is not None:
        c = c.widen(Dyadic(1, -slack))
        start = CirclePoint(start.x.widen(Dyadic(3, -slack - 2)),
                            start.y.widen(Dyadic(1, -slack)))
    expected = [start]
    for _ in range(k):
        expected.append(_reference_step(expected[-1], c))
    _assert_steps_match(Rotation.of_chord(c), expected)
    assert _bits(step_by_chord(start, c)) == _bits(_reference_step(start, c))


@pytest.mark.parametrize("prec", [16, 64, 200])
def test_fused_step_across_zero_matches_the_interval_expression(prec):
    # coordinates and cos/sin that straddle zero take the four-product
    # fallback of the interval product
    eps = Dyadic(1, -(prec // 2))
    around_zero = Interval.exact(0, prec).widen(eps)
    quarter = Rotation.of_chord(Interval.exact(2, prec).sqrt().widen(eps))
    assert quarter.cos.lo.sign < 0 < quarter.cos.hi.sign
    tilt = Rotation(Interval.exact(1, prec + 5) - eps, around_zero)
    points = [
        CirclePoint(around_zero, Interval.exact(1, prec)),
        CirclePoint(Interval.exact(-1, prec), around_zero),
        CirclePoint(around_zero, around_zero * 3),
        unit_start(prec + 7),
    ]
    for rotation in (quarter, tilt):
        for start in points:
            expected = [start]
            for _ in range(9):
                expected.append(_expression_step(rotation, expected[-1]))
            _assert_steps_match(rotation, expected)


def test_regular_ring_has_every_vertex():
    assert len(regular_ring(3, PREC)) == 24


@pytest.mark.parametrize("m", [-1, MAX_RING_DEPTH + 1])
def test_a_ring_depth_outside_the_ladder_is_rejected(m):
    message = f"ring depth must lie in 0..{MAX_RING_DEPTH}, got {m}"
    with pytest.raises(PreconditionViolation, match=message):
        ring_walk(m, PREC, 2)
    with pytest.raises(PreconditionViolation, match=message):
        regular_ring(m, PREC)


def test_the_ladder_ends_are_ring_depths():
    # the triangle, and the first step of the deepest ring
    triangle = [p.serialize() for p in regular_ring(0, PREC)]
    assert len(triangle) == 3
    assert triangle == [p.serialize() for p in ring_walk(0, PREC, 2)]
    start, step = ring_walk(MAX_RING_DEPTH, PREC, 1)
    assert start.serialize() == unit_start(PREC).serialize()
    assert step.serialize() == lattice_ladder(PREC, MAX_RING_DEPTH)[1][-1](start).serialize()


MEASURES = ("perimeter_in", "perimeter_circ", "area_in", "area_circ", "mesh", "min_edge")


def _ibits(x):
    return (x.lo.man, x.lo.exp, x.hi.man, x.hi.exp, x.prec)


def _reference_gap_measures(m, gaps, prec):
    """The gap path read off a whole materialized ring, as built before
    circuits kept only their gaps."""
    counts = Counter(gaps)
    ring = regular_ring(m, prec)
    chord_of = {g: distance(ring[0], ring[g]) for g in counts}
    chords = [chord_of[g] for g in counts]
    detours, areas = zip(*(_edge_terms(chord) for chord in chords))
    weights = list(counts.values())
    perim_in = interval_weighted_sum(chords, weights, prec)
    perim_circ = interval_weighted_sum(detours, weights, prec)
    area_in = interval_weighted_sum(areas, weights, prec)
    chords = [chord_of[min(counts)], chord_of[max(counts)]]
    mesh = Interval(max(c.lo for c in chords), max(c.hi for c in chords), prec)
    min_edge = Interval(min(c.lo for c in chords), min(c.hi for c in chords), prec)
    return perim_in, perim_circ, area_in, perim_circ / 2, mesh, min_edge


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SHORTFALLS as exc:
        return type(exc)


@st.composite
def ring_circuits(draw):
    m = draw(st.integers(min_value=0, max_value=8))
    n = 3 << m
    idx = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=3, max_size=48))
    prec = draw(st.sampled_from([16, 24, 64, 128]))
    return m, sorted(idx), prec


@given(ring_circuits())
@settings(max_examples=60, deadline=None)
def test_gap_measures_match_the_materialized_ring(case):
    m, idx, prec = case
    try:
        circuit = Circuit.from_regular_indices(m, idx, prec)
    except PreconditionViolation:
        assume(False)
    assert (circuit.ring_m, tuple(circuit.indices), len(circuit)) == (m, tuple(idx), len(idx))
    ring = regular_ring(m, prec)
    assert [_bits(p) for p in circuit.vertices] == [_bits(ring[i]) for i in idx]
    fast = _outcome(circuit_measures, circuit)
    reference = _outcome(_reference_gap_measures, m, circuit.gaps, prec)
    if isinstance(reference, type):
        assert fast is reference
        return
    assert [_ibits(getattr(fast, name)) for name in MEASURES] == [
        _ibits(x) for x in reference
    ]
    # the reference measures the same circuit edge by edge
    explicit = _outcome(explicit_circuit_measures, [ring[i] for i in idx], prec)
    if not isinstance(explicit, type):
        for name in MEASURES:
            assert getattr(explicit, name).overlaps(getattr(fast, name)), name


def test_ring_circuits_build_no_ring(monkeypatch):
    def no_ring(m, prec):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(circuits, "regular_ring", no_ring)
    cap = Interval.exact(Dyadic(1, -6), PREC)
    circuit = random_circuit(3, cap, seed=4, prec=PREC)
    assert len(circuit) == len(circuit.indices) > 3
    assert compare_certain(circuit_measures(circuit).mesh, cap) is Verdict.CERTAINLY_LESS
    assert len(circuit.vertices) == len(circuit)


@pytest.mark.parametrize("prec", [16, 64, 128])
def test_ladder_matches_the_edge_chain(prec):
    # the depths its two readers ask for: the rings and trig's bisection
    for depth in (MAX_RING_DEPTH, prec - 6):
        chords, rotations = lattice_ladder(prec, depth)
        assert len(chords) == len(rotations) == depth + 1
        assert lattice_ladder(prec, depth) is lattice_ladder(prec, depth)


def test_ring_depth_ceiling():
    with pytest.raises(PreconditionViolation, match="ring depth"):
        Circuit.from_regular_indices(MAX_RING_DEPTH + 1, [0, 1, 2], PREC)
    with pytest.raises(PreconditionViolation, match="--mesh-cap-exp"):
        _refinement_for_cap(3, Interval.exact(Dyadic(1, -40), PREC), PREC)
    with pytest.raises(PreconditionViolation, match="--points"):
        _refinement_for_cap(10**6, Interval.exact(Dyadic(1, -3), PREC), PREC)
    # the deepest cap the bench and the fixtures use stays well inside it
    m, gmax = _refinement_for_cap(3, Interval.exact(Dyadic(1, -9), PREC), PREC)
    assert (m, gmax) == (13, 7)


def _gap_max(m):
    """The largest gap a random circuit on ring m draws: at most 7, the
    depth search's bound, and under half the ring."""
    return min(7, ((3 << m) - 1) // 2)


@given(st.integers(min_value=32, max_value=256))
@settings(max_examples=12, deadline=None)
def test_gap_terms_are_read_off_one_walk(prec):
    # each kept term, and each formed on a miss, is the chord from (1, 0)
    # to the g-th point of one walk of the ring prefix, and its edge terms
    for m in range(MAX_RING_DEPTH + 1):
        prefix = list(ring_walk(m, prec, _gap_max(m)))
        for g in range(1, _gap_max(m) + 1):
            chord = distance(prefix[0], prefix[g])
            expected = [_ibits(x) for x in (chord, *_edge_terms(chord))]
            assert [_ibits(x) for x in circuits._gap_terms.__wrapped__(m, prec, g)] == expected
            assert [_ibits(x) for x in circuits._gap_terms(m, prec, g)] == expected


@st.composite
def weighted_terms(draw):
    """Terms of mixed sign and precision, counts from 0, and a sum precision."""
    terms, counts = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        ends = sorted(draw(st.fractions(min_value=-1000, max_value=1000, max_denominator=10**9))
                      for _ in range(2))
        terms.append(Interval.from_endpoints(*ends, draw(st.integers(min_value=2, max_value=160))))
        counts.append(draw(st.integers(min_value=0, max_value=10**6)))
    return terms, counts, draw(st.integers(min_value=2, max_value=128))


@given(weighted_terms())
@settings(max_examples=120, deadline=None)
def test_weighted_sum_is_the_interval_expression(case):
    terms, counts, prec = case
    assert _ibits(circuits._weighted_sum(terms, counts, prec)) == _ibits(
        interval_weighted_sum(terms, counts, prec))


def test_a_warm_circuit_walks_no_ring_and_searches_no_depth(monkeypatch, capsys):
    from archpi.cli import main

    args = ["circuit", "--mesh-cap-exp", "5"]
    assert main([*args, "--seed", "11"]) == 0
    capsys.readouterr()
    steps, ladders = [], []
    step, ladder = Rotation.__call__, circuits.lattice_ladder
    monkeypatch.setattr(Rotation, "__call__", lambda r, p: steps.append(p) or step(r, p))
    monkeypatch.setattr(circuits, "lattice_ladder", lambda *a: ladders.append(a) or ladder(*a))
    searched = circuits._ring_depth.cache_info().misses
    assert main([*args, "--seed", "12"]) == 0
    warm = capsys.readouterr().out
    assert (steps, ladders, circuits._ring_depth.cache_info().misses) == ([], [], searched)
    # and the kept terms give the bytes that a cold request forms
    monkeypatch.undo()
    circuits._gap_terms.cache_clear()
    circuits._ring_depth.cache_clear()
    assert main([*args, "--seed", "12"]) == 0
    assert capsys.readouterr().out == warm


@pytest.mark.parametrize("cap", [
    Interval(Dyadic(0), Dyadic(1, -3), PREC),
    Interval(Dyadic(-1, -3), Dyadic(1, -3), PREC),
    Interval.exact(Dyadic(-1, -2), PREC),
], ids=["zero", "straddling", "negative"])
def test_a_non_positive_cap_raises_on_every_call(cap):
    kept = circuits._ring_depth.cache_info().currsize
    for _ in range(3):
        with pytest.raises(PreconditionViolation, match="certifiably positive"):
            _refinement_for_cap(3, cap, PREC)
        with pytest.raises(PreconditionViolation, match="certifiably positive"):
            random_circuit(3, cap, seed=1, prec=PREC)
    assert circuits._ring_depth.cache_info().currsize == kept


def test_a_cap_no_depth_supports_is_kept_nowhere():
    cap = Interval.exact(Dyadic(1, -40), PREC)
    kept = circuits._ring_depth.cache_info().currsize
    for _ in range(2):
        with pytest.raises(PreconditionViolation, match="--mesh-cap-exp"):
            _refinement_for_cap(3, cap, PREC)
    assert circuits._ring_depth.cache_info().currsize == kept
