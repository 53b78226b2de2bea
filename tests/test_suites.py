import concurrent.futures
import hashlib
import json
import os

import pytest

from archpi import chords, circuits, polygons, rational, suites
from archpi.cli import main
from archpi.dyadic import Dyadic
from archpi.errors import AmbiguousCrossing, DivByZeroInterval, HypothesisUnordered
from archpi.interval import Verdict
from archpi.rational import realize_rational
from archpi.suites import SUITES, SuiteResult, checked, run_suite

from oracles import suite_passed, two_path_winding

LESS = Verdict.CERTAINLY_LESS
GREATER = Verdict.CERTAINLY_GREATER
OVERLAP = Verdict.OVERLAP


def test_registry_covers_expected_names():
    assert set(SUITES) == {
        "monotone",
        "bounds",
        "identities",
        "h-ratio",
        "chord-compare",
        "tangent-compare",
        "projections",
        "tangent-profile",
        "rational",
        "circuit-sandwich",
        "area-sandwich",
        "trig-sandwich",
    }


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nope")


def test_monotone_small_grid():
    res = run_suite("monotone", m_max=4, precision=64)
    assert suite_passed(res)
    assert res.samples == 3 * 5 * 4
    assert all(row["status"] == "ok" for row in res.rows)


def test_h_ratio_rows_carry_ratio():
    res = run_suite("h-ratio", m_max=3, precision=64)
    assert suite_passed(res)
    assert all("ratio" in row for row in res.rows)


def test_randomized_suites_deterministic():
    a = run_suite("chord-compare", samples=5, seed=9, precision=64)
    b = run_suite("chord-compare", samples=5, seed=9, precision=64)
    assert a.rows == b.rows
    c = run_suite("chord-compare", samples=5, seed=10, precision=64)
    assert a.rows != c.rows


def test_jobs_match_serial():
    serial = run_suite("tangent-compare", samples=6, seed=4, precision=64, jobs=1)
    parallel = run_suite("tangent-compare", samples=6, seed=4, precision=64, jobs=2)
    assert serial.rows == parallel.rows
    assert suite_passed(serial) and suite_passed(parallel)


def test_projection_suite_small():
    res = run_suite("projections", samples=6, seed=2, precision=64)
    assert suite_passed(res)
    checks = {row["check"] for row in res.rows}
    assert {"symmetric", "sum-encloses-chord"} <= checks


def test_rational_suite_small():
    res = run_suite("rational", max_n=8, precision=64)
    assert suite_passed(res)
    assert any(row.get("mode") == "circumscribed" for row in res.rows)
    assert all(
        row["winding_checked"] for row in res.rows if "winding_checked" in row
    )


def test_circuit_suite_small():
    res = run_suite(
        "circuit-sandwich", circuits_per_cap=2, cap_exps=(1, 2, 3), seed=5
    )
    assert suite_passed(res)
    gap_rows = [r for r in res.rows if r.get("check") == "worst-gap-nonincreasing"]
    assert len(gap_rows) == 2


def test_trig_suite_small():
    res = run_suite("trig-sandwich", k_max=4)
    assert suite_passed(res)
    assert res.samples == 4


def test_identities_catch_a_wrong_halving(monkeypatch):
    # a_2N and p_N/2 come from successive edges of the chain, so an edge
    # halved 2^-40 too long separates them; A_N and a_N*4/(4 - ell_N^2)
    # share one edge and still agree
    real = polygons._halved
    monkeypatch.setattr(polygons, "_halved",
                        lambda ell, root: real(ell, root) * Dyadic(2**40 + 1, -40))
    res = run_suite("identities", m_max=3, precision=64)
    status = {}
    for row in res.rows:
        if "identity" in row:
            status.setdefault(row["identity"], set()).add(row["status"])
    assert status == {"a": {"violated"}, "A": {"ok"}}


def test_identities_too_wide_to_confirm_exit_3(capsys):
    # past m = 64 at 256 bits the two sides of an identity outgrow the
    # width cap but still overlap: inconclusive rows, not violations
    assert main(["verify", "identities", "--m-max", "100", "--format", "json"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert (report["violations"], report["inconclusive"]) == (0, 180)
    wide = [row for row in report["rows"] if row["status"] != "ok"]
    assert (wide[0]["n"], wide[0]["m"], wide[0]["identity"]) == (3, 65, "a")
    assert all(row["status"] == "inconclusive" and row["width_ok"] is False
               and row["verdict"] == "overlap" for row in wide)


def test_check_overlap_wins_over_failure():
    row = checked({}, (LESS, GREATER), (LESS, OVERLAP), False)
    assert row["status"] == "inconclusive"
    res = SuiteResult("t", [row])
    assert (res.violations, res.inconclusive) == (0, 1)


def test_check_false_predicate_violates():
    res = SuiteResult("t", [checked({}, (LESS, LESS), False), checked({}, True)])
    assert [row["status"] for row in res.rows] == ["violated", "ok"]
    assert [row["verdict"] for row in res.rows] == ["fails", "holds"]
    assert (res.violations, res.inconclusive) == (1, 0)


def test_check_single_comparison_reports_its_verdict():
    rows = [
        checked({"x": 1}, (LESS, LESS)),
        checked({"x": 2}, (LESS, GREATER)),
        checked({"x": 3}, (GREATER, OVERLAP)),
    ]
    assert rows == [
        {"x": 1, "verdict": "certainly_less", "status": "ok"},
        {"x": 2, "verdict": "certainly_greater", "status": "violated"},
        {"x": 3, "verdict": "overlap", "status": "inconclusive"},
    ]


@pytest.mark.parametrize("jobs", [1, 2])
def test_shortfall_is_one_inconclusive_row(jobs):
    # at 16 bits a squared distance between the first sample's tangent
    # meets straddles zero; the other two samples still run, and their four
    # rows pass
    res = run_suite("tangent-profile", samples=3, precision=16, jobs=jobs)
    first, *rest = res.rows
    assert first == {
        "suite": "tangent-profile",
        "sample_seed": suites._sample_seed(suites.DEFAULT_SEED, 0),
        "precision": 16,
        "error": "NegativeSqrt",
        "message": first["message"],
        "verdict": "shortfall",
        "status": "inconclusive",
    }
    assert first["message"].startswith("sqrt of Interval(")
    assert [row["status"] for row in rest] == ["ok"] * 4
    assert (res.samples, res.violations, res.inconclusive) == (5, 0, 1)


def test_compare_escalates_on_a_shortfall():
    # at 16 bits the tangent meets of 33 of these samples fall short; the
    # comparison doubles its precision, as on an overlap, and settles
    res = run_suite("tangent-compare", samples=40, seed=7, precision=16)
    assert (res.samples, res.violations, res.inconclusive) == (40, 0, 0)
    assert max(row["precision_used"] for row in res.rows) == 32


def test_chord_compare_at_16_bits_does_not_fall_short():
    # chord-compare reads two chords of the partition and no tangent
    # segment, and an escalation lifts the arc with the precision, so no
    # sample falls short on geometry the comparison never uses
    res = run_suite("chord-compare", samples=200, seed=1, precision=16)
    assert (res.samples, res.violations, res.inconclusive) == (200, 0, 0)


def test_trig_sandwich_skips_the_decrease_after_a_shortfall(monkeypatch):
    real = suites.sandwich_report

    def short_at_k3(theta, prec):
        if theta.lo == Dyadic(1, -3):
            raise DivByZeroInterval("division by an interval around zero")
        return real(theta, prec)

    monkeypatch.setattr(suites, "sandwich_report", short_at_k3)
    res = run_suite("trig-sandwich", k_max=5)
    assert [row["status"] for row in res.rows] == [
        "ok", "ok", "inconclusive", "ok", "ok"]
    assert res.rows[2] == {
        "suite": "trig-sandwich", "k": 3, "precision": 128,
        "error": "DivByZeroInterval", "message": "division by an interval around zero",
        "verdict": "shortfall", "status": "inconclusive",
    }
    assert res.rows[3]["decrease"] == "skipped: k 3 fell short"
    assert [("decrease" in row) for row in res.rows] == [False, False, False, True, False]
    # without the decrease check k = 4 has three checks, k = 5 four: both hold
    assert res.rows[3]["verdict"] == res.rows[4]["verdict"] == "holds"


def test_rational_shortfall_is_one_row_per_pair(monkeypatch, cold_rational):
    real = rational.winding_count

    def short_at_2_7(r):
        if (r.k, r.N) == (2, 7):
            raise AmbiguousCrossing("ambiguous crossing test; raise precision")
        return real(r)

    def unordered(a, b, mode):
        raise HypothesisUnordered("chords cannot be certifiably ordered")

    monkeypatch.setattr(rational, "winding_count", short_at_2_7)
    res = run_suite("rational", max_n=7)
    short = [row for row in res.rows if row["status"] == "inconclusive"]
    assert short == [{
        "suite": "rational", "k": 2, "N": 7, "precision": 64,
        "error": "AmbiguousCrossing",
        "message": "ambiguous crossing test; raise precision",
        "verdict": "shortfall", "status": "inconclusive",
    }]
    # (2, 7) was realized, so it still takes part in the ordering
    ordered = [row for row in res.rows if "mode" in row]
    assert len(ordered) == 2 * (8 - 1)
    assert sum([2, 7] in row["pair"] for row in ordered) == 4
    monkeypatch.setattr(suites, "normalized_compare", unordered)
    res = run_suite("rational", max_n=5)
    assert [row["error"] for row in res.rows if "mode" in row] == ["HypothesisUnordered"] * 6
    assert res.inconclusive == 6


def test_samples_is_row_count():
    assert SuiteResult("t", []).samples == 0
    assert SuiteResult("t", [checked({}, True)] * 3).samples == 3
    for name, kwargs in [
        ("identities", {"m_max": 2, "limit_m": 4, "precision": 64}),
        ("projections", {"samples": 2, "seed": 3}),
        ("rational", {"max_n": 6}),
        ("area-sandwich", {"circuits_per_cap": 1, "cap_exps": (1, 2)}),
    ]:
        res = run_suite(name, **kwargs)
        assert res.samples == len(res.rows) > 0


def test_run_suite_rejects_unknown_keyword():
    with pytest.raises(TypeError):
        run_suite("monotone", m_maxx=1)
    with pytest.raises(TypeError):
        run_suite("monotone", samples=5)


@pytest.mark.parametrize(
    "name, kwargs",
    [
        ("chord-compare", {"samples": -1}),
        ("circuit-sandwich", {"circuits_per_cap": 0}),
        ("trig-sandwich", {"k_max": 0}),
        ("bounds", {"m_max": -1}),
        ("rational", {"max_n": 2}),
    ],
)
def test_run_suite_rejects_sizes_without_checks(name, kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        run_suite(name, **kwargs)


@pytest.mark.parametrize("name, key", [
    ("chord-compare", "samples"),
    ("circuit-sandwich", "circuits_per_cap"),
    ("trig-sandwich", "k_max"),
    ("bounds", "m_max"),
    ("rational", "max_n"),
])
def test_run_suite_rejects_sizes_above_their_ceiling(name, key, monkeypatch):
    # the suite is a stub: no size near a ceiling runs here
    calls = []
    monkeypatch.setitem(SUITES, name, lambda **kwargs: calls.append(kwargs) or iter(()))
    ceiling = suites.MOST[key]
    with pytest.raises(ValueError, match=f"{key} must be at most {ceiling}, got {ceiling + 1}"):
        run_suite(name, **{key: ceiling + 1})
    assert calls == []
    run_suite(name, **{key: ceiling})
    assert calls == [{key: ceiling}]


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of each pool a suite makes; no process starts."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args, chunksize=1):
            return map(fn, args)

    # suites imports the pool class when it makes a pool, from this module
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return made


@pytest.mark.parametrize("jobs", [0, -1, 257])
def test_run_suite_rejects_jobs_out_of_range(jobs, pools):
    with pytest.raises(ValueError, match="jobs"):
        run_suite("chord-compare", samples=1, jobs=jobs)
    assert pools == []


@pytest.mark.parametrize("source", ["--jobs", "ARCHPI_JOBS"])
@pytest.mark.parametrize("value", ["0", "-1", "257"])
def test_jobs_out_of_range_exit_2_before_any_worker(source, value, pools,
                                                    monkeypatch, capsys):
    argv = ["verify", "chord-compare", "--samples", "1"]
    if source == "--jobs":
        argv += ["--jobs", value]
    else:
        monkeypatch.setenv("ARCHPI_JOBS", value)
    assert main(argv) == 2
    assert source in capsys.readouterr().err
    assert pools == []


@pytest.mark.parametrize("jobs, samples, cpus, workers", [
    (8, 3, 16, [3]),     # one worker per sample
    (8, 5, 2, [2]),      # one worker per CPU
    (8, 5, 1, []),       # one CPU: serial, no pool
    (8, 5, None, []),    # CPU count unknown: serial
])
def test_jobs_start_at_most_one_worker_per_sample_and_cpu(
        jobs, samples, cpus, workers, pools, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    serial = run_suite("tangent-compare", samples=samples, seed=4, precision=64)
    clamped = run_suite("tangent-compare", samples=samples, seed=4, precision=64,
                        jobs=jobs)
    assert pools == workers
    assert clamped.rows == serial.rows


def test_rational_overlap_is_inconclusive(monkeypatch):
    monkeypatch.setattr(suites, "compare_certain", lambda a, b: OVERLAP)
    res = run_suite("rational", max_n=5)
    pair_rows = [row for row in res.rows if "winding_checked" in row]
    assert [row["status"] for row in pair_rows] == ["inconclusive"] * 4
    assert res.violations == 0 and res.inconclusive == 4


def test_projection_symmetry_is_checked_from_the_points(monkeypatch):
    real = suites._partition

    def skewed(arc, n, prec):
        # move P_2 onto P_3: the first gap spans two steps and the second
        # none, so neither is the mirror of its partner
        step, points = real(arc, n, prec)
        return step, [points[0], points[2], *points[2:]]

    monkeypatch.setattr(suites, "_partition", skewed)
    res = run_suite("projections", samples=2, seed=2)
    symmetric = [row for row in res.rows if row["check"] == "symmetric"]
    assert [row["status"] for row in symmetric] == ["violated"] * 2


def test_projections_build_no_tangent_meet(monkeypatch):
    # the suite reads the points, the full chord and the gaps alone
    calls = []
    for module in (chords, circuits):
        def counted(p, q, real=module.tangent_intersection):
            calls.append((p, q))
            return real(p, q)

        monkeypatch.setattr(module, "tangent_intersection", counted)
    assert run_suite("projections", samples=20).violations == 0
    assert calls == []


#: sha256 of ``archpi … --format json`` output, pinned before the suites
#: moved to one check path (the first six) and before the stepping and
#: halving loops moved onto ``walk`` and ``edge_chain`` (the rest)
PINNED_REPORTS = [
    (["verify", "monotone", "--m-max", "3"],
     "500fc183c283840e53fcf3c6478b0482a17602397ac9814e848393e43f870bec"),
    (["verify", "bounds", "--m-max", "3"],
     "d4b7d2e346d00a1acb43b695a9fe51703249d1f2ff90e19f5b3477373aeb4c28"),
    (["verify", "h-ratio", "--m-max", "3"],
     "7977b4028dc3d4954d1e49a883f52f0779665ebf77000d9ee4a75a57fe214697"),
    (["verify", "chord-compare", "--samples", "5", "--seed", "3"],
     "c95ceeb69ad53f327e176a2a2052453d0ce904e4f6b98f9ef3d2ecab88afb225"),
    (["verify", "tangent-compare", "--samples", "5", "--seed", "3"],
     "8168b2649825bac4c338258168f74bb317299da70ec464a9fcdced735839baea"),
    (["verify", "tangent-profile", "--samples", "5", "--seed", "2"],
     "69a24e229b21adf68967fcdc4c43f83b9e3f17cf35118593fe538323b1be79c9"),
    (["circuit", "--points", "6", "--mesh-cap-exp", "4", "--seed", "5", "--include-points"],
     "0b5fb1efa3ffda21a4830d895e7fcfa82750489c2dc76b2d939bb5168e8dfb3a"),
    (["trig"],
     "bfb0c9da3bffa3499636d175dc2f5ff89f3e8166426ddf8264f0c6dbea3d137a"),
    (["sweep-rational", "--max-n", "14"],
     "02b057f12b913aab27079335bce2d567dd05fd1f383bf137ebcf6c6dca001c46"),
    (["archimedes"],
     "5f68f3c217335a882db6e6f424601162c00b4d40b9fb6f731fdf91814a6dd86e"),
    (["verify", "rational", "--max-n", "10"],
     "5e41ba58abb4e76826ac8c104000193a3f8c4a0c6453eac9bee084501147b1d7"),
    (["verify", "trig-sandwich", "--k-max", "4"],
     "5f7fbadbcb2d76384ede53de14d3f86e3747d1a5e8488c04a214f2ddc23265cf"),
    (["verify", "projections", "--samples", "3", "--seed", "2"],
     "59aa3f2ba5462fc52241189f334a4b4ea247085a106154eac680ceace0377aab"),
    (["verify", "circuit-sandwich", "--circuits-per-cap", "1"],
     "76c822fe48a0552480825c3121d2181676ba8a52d20176e6f70e76adaf6662ce"),
    (["digits", "--count", "300"],
     "495b5898ff7f52a5528b53a19df2c648cbe634dd2386de78e878002c252d4f4f"),
    (["bounds", "--n", "6", "--m", "30", "--precision", "1024"],
     "064962b79f0e7153c78c074e83260e7f398c9fe1f6f6ca6afde281f353b226dc"),
    (["archimedes", "--precision", "1024"],
     "3b61cd9ae47a4602fe38e542bad0d12a71bac49e425473a48fbd98a7ed9e1396"),
    (["verify", "identities", "--m-max", "3"],
     "b60502b3a20a4677d2233b41d8de9ff422698f939f24445ffbdf1aabdca5ed81"),
    (["verify", "area-sandwich", "--circuits-per-cap", "1"],
     "10b85de4e3e3dab43cae515d1dd6e606ec240580136ec1437c1d9dbd9990569c"),
    # chord-compare reads no tangent segment, so at 16 bits it no longer
    # falls short on one; pinned once its sides were built alone
    (["verify", "chord-compare", "--samples", "3", "--precision", "16"],
     "ea3d3a5bd5f0e610a4b34027c09c0a1fba76ed892986b06e9dc993a8de350bb6"),
    # a comparison escalates on a precision shortfall as on an overlap, so
    # the sample whose tangent meets fall short at 16 bits settles at 32
    (["verify", "tangent-compare", "--samples", "3", "--precision", "16"],
     "e31e31469b3e15511cf3ec4463b9a290be34f585cb79090501082a346c08d2db"),
]

#: sha256 of reports whose shortfall rows make ``verify`` exit 3, pinned
#: before the suites became row generators
PINNED_SHORTFALL_REPORTS = [
    (["verify", "h-ratio", "--m-max", "12", "--precision", "16"],
     "a0ae65ac9ab1160b08f6a0b15c566f1faaa2829df088357ee9865e70dc13186a"),
    # the winding check splits the chord enclosure on the ball walk, so no
    # row falls short at 20 bits: (4, 9), (5, 11) and (5, 12) settle, and
    # the one inconclusive row is a circumscribed overlap; repinned once
    # the split replaced the Interval fallback
    (["verify", "rational", "--max-n", "12", "--precision", "20"],
     "68dc853cc39abfe23bbd315b88b9d04bef191fc33b6530b01074b0d50f9df97d"),
    (["verify", "trig-sandwich", "--k-max", "20", "--precision", "16"],
     "ebfa8dc0cbaa3edbb94b18fef651eedb975cc211210d650e57d22b6174899eb7"),
    (["verify", "tangent-profile", "--samples", "3", "--precision", "16"],
     "321fd7dbe14408c42b82cb82ce86bfbd7f665241607c5ffa4adbe5ba7d3a1412"),
]


@pytest.mark.parametrize("args, digest", PINNED_REPORTS)
def test_pinned_reports(args, digest, capsys):
    assert main(args + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", PINNED_SHORTFALL_REPORTS)
def test_pinned_shortfall_reports(args, digest, capsys):
    assert main(args + ["--format", "json"]) == 3
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_ball_winding_settles_two_rows_of_the_20_bit_rational_pin(monkeypatch, cold_rational):
    # the repinned report against the same suite with the winding check it
    # replaced, one ball walk of the whole enclosure with the Interval walk
    # as its fallback: exactly (4, 9), (5, 11) and (5, 12) move, from an
    # ambiguous crossing to a checked winding
    shipped = run_suite("rational", max_n=12, precision=20)
    realize_rational.cache_clear()
    monkeypatch.setattr(rational, "winding_count", two_path_winding)
    two_path = run_suite("rational", max_n=12, precision=20)
    changed = [(old, new) for old, new in zip(two_path.rows, shipped.rows, strict=True)
               if old != new]
    assert [(new["k"], new["N"]) for _, new in changed] == [(4, 9), (5, 11), (5, 12)]
    for old, new in changed:
        assert (old["verdict"], old["error"]) == ("shortfall", "AmbiguousCrossing")
        assert (new["status"], new["winding_checked"]) == ("ok", True)
    assert (two_path.samples, two_path.violations, two_path.inconclusive) == (
        shipped.samples, 0, 4)
    assert (shipped.violations, shipped.inconclusive) == (0, 1)
