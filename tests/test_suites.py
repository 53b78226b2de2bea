import dataclasses
import hashlib

import pytest

from archpi import suites
from archpi.cli import main
from archpi.dyadic import Dyadic
from archpi.errors import AmbiguousCrossing, DivByZeroInterval, HypothesisUnordered
from archpi.interval import Verdict
from archpi.suites import SUITES, SuiteResult, checked, run_suite

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
    assert res.passed
    assert res.samples == 3 * 5 * 4
    assert all(row["status"] == "ok" for row in res.rows)


def test_h_ratio_rows_carry_ratio():
    res = run_suite("h-ratio", m_max=3, precision=64)
    assert res.passed
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
    assert serial.passed and parallel.passed


def test_projection_suite_small():
    res = run_suite("projections", samples=6, seed=2, precision=64)
    assert res.passed
    checks = {row["check"] for row in res.rows}
    assert {"symmetric", "sum-encloses-chord"} <= checks


def test_rational_suite_small():
    res = run_suite("rational", max_n=8, precision=64)
    assert res.passed
    assert any(row.get("mode") == "circumscribed" for row in res.rows)
    assert all(
        row["winding_checked"] for row in res.rows if "winding_checked" in row
    )


def test_circuit_suite_small():
    res = run_suite(
        "circuit-sandwich", circuits_per_cap=2, cap_exps=(1, 2, 3), seed=5
    )
    assert res.passed
    gap_rows = [r for r in res.rows if r.get("check") == "worst-gap-nonincreasing"]
    assert len(gap_rows) == 2


def test_trig_suite_small():
    res = run_suite("trig-sandwich", k_max=4)
    assert res.passed
    assert res.samples == 4


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
    # at 16 bits the first sample's squared distance straddles zero; the
    # other two samples still run and pass
    res = run_suite("chord-compare", samples=3, precision=16, jobs=jobs)
    first, *rest = res.rows
    assert first == {
        "suite": "chord-compare",
        "sample_seed": suites._sample_seed(suites.DEFAULT_SEED, 0),
        "precision": 16,
        "error": "NegativeSqrt",
        "message": first["message"],
        "verdict": "shortfall",
        "status": "inconclusive",
    }
    assert first["message"].startswith("sqrt of Interval(")
    assert [row["status"] for row in rest] == ["ok", "ok"]
    assert (res.samples, res.violations, res.inconclusive) == (3, 0, 1)


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


def test_rational_shortfall_is_one_row_per_pair(monkeypatch):
    real = suites.winding_count

    def short_at_2_7(r):
        if (r.k, r.N) == (2, 7):
            raise AmbiguousCrossing("ambiguous crossing test; raise precision")
        return real(r)

    def unordered(a, b, mode):
        raise HypothesisUnordered("chords cannot be certifiably ordered")

    monkeypatch.setattr(suites, "winding_count", short_at_2_7)
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


def test_rational_overlap_is_inconclusive(monkeypatch):
    monkeypatch.setattr(suites, "compare_certain", lambda a, b: OVERLAP)
    res = run_suite("rational", max_n=5)
    pair_rows = [row for row in res.rows if "winding_checked" in row]
    assert [row["status"] for row in pair_rows] == ["inconclusive"] * 4
    assert res.violations == 0 and res.inconclusive == 4


def test_projection_symmetry_is_checked_from_the_points(monkeypatch):
    real = suites.partition_profile

    def skewed(arc, n, prec):
        # move P_2 onto P_3: the mirrored projections stay symmetric, but the
        # gaps recomputed from the points no longer are
        profile = real(arc, n, prec)
        points = list(profile.points)
        points[1] = points[2]
        return dataclasses.replace(profile, points=points)

    monkeypatch.setattr(suites, "partition_profile", skewed)
    res = run_suite("projections", samples=2, seed=2)
    symmetric = [row for row in res.rows if row["check"] == "symmetric"]
    assert [row["status"] for row in symmetric] == ["violated"] * 2


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
]

#: sha256 of reports whose shortfall rows make ``verify`` exit 3, pinned
#: before the suites became row generators
PINNED_SHORTFALL_REPORTS = [
    (["verify", "h-ratio", "--m-max", "12", "--precision", "16"],
     "a0ae65ac9ab1160b08f6a0b15c566f1faaa2829df088357ee9865e70dc13186a"),
    (["verify", "rational", "--max-n", "12", "--precision", "20"],
     "de5ff2b596eb523b3c7cc2b4ab0fb00990a04574ac3894aaba9b67319a272371"),
    (["verify", "trig-sandwich", "--k-max", "20", "--precision", "16"],
     "ebfa8dc0cbaa3edbb94b18fef651eedb975cc211210d650e57d22b6174899eb7"),
    (["verify", "chord-compare", "--samples", "3", "--precision", "16"],
     "277deaec8d5e5e73e4031ad10d42654b54d2fb4ea208418ad60ad8cd6210c96c"),
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
