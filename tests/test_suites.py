import dataclasses
import hashlib

import pytest

from archpi import suites
from archpi.cli import main
from archpi.interval import Verdict
from archpi.suites import SUITES, SuiteResult, run_suite

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
    res = SuiteResult("t")
    res.check({}, (LESS, GREATER), (LESS, OVERLAP), False)
    assert res.rows[0]["status"] == "inconclusive"
    assert (res.violations, res.inconclusive) == (0, 1)


def test_check_false_predicate_violates():
    res = SuiteResult("t")
    res.check({}, (LESS, LESS), False)
    res.check({}, True)
    assert [row["status"] for row in res.rows] == ["violated", "ok"]
    assert [row["verdict"] for row in res.rows] == ["fails", "holds"]
    assert (res.violations, res.inconclusive) == (1, 0)


def test_check_single_comparison_reports_its_verdict():
    res = SuiteResult("t")
    res.check({"x": 1}, (LESS, LESS))
    res.check({"x": 2}, (LESS, GREATER))
    res.check({"x": 3}, (GREATER, OVERLAP))
    assert res.rows == [
        {"x": 1, "verdict": "certainly_less", "status": "ok"},
        {"x": 2, "verdict": "certainly_greater", "status": "violated"},
        {"x": 3, "verdict": "overlap", "status": "inconclusive"},
    ]


def test_samples_is_row_count():
    res = SuiteResult("t")
    assert res.samples == 0
    for _ in range(3):
        res.check({}, True)
    assert res.samples == 3
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


#: sha256 of ``verify … --format json`` output, pinned before the suites
#: moved to one check path
PINNED_REPORTS = [
    (["monotone", "--m-max", "3"],
     "500fc183c283840e53fcf3c6478b0482a17602397ac9814e848393e43f870bec"),
    (["bounds", "--m-max", "3"],
     "d4b7d2e346d00a1acb43b695a9fe51703249d1f2ff90e19f5b3477373aeb4c28"),
    (["h-ratio", "--m-max", "3"],
     "7977b4028dc3d4954d1e49a883f52f0779665ebf77000d9ee4a75a57fe214697"),
    (["chord-compare", "--samples", "5", "--seed", "3"],
     "c95ceeb69ad53f327e176a2a2052453d0ce904e4f6b98f9ef3d2ecab88afb225"),
    (["tangent-compare", "--samples", "5", "--seed", "3"],
     "8168b2649825bac4c338258168f74bb317299da70ec464a9fcdced735839baea"),
    (["tangent-profile", "--samples", "5", "--seed", "2"],
     "69a24e229b21adf68967fcdc4c43f83b9e3f17cf35118593fe538323b1be79c9"),
]


@pytest.mark.parametrize("args, digest", PINNED_REPORTS)
def test_pinned_reports(args, digest, capsys):
    assert main(["verify"] + args + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
