import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from archpi.cli import main

from oracles import machin_pi_digits


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_bounds_json(capsys):
    code, out = run_cli(
        ["bounds", "--n", "6", "--m", "4", "--precision", "96"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert Fraction(223, 71) < Fraction(report["pi_lo"])
    assert Fraction(report["pi_hi"]) < Fraction(22, 7)
    assert report["edge_count"] == 96


def test_digits_text(capsys):
    code, out = run_cli(["digits", "--count", "5", "--format", "text"], capsys)
    assert code == 0
    assert out.strip() == "3.1415"


def test_digits_json(capsys):
    code, out = run_cli(["digits", "--count", "12"], capsys)
    assert json.loads(out)["digits"] == machin_pi_digits(12)


def test_archimedes_csv(capsys):
    code, out = run_cli(
        ["archimedes", "--n", "6", "--m-max", "3", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + m = 0..3
    assert "p_lo" in lines[0]


def test_verify_ok_and_exit_codes(capsys):
    code, out = run_cli(
        ["verify", "chord-compare", "--samples", "3", "--seed", "1"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["violations"] == 0 and report["inconclusive"] == 0
    assert len(report["rows"]) == 3
    assert all(r["verdict"] == "certainly_less" for r in report["rows"])


def test_verify_unknown_suite_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "archpi.cli", "verify", "not-a-suite"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 2


def test_circuit_report(capsys):
    code, out = run_cli(
        ["circuit", "--points", "4", "--mesh-cap-exp", "3", "--seed", "11"], capsys
    )
    assert code == 0
    report = json.loads(out)
    measures = report["measures"]
    assert float(measures["perimeter_in"][1]) < float(measures["perimeter_circ"][0])
    assert float(measures["mesh"][1]) < 0.125


def test_trig_single_theta(capsys):
    code, out = run_cli(["trig", "--theta", "1/8", "--precision", "64"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["lower_verdict"] == "certainly_less"
    assert row["upper_verdict"] == "certainly_less"


def test_trig_ladder(capsys):
    code, out = run_cli(["trig", "--k-max", "3"], capsys)
    assert code == 0
    assert len(json.loads(out)["rows"]) == 3


def test_sweep_rational(capsys):
    code, out = run_cli(["sweep-rational", "--max-n", "7"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["k"], r["N"]) for r in rows] == [
        (1, 3), (1, 4), (1, 5), (2, 5), (1, 6), (1, 7), (2, 7), (3, 7),
    ]
    assert all(r["winding"] == r["k"] for r in rows)


def test_determinism_byte_identical(capsys):
    args = ["verify", "projections", "--samples", "4", "--seed", "77"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(
        ["bounds", "--n", "3", "--m", "2", "--output", str(target)], capsys
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 3


def test_env_precision_override(monkeypatch, capsys):
    monkeypatch.setenv("ARCHPI_PRECISION", "128")
    code, out = run_cli(["bounds", "--n", "3", "--m", "2"], capsys)
    assert json.loads(out)["precision"] == 128


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "6"])  # missing --m
    assert exc.value.code == 2
    assert main(["bounds", "--n", "2", "--m", "1"]) == 2  # n too small


def run_cli_err(args, capsys):
    code = main(args)
    return code, capsys.readouterr().err


def test_verify_flag_the_suite_does_not_take_exits_2(capsys):
    code, err = run_cli_err(["verify", "monotone", "--samples", "5"], capsys)
    assert code == 2
    assert "--samples" in err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["chord-compare", "--samples", "-1"], "--samples"),
        (["projections", "--samples", "0"], "--samples"),
        (["circuit-sandwich", "--circuits-per-cap", "0"], "--circuits-per-cap"),
        (["trig-sandwich", "--k-max", "0"], "--k-max"),
        (["monotone", "--m-max", "-1"], "--m-max"),
        (["rational", "--max-n", "2"], "--max-n"),
    ],
)
def test_verify_sizes_without_checks_exit_2(args, flag, capsys):
    code, err = run_cli_err(["verify"] + args, capsys)
    assert code == 2
    assert flag in err


def test_trig_zero_denominator_exits_2(capsys):
    code, err = run_cli_err(["trig", "--theta", "1/0"], capsys)
    assert code == 2
    assert err.startswith("error:") and "--theta" in err


def test_digits_above_cap_exits_2(capsys):
    code, err = run_cli_err(["digits", "--count", "20000"], capsys)
    assert code == 2
    assert "--count" in err


def test_bounds_precision_floor_has_message(capsys):
    code, err = run_cli_err(["bounds", "--n", "6", "--m", "2", "--precision", "8"], capsys)
    assert code == 2
    assert "--precision" in err


@pytest.mark.parametrize("suite", ["monotone", "chord-compare"])
def test_verify_precision_floor(suite, capsys):
    code, err = run_cli_err(["verify", suite, "--precision", "4"], capsys)
    assert code == 2
    assert "--precision" in err


@pytest.mark.parametrize(
    "name, args",
    [
        ("ARCHPI_PRECISION", ["bounds", "--n", "3", "--m", "2"]),
        ("ARCHPI_JOBS", ["verify", "chord-compare", "--samples", "1"]),
    ],
)
def test_env_not_an_integer_exits_2(name, args, monkeypatch, capsys):
    monkeypatch.setenv(name, "abc")
    code, err = run_cli_err(args, capsys)
    assert code == 2
    assert name in err


def test_verify_rational_overlap_exits_3(monkeypatch, capsys):
    import archpi.suites
    from archpi.interval import Verdict

    monkeypatch.setattr(archpi.suites, "compare_certain", lambda a, b: Verdict.OVERLAP)
    code, out = run_cli(["verify", "rational", "--max-n", "5"], capsys)
    report = json.loads(out)
    assert code == 3
    assert report["violations"] == 0 and report["inconclusive"] == 4


def test_ambiguous_crossing_exits_3(capsys):
    code, err = run_cli_err(["verify", "rational", "--max-n", "12", "--precision", "20"], capsys)
    assert code == 3
    assert err.startswith("inconclusive:") and "crossing" in err


def test_unordered_chords_exit_3(monkeypatch, capsys):
    import archpi.cli
    from archpi.rational import normalized_compare, realize_rational

    def compare_close_chords(name, **kwargs):
        # the chords of (1, 14) and (2, 29) overlap at 16 bits
        return normalized_compare(realize_rational(1, 14, 16), realize_rational(2, 29, 16))

    monkeypatch.setattr(archpi.cli, "run_suite", compare_close_chords)
    code, err = run_cli_err(["verify", "rational"], capsys)
    assert code == 3
    assert err.startswith("inconclusive:") and "ordered" in err


@pytest.mark.parametrize("suite", ["chord-compare", "tangent-profile", "projections"])
def test_operands_too_wide_exit_3(suite, capsys):
    # at 16 bits a coordinate difference straddles zero, so the square root
    # of a squared distance fails: a precision shortfall, not a usage error
    code, err = run_cli_err(["verify", suite, "--samples", "3", "--precision", "16"], capsys)
    assert code == 3
    assert err.startswith("inconclusive:") and "sqrt" in err


def test_verify_env_precision(monkeypatch, capsys):
    monkeypatch.setenv("ARCHPI_PRECISION", "128")
    code, out = run_cli(["verify", "chord-compare", "--samples", "1"], capsys)
    assert code == 0
    assert json.loads(out)["rows"][0]["precision_used"] == 128
    monkeypatch.setenv("ARCHPI_PRECISION", "8")
    code, err = run_cli_err(["verify", "chord-compare", "--samples", "1"], capsys)
    assert code == 2
    assert "ARCHPI_PRECISION" in err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["trig", "--k-max", "0"], "--k-max"),
        (["sweep-rational", "--max-n", "2"], "--max-n"),
        (["archimedes", "--m-max", "-1"], "--m-max"),
    ],
)
def test_sizes_without_rows_exit_2(args, flag, capsys):
    code, err = run_cli_err(args, capsys)
    assert code == 2
    assert flag in err
