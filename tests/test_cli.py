import csv
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from archpi import cli
from archpi.cli import main
from archpi.dyadic import Dyadic
from archpi.interval import Interval
from archpi.rational import coprime_pairs

from oracles import machin_pi_digits


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def run_cli_err(args, capsys):
    code = main(args)
    return code, capsys.readouterr().err


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


def test_circuit_csv(capsys):
    # a report without rows is written as its one row
    code, out = run_cli(
        ["circuit", "--points", "4", "--mesh-cap-exp", "3", "--seed", "11",
         "--format", "csv"], capsys
    )
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    _, report = run_cli(
        ["circuit", "--points", "4", "--mesh-cap-exp", "3", "--seed", "11"], capsys
    )
    assert {key: json.loads(value) if key == "measures" else value
            for key, value in row.items()} == {
        key: value if key == "measures" else str(value)
        for key, value in json.loads(report).items()}


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


@pytest.mark.parametrize("where", ["missing-parent", "directory", "file-parent"])
def test_unwritable_output_exits_2_before_work(where, tmp_path, monkeypatch, capsys):
    (tmp_path / "plain").write_text("")
    target = {"missing-parent": tmp_path / "nonexistent" / "x.json",
              "directory": tmp_path,
              "file-parent": tmp_path / "plain" / "x.json"}[where]

    def no_work(count):
        raise AssertionError("digits computed for an unwritable --output")

    monkeypatch.setattr("archpi.cli.pi_digits", no_work)
    code, err = run_cli_err(
        ["digits", "--count", "5", "--output", str(target)], capsys)
    assert code == 2
    assert err.startswith("error: --output: ") and "Traceback" not in err


def test_output_write_failure_exits_2(tmp_path, monkeypatch, capsys):
    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("builtins.open", full_disk)
    code, err = run_cli_err(
        ["digits", "--count", "5", "--output", str(tmp_path / "x.json")], capsys)
    assert code == 2
    assert err == f"error: --output: No space left on device: '{tmp_path / 'x.json'}'\n"


def test_env_precision_override(monkeypatch, capsys):
    monkeypatch.setenv("ARCHPI_PRECISION", "128")
    code, out = run_cli(["bounds", "--n", "3", "--m", "2"], capsys)
    assert json.loads(out)["precision"] == 128


def test_bad_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--n", "6"])  # missing --m
    assert exc.value.code == 2
    assert main(["bounds", "--n", "2", "--m", "1"]) == 2  # n too small


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


@pytest.mark.parametrize("precision", ["8", "99999999"])
def test_digits_takes_no_precision(precision, capsys):
    # pi_digits sets its own bits from --count, so the flag is refused
    with pytest.raises(SystemExit) as exc:
        main(["digits", "--count", "5", "--precision", precision])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


def test_digits_does_not_read_archpi_precision(monkeypatch, capsys):
    monkeypatch.setenv("ARCHPI_PRECISION", "abc")
    code, out = run_cli(["digits", "--count", "5", "--format", "text"], capsys)
    assert (code, out) == (0, "3.1415\n")


@pytest.mark.parametrize("count", [4301, 5000])
def test_digits_beyond_the_int_str_limit(count, capsys):
    code, out = run_cli(["digits", "--count", str(count), "--format", "text"], capsys)
    assert code == 0
    # the oracle converts its own big integer, so only it lifts the limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = machin_pi_digits(count)
    finally:
        sys.set_int_max_str_digits(limit)
    assert out.strip() == expected


def test_python_dash_m_archpi():
    proc = subprocess.run(
        [sys.executable, "-m", "archpi", "digits", "--count", "5", "--format", "text"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "3.1415"


def test_verify_precision_above_the_solver_ceiling_exits_2(capsys):
    # 4080 bits is the most the chord solver takes; above it every solve
    # was once ambiguous and the run a false shortfall (exit 3)
    code, err = run_cli_err(
        ["verify", "chord-compare", "--samples", "1", "--precision", "4081"], capsys)
    assert code == 2
    assert "--precision" in err and "4080" in err


class _Reached(Exception):
    """Raised by a stubbed command body: the precision check let it run."""


def _reached(*args, **kwargs):
    raise _Reached


#: each command that takes --precision, and the first call of its body
_CEILING_CASES = [
    (["bounds", "--n", "3", "--m", "3"], "scheme_measures"),
    (["archimedes"], "iter_scheme_measures"),
    (["verify", "monotone"], "run_suite"),
    (["circuit"], "random_circuit"),
    (["trig", "--theta", "1/8"], "sandwich_report"),
    (["sweep-rational"], "coprime_pairs"),
]


def test_every_precision_command_has_a_ceiling():
    assert {args[0] for args, _ in _CEILING_CASES} == set(cli.PRECISION_CEILING)
    assert cli.PRECISION_CEILING["sweep-rational"] == 4080


@pytest.mark.parametrize("args, body", _CEILING_CASES,
                         ids=[args[0] for args, _ in _CEILING_CASES])
@pytest.mark.parametrize("source", ["--precision", "ARCHPI_PRECISION"])
def test_precision_above_the_ceiling_exits_2_before_work(args, body, source,
                                                         monkeypatch, capsys):
    # the body is never run above the ceiling: a value that large can take
    # minutes, so only the stub runs, and only at the ceiling itself
    monkeypatch.setattr(cli, body, _reached)
    ceiling = cli.PRECISION_CEILING[args[0]]

    def run(prec):
        if source == "--precision":
            return main([*args, "--precision", str(prec)])
        monkeypatch.setenv("ARCHPI_PRECISION", str(prec))
        return main(args)

    assert run(ceiling + 1) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {source} must be at most {ceiling} bits for {args[0]}")
    with pytest.raises(_Reached):
        run(ceiling)


#: each size flag, its ``suites.MOST`` key, and the first call of the body
_SIZE_CASES = [
    (["verify", "chord-compare", "--samples"], "samples", "run_suite"),
    (["verify", "area-sandwich", "--circuits-per-cap"], "circuits_per_cap", "run_suite"),
    (["verify", "trig-sandwich", "--k-max"], "k_max", "run_suite"),
    (["verify", "identities", "--m-max"], "m_max", "run_suite"),
    (["verify", "rational", "--max-n"], "max_n", "run_suite"),
    (["trig", "--k-max"], "k_max", "sandwich_report"),
    (["archimedes", "--m-max"], "m_max", "iter_scheme_measures"),
    (["sweep-rational", "--max-n"], "max_n", "coprime_pairs"),
    (["bounds", "--n", "6", "--m"], "m", "scheme_measures"),
]


@pytest.mark.parametrize("args, key, body", _SIZE_CASES,
                         ids=[" ".join(args) for args, _, _ in _SIZE_CASES])
def test_size_above_the_ceiling_exits_2_before_work(args, key, body, monkeypatch, capsys):
    # as for precision, only the stub runs, and only at the ceiling itself
    monkeypatch.setattr(cli, body, _reached)
    ceiling = cli.MOST[key]
    assert main([*args, str(ceiling + 1)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {args[-1]} must be at most {ceiling}, got {ceiling + 1}\n"
    with pytest.raises(_Reached):
        main([*args, str(ceiling)])


def test_every_size_flag_has_a_ceiling():
    assert {key for _, key, _ in _SIZE_CASES} == set(cli.MOST) == {*cli.LEAST, "m"}


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
    code, err = run_cli_err(["verify", "rational", "--max-n", "24", "--precision", "16"], capsys)
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
    # of a squared distance fails: a precision shortfall, not a usage error.
    # chord-compare takes only the two distances it compares, and they hold
    code, err = run_cli_err(["verify", suite, "--samples", "3", "--precision", "16"], capsys)
    if suite == "chord-compare":
        assert (code, err) == (0, "")
        return
    assert code == 3
    assert err.startswith("inconclusive:") and "sqrt" in err


def test_shortfall_keeps_the_other_rows(capsys):
    code = main(["verify", "tangent-profile", "--samples", "3", "--precision", "16"])
    captured = capsys.readouterr()
    assert code == 3
    report = json.loads(captured.out)
    assert (report["samples"], report["violations"], report["inconclusive"]) == (5, 0, 1)
    shortfall = [row for row in report["rows"] if row["status"] == "inconclusive"]
    assert [(row["verdict"], row["error"], row["precision"]) for row in shortfall] == [
        ("shortfall", "NegativeSqrt", 16)
    ]
    assert {row["sample_seed"] for row in report["rows"]} == {1000003, 1000004, 1000005}
    assert captured.err == (
        f"inconclusive: sample {shortfall[0]['sample_seed']} at 16 bits: "
        f"NegativeSqrt: {shortfall[0]['message']}\n"
    )


def test_circuit_too_deep_exits_2_before_drawing(capsys):
    # a 2^-40 cap would need a ring of about 3*2^44 vertices
    start = time.perf_counter()
    code, err = run_cli_err(["circuit", "--mesh-cap-exp", "40"], capsys)
    assert code == 2
    assert err.startswith("error: mesh cap too small") and "--mesh-cap-exp" in err
    code, err = run_cli_err(["circuit", "--points", "1000000"], capsys)
    assert code == 2 and "--points" in err
    assert time.perf_counter() - start < 5


def _shortfall_lines(err, rows, label):
    short = [row for row in rows if "error" in row]
    assert short and err.splitlines() == [
        f"inconclusive: {label(row)} at {row['precision']} bits: "
        f"{row['error']}: {row['message']}"
        for row in short
    ]
    return short


def test_rational_shortfall_keeps_the_other_rows(capsys):
    code = main(["verify", "rational", "--max-n", "24", "--precision", "16"])
    captured = capsys.readouterr()
    assert code == 3
    report = json.loads(captured.out)
    short = _shortfall_lines(
        captured.err, report["rows"],
        lambda row: (f"k {row['k']}, N {row['N']}" if "k" in row
                     else f"mode {row['mode']}, pair {row['pair']}"))
    # at 16 bits wide chords also reach 2 or cannot be ordered
    assert {row["error"] for row in short} == {
        "AmbiguousCrossing", "InvalidChord", "HypothesisUnordered"}
    assert [(row["k"], row["N"]) for row in short
            if row["error"] == "AmbiguousCrossing"] == [(7, 18), (8, 21)]
    # more rows are inconclusive by an overlap, not a shortfall
    assert len(short) < report["inconclusive"] < report["samples"]
    assert report["violations"] == 0


def test_trig_sandwich_shortfall_keeps_the_other_rows(capsys):
    code = main(["verify", "trig-sandwich", "--k-max", "20", "--precision", "16"])
    captured = capsys.readouterr()
    assert code == 3
    rows = json.loads(captured.out)["rows"]
    assert [row["k"] for row in rows] == list(range(1, 21))
    short = _shortfall_lines(captured.err, rows, lambda row: f"k {row['k']}")
    assert {row["error"] for row in short} == {"DivByZeroInterval"}
    assert rows[0]["status"] == "ok"


def test_trig_shortfall_keeps_the_other_rows(capsys):
    code = main(["trig", "--k-max", "40", "--precision", "32"])
    captured = capsys.readouterr()
    assert code == 3
    rows = json.loads(captured.out)["rows"]
    assert [row["theta"] for row in rows] == [
        list(Interval.exact(Dyadic(1, -k), 32).decimal_pair(17)) for k in range(1, 41)]
    short = _shortfall_lines(captured.err, rows, lambda row: f"theta {row['theta']}")
    assert {row["error"] for row in short} == {"DivByZeroInterval"}
    assert rows[0]["lower_verdict"] == rows[0]["upper_verdict"] == "certainly_less"


def test_sweep_rational_shortfall_keeps_the_other_rows(capsys):
    code = main(["sweep-rational", "--max-n", "24", "--precision", "16"])
    captured = capsys.readouterr()
    assert code == 3
    rows = json.loads(captured.out)["rows"]
    assert len(rows) == len(coprime_pairs(24))
    short = _shortfall_lines(captured.err, rows,
                             lambda row: f"k {row['k']}, N {row['N']}")
    assert {row["error"] for row in short} == {"AmbiguousCrossing", "InvalidChord"}
    assert all(row["winding"] == row["k"] for row in rows if "error" not in row)


def test_h_ratio_shortfall_keeps_the_other_rows(capsys):
    code = main(["verify", "h-ratio", "--precision", "32"])
    captured = capsys.readouterr()
    assert code == 3
    rows = json.loads(captured.out)["rows"]
    assert [(row["n"], row["m"]) for row in rows] == [
        (n, m) for n in (3, 4, 6) for m in range(26)]
    short = _shortfall_lines(captured.err, rows,
                             lambda row: f"n {row['n']}, m {row['m']}")
    assert {row["error"] for row in short} == {"DivByZeroInterval"}
    assert rows[0]["status"] == "ok"


@pytest.mark.parametrize("suite", ["projections", "tangent-profile"])
def test_antipodal_tangents_are_a_shortfall(suite, capsys):
    # at 16 bits 1 + p.q straddles zero for one sample's tangent points;
    # profile arcs are under half a circle, so that is a precision shortfall
    code = main(["verify", suite, "--precision", "16"])
    captured = capsys.readouterr()
    assert code == 3
    report = json.loads(captured.out)
    assert report["violations"] == 0 and report["samples"] > 200
    short = [row for row in report["rows"] if "error" in row]
    assert "AntipodalTangents" in {row["error"] for row in short}
    lines = captured.err.splitlines()
    assert len(lines) == len(short)
    assert all(line.startswith("inconclusive: sample ") for line in lines)


def test_circuit_sandwich_low_precision_is_inconclusive_not_violated(capsys):
    # at 16 bits whole caps of samples cannot separate 2 pi from their
    # perimeters; their loose gap bounds once made the worst-gap row of cap 7
    # a certified violation
    code, out = run_cli(["verify", "circuit-sandwich", "--precision", "16"], capsys)
    report = json.loads(out)
    assert code == 3
    assert report["violations"] == 0
    unsure = {row["mesh_cap_exp"] for row in report["rows"]
              if "sample_seed" in row and row["status"] == "inconclusive"}
    assert 1 not in unsure and {6, 7} <= unsure
    gaps = [row for row in report["rows"]
            if row.get("check") == "worst-gap-nonincreasing"]
    assert [row["mesh_cap_exp"] for row in gaps] == list(range(2, 9))
    for row in gaps:
        compared = {row["mesh_cap_exp"] - 1, row["mesh_cap_exp"]}
        assert (row["status"] == "inconclusive") == bool(compared & unsure)
    assert gaps[0]["status"] == "ok"


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


def test_parser_reused_across_calls_matches_a_fresh_one(monkeypatch, capsys):
    import archpi.cli

    calls = [
        (None, ["bounds", "--n", "6", "--m", "3"]),
        ("96", ["bounds", "--n", "6", "--m", "3"]),
        ("80", ["trig", "--theta", "1/7"]),
        (None, ["digits", "--count", "30"]),
        ("8", ["verify", "chord-compare", "--samples", "1"]),
        ("72", ["verify", "chord-compare", "--samples", "1", "--seed", "5"]),
        (None, ["sweep-rational", "--max-n", "6", "--format", "csv"]),
        ("96", ["circuit", "--mesh-cap-exp", "3", "--seed", "4"]),
    ]

    def outputs(fresh):
        seen = []
        for precision, argv in calls:
            if precision is None:
                monkeypatch.delenv("ARCHPI_PRECISION", raising=False)
            else:
                monkeypatch.setenv("ARCHPI_PRECISION", precision)
            if fresh:
                archpi.cli._parser.cache_clear()
            seen.append((main(argv), *capsys.readouterr()))
        return seen

    parser = archpi.cli._parser()
    reused = outputs(fresh=False)
    assert archpi.cli._parser() is parser
    assert reused == outputs(fresh=True)
