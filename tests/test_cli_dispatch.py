"""The per-request path of ``cli.main``: the flag table, the suite keyword
table and the JSON joiner give what the full parser, a fresh
``inspect.signature`` and ``json.dumps(..., indent=2, default=str)`` give."""

import argparse
import contextlib
import importlib.util
import inspect
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from archpi import cli
from archpi.rational import coprime_pairs, realize_rational

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
WORKLOADS = ROOT / "bench" / "workloads.py"

#: per command, a cheap request and one value for each flag it takes
_COMMANDS = {
    "bounds": (["--n", "6", "--m", "2"], {"--precision": "64"}),
    "digits": (["--count", "20"], {}),
    "archimedes": (["--m-max", "2"], {"--n": "4", "--m-max": "1", "--precision": "48"}),
    "circuit": ([], {"--points": "4", "--mesh-cap-exp": "3", "--seed": "2",
                     "--include-points": None, "--precision": "64"}),
    "trig": (["--k-max", "2"], {"--theta": "1/8", "--k-max": "3", "--precision": "48"}),
    "sweep-rational": (["--max-n", "5"], {"--max-n": "4", "--precision": "32"}),
}
_VERIFY = [
    ["monotone", "--m-max", "1"],
    ["chord-compare", "--samples", "1"],
    ["chord-compare", "--samples", "1", "--seed", "3"],
    ["chord-compare", "--samples", "2", "--jobs", "1"],
    ["chord-compare", "--samples", "1", "--precision", "32"],
    ["circuit-sandwich", "--circuits-per-cap", "1"],
    ["trig-sandwich", "--k-max", "1"],
    ["rational", "--max-n", "3"],
    ["monotone", "--samples", "1"],       # a flag the suite does not take
]
_ODD = [
    [], ["-h"], ["digits", "-h"], ["nope"], ["dig", "--count", "5"],
    ["--cou", "4"], ["--format", "json", "digits"],
    ["digits", "--count", "x"], ["digits", "--count", "5", "--bogus"],
    ["digits", "--cou", "5"], ["digits"], ["verify"], ["verify", "nope"],
    ["digits", "--count", "5", "--precision", "64"],
    ["digits", "--count", "5", "--", "x"],
    ["bounds", "--n", "6", "--m", "2", "extra"],
    # shapes the flag table declines or reads, beside the full parser
    ["digits", "--count=5"], ["digits", "--count", "1_000"], ["digits", "--count", " 5"],
    ["digits", "--count", ""], ["digits", "--count", "-5"], ["digits", "--count"],
    ["digits", "--count", "5", "--count", "6"], ["digits", "--count", "5", "-h"],
    ["digits", "--format", "xml", "--count", "5"], ["digits", "--count", "5", "--format"],
    ["bounds", "--m", "2", "--n", "6"], ["bounds", "--n", "6"],
    ["verify", "--samples", "1", "chord-compare"], ["verify", "chord-compare", "monotone"],
    ["verify", "chord-compare", "--samples", "x"], ["verify", "--", "chord-compare"],
    ["circuit", "--include-points", "x"], ["circuit", "--include-points=1"],
    ["circuit", "--include-points", "--include-points"], ["trig", "--theta", "-1/8"],
    ["sweep-rational", "--max-n", "5", "--", "--max-n", "4"],
]


def _flag_corpus(output):
    corpus = []
    for command, (base, flags) in _COMMANDS.items():
        corpus.append([command, *base])
        for flag, value in flags.items():
            corpus.append([command, *base, flag] + ([] if value is None else [value]))
        corpus += [[command, *base, "--format", fmt] for fmt in ("csv", "text")]
        corpus.append([command, *base, "--output", output])
    for request in _VERIFY:
        corpus.append(["verify", *request])
    corpus += [["verify", *_VERIFY[1], "--format", fmt] for fmt in ("csv", "text")]
    corpus.append(["verify", *_VERIFY[1], "--output", output])
    return corpus


def _readme_corpus():
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    return [line.split("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("archpi ")]


def _outcome(argv, output, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    written = None
    if Path(output).exists():
        written = Path(output).read_text()
        Path(output).unlink()
    return code, out, err, written


def test_dispatch_matches_the_full_parser(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ARCHPI_PRECISION", raising=False)
    monkeypatch.delenv("ARCHPI_JOBS", raising=False)
    output = str(tmp_path / "report.out")
    corpus = _flag_corpus(output) + _readme_corpus() + _ODD

    # the corpus sets every flag of every command
    commands = next(a.choices for a in cli._parser()._actions if a.dest == "command")
    assert set(commands) == set(_COMMANDS) | {"verify"}
    for name, parser in commands.items():
        flags = {s for a in parser._actions for s in a.option_strings if s.startswith("--")}
        used = {word for argv in corpus if argv[:1] == [name] for word in argv}
        assert flags - {"--help"} <= used, name
    assert len(_readme_corpus()) >= 8

    fast = [_outcome(argv, output, capsys) for argv in corpus]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._parser().parse_args(argv))
    full = [_outcome(argv, output, capsys) for argv in corpus]
    for argv, got, expected in zip(corpus, fast, full):
        assert got == expected, argv
    # the corpus reaches every outcome: success, a usage exit from argparse,
    # a usage exit from the command, help, and a written report
    codes = {outcome[0] for outcome in full}
    assert {0, 2, ("SystemExit", 0), ("SystemExit", 2)} <= codes
    assert any(outcome[3] for outcome in full)


def test_a_request_parses_once_and_reads_no_signature(monkeypatch, capsys):
    parsed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    signatures = []
    signature = inspect.signature

    def counting(*args, **kwargs):
        signatures.append(args)
        return signature(*args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    monkeypatch.setattr(inspect, "signature", counting)
    cli._suite_keywords.cache_clear()
    # a plain request is read off the flag table: argparse parses nothing
    assert cli.main(["verify", "chord-compare", "--samples", "1"]) == 0
    assert parsed == []
    assert len(signatures) == len(cli.SUITES)
    signatures.clear()
    for argv in (["digits", "--count", "5"],
                 ["verify", "monotone", "--m-max", "1"],
                 ["verify", "chord-compare", "--samples", "1", "--seed", "2"]):
        assert cli.main(argv) == 0
        assert parsed == [], argv
    assert signatures == []
    # a request the table declines is parsed once, by the full parser,
    # which hands its words to the command's parser
    assert cli.main(["digits", "--cou", "5"]) == 0
    assert parsed == ["archpi", "archpi digits"]
    assert signatures == []
    capsys.readouterr()


_VALUES = ["5", "1_000", " 5", "", "-5", "x"]


def _commands():
    return next(a.choices for a in cli._parser()._actions if a.dest == "command")


def _request(name):
    """argvs for command ``name`` from its own words: its flags with a value
    each, and a few stray words: flags, their abbreviations and
    ``--flag=value`` forms, values, suite names, ``-h``, ``--`` and
    ``extra``; in any order, mostly with a request the command takes."""
    actions = _commands()[name]._actions
    flags = [s for a in actions for s in a.option_strings]
    pairs = st.sampled_from([(flag, value) for a in actions if a.nargs is None
                             for flag in a.option_strings
                             for value in ([*a.choices, "x"] if a.choices else ["3", *_VALUES])])
    abbreviations = [flag[:k] for flag in flags if flag.startswith("--")
                     for k in range(3, len(flag))]
    strays = st.sampled_from(flags + abbreviations + _VALUES + sorted(cli.SUITES)
                             + [f"{flag}={value}" for flag in flags for value in _VALUES[:2]]
                             + ["-h", "--", "extra"]).map(lambda word: (word,))
    base = [("monotone",)] if name == "verify" else [
        tuple(_COMMANDS[name][0][i:i + 2]) for i in range(0, len(_COMMANDS[name][0]), 2)]
    return st.tuples(st.lists(pairs, max_size=4), st.lists(strays, max_size=2),
                     st.sampled_from([True, True, False])).flatmap(
        lambda drawn: st.permutations(drawn[0] + drawn[1] + (base if drawn[2] else []))).map(
        lambda chunks: [name, *(word for chunk in chunks for word in chunk)])


@settings(deadline=None, max_examples=400)
@given(st.sampled_from(sorted(_COMMANDS) + ["verify"]).flatmap(_request))
@example(["digits", "--count", "5"])
@example(["verify", "--seed", "2", "chord-compare", "--samples", "1"])
@example(["circuit", "--include-points", "--seed", "3", "--include-points"])
@example(["trig", "--theta", "1/8", "--format", "text", "--output", "x"])
@example([])
@example(["--format", "json", "digits", "--count", "5"])
@example(["dig", "--count", "5"])
@example(["bounds", "--n", "6", "--m", "-2"])
def test_the_flag_table_agrees_with_the_full_parser(argv):
    plain = cli._plain_parse(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            full = cli._parser().parse_args(argv)
    except SystemExit:
        event("argparse exits")
        assert plain is None
    else:
        event("declined" if plain is None else "plain")
        # the same attributes, in the same order
        assert plain is None or list(vars(plain).items()) == list(vars(full).items())


def test_the_flag_table_is_read_off_the_current_parser():
    old = cli._parser()
    cli._parser.cache_clear()
    assert cli._parser() is not old
    options = cli._flag_table(cli._parser())["digits"][0]
    assert options["--count"] in _commands()["digits"]._actions


def test_a_command_with_an_action_the_table_does_not_read_has_no_entry():
    parser = argparse.ArgumentParser(prog="toy")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("plain").add_argument("--n", type=int)
    sub.add_parser("appends").add_argument("--n", action="append")
    group = sub.add_parser("exclusive").add_mutually_exclusive_group()
    group.add_argument("--a", action="store_true")
    group.add_argument("--b", action="store_true")
    assert set(cli._flag_table(parser)) == {"plain"}


def test_the_first_benchmark_blocks_decline_nothing():
    spec = importlib.util.spec_from_file_location("archpi_bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in ("arc-compare", "pi-digits", "circle-walks"):
        block = workloads.first_block(name, 1)
        assert sum(cli._plain_parse(argv) is None for argv in block) == 0, name
        for argv in block:
            assert cli._plain_parse(argv) == cli._parser().parse_args(argv), argv


class _OnlyStr:
    """Encodable only through ``default=str``, as a string with escapes."""

    def __str__(self):
        return 'odd "value"\n\\ é'


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(),
    st.builds(Fraction, st.integers(), st.integers(min_value=1)),
    st.just(_OnlyStr()),
)
_KEYS = st.one_of(st.text(), st.integers())


def _containers(children):
    return st.one_of(st.lists(children, max_size=4),
                     st.lists(children, max_size=4).map(tuple),
                     st.dictionaries(st.text(), children, max_size=4),
                     st.dictionaries(_KEYS, children, max_size=4))


@settings(deadline=None)
@given(st.recursive(_SCALARS, _containers, max_leaves=24))
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": ()})
@example('quote " backslash \\ tab \t nul \x00 bell \x07 é ∞ \U0001f600')
@example([math.inf, -math.inf, math.nan, 0.1, -0.0, 10 ** 40])
@example({1: "int key", "s": [True, False, None]})
@example([{"k": _OnlyStr()}, Fraction(1, 3), (1, (2, ()))])
def test_json_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, default=str)


_PAIRS = coprime_pairs(16)
_PLAIN = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(), st.text()),
                      lambda children: st.one_of(st.lists(children, max_size=3),
                                                 st.dictionaries(st.text(), children,
                                                                 max_size=3)),
                      max_leaves=8)


@settings(deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_PAIRS), _PLAIN), max_size=6),
       st.dictionaries(st.text(), _PLAIN, max_size=3))
@example([(1, 3), {"k": 2, "N": 5, "error": "InvalidChord"}, (2, 5)], {"max_n": 5})
def test_kept_row_text_joins_as_json_dumps(items, fields):
    # a pair in the rows is its kept text in the report and its dict in the
    # plain one; every other row is the same value in both
    report = {**fields, "rows": [cli._sweep_text(*item, 64) if type(item) is tuple else item
                                 for item in items]}
    plain = {**fields, "rows": [cli._sweep_row(realize_rational(*item, 64))
                                if type(item) is tuple else item for item in items]}
    assert cli._json(report) == json.dumps(plain, indent=2)
