"""Command-line surface: certified pi reports, verification suites, circuit
and trig tabulation.

Exit codes: 0 success, 1 a check found a certain violation,
2 argument error (including a ``verify`` flag the suite does not take, a
size that yields no rows or is above its ceiling in ``suites.MOST``, a job
count outside 1..256, a precision above
the command's ceiling in ``PRECISION_CEILING`` or above what the chord solver
takes, a ``--count`` outside 1..``DEFAULT_DIGIT_CAP``, a ``--theta`` that is
not a fraction or whose decimal exponent lies beyond +-10000, and an
``--output`` that cannot be written),
3 inconclusive (interval
overlap persisting at the precision cap, a winding whose crossings stay
ambiguous on pieces of the chord enclosure one unit wide or disagree
between pieces, chords that cannot be ordered at this precision, tangents
that cannot be certified to meet, or an operand too wide for a square
root, a division or a chord at this precision).  The sampled suites, ``rational``, ``h-ratio``, ``trig-sandwich``, ``trig`` and
``sweep-rational`` turn such a shortfall into one row; ``main`` maps every
other error to its exit code by type.  ``verify``, ``trig``,
``sweep-rational`` and ``circuit`` hand their rows' statuses to ``_finish``,
the one place that writes such a report, names its inconclusive rows on
stderr and picks the exit code: 1 if a row is violated, else 3 if a row is
inconclusive (a shortfall, or a row whose verdicts overlap, by
``suites.checked``'s rule), else 0.  A ``circuit`` report is one row, judged
by the circuit suites' sandwich rule on both of its measures, against
``pi_enclosure`` at the report's precision.
Reports are deterministic for identical argv and seed.

``main`` reads a plain request with ``_plain_parse`` and leaves every other
one to the full parser.  Every byte of a JSON report is written by
``_json``; a JSON ``sweep-rational`` report joins the row text the CLI
keeps per pair, ``_sweep_text``, so a warm one encodes only its shortfall
rows.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Optional

from .chords import MAX_PRECISION as SOLVER_CEILING
from .circuits import circuit_measures, random_circuit
from .dyadic import Dyadic
from .errors import SHORTFALLS, ArchpiError, PrecisionCeiling
from .interval import Interval
from .polygons import (DEFAULT_DIGIT_CAP, RegularScheme, iter_scheme_measures,
                       pi_digits, pi_enclosure, scheme_measures)
from .rational import RationalLength, coprime_pairs, realize_rational
from .suites import (DEFAULT_SEED, LEAST, LESS, SUITES, checked, require_bound, run_suite,
                     sandwich_checks, shortfall_row)
from .trig import sandwich_report

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

#: the ``verify`` flags besides ``--precision``, each a suite keyword argument
_VERIFY_KEYS = (*LEAST, "seed", "jobs")
#: the keys that name a ``verify`` or ``sweep-rational`` row; a ``trig`` row
#: is named by its theta
_SUBJECT = frozenset({"sample_seed", "n", "m", "measure", "check", "identity", "index",
                      "k", "N", "mode", "pair", "mesh_cap_exp"})

#: the most bits each command takes at ``--precision`` or ARCHPI_PRECISION,
#: checked before any work.  At its ceiling each command, at its default
#: sizes (``bounds`` at --n 3 --m 3), took 1-35 s on a 2-CPU x86-64 host
#: under CPython 3.11; the README lists the times.  The cost grows as about
#: prec^1.7 for a fixed number of halvings and prec^2.7 where the number of
#: halvings grows with prec, so twice a ceiling takes 3-7 times as long.
#: ``sweep-rational`` and the chord-solving suites stop at the chord
#: solver's ceiling, 4080 bits.
PRECISION_CEILING = {
    "bounds": 400_000,
    "archimedes": 200_000,
    "verify": 4096,
    "circuit": 8192,
    "trig": 4096,
    "sweep-rational": SOLVER_CEILING,
}


#: the largest decimal exponent ``trig --theta`` takes, either sign
_THETA_EXPONENT_CAP = 10_000
#: ``Fraction``'s decimal form; the group is its exponent's digits
_THETA_EXPONENT = re.compile(r"\s*[-+]?(?=\d|\.\d)(?:\d*|\d+(?:_\d+)*)(?:\.(?:\d+(?:_\d+)*)?)?"
                             r"E[-+]?(\d+(?:_\d+)*)\s*", re.IGNORECASE)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not an integer") from None


def _default_precision() -> int:
    return _env_int("ARCHPI_PRECISION", 64)


class _RowText(str):
    """JSON text that ``_json`` writes out as it is, not as a string."""


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, default=str)``, with ``indent`` before
    every line but the first.

    With an indent the standard library encodes in pure Python; here
    strings go through its C escaper, ints, bools and None are written as
    it writes them, and containers are joined.  Any other value, or a dict
    with a key that is not a str, is left to ``json.dumps``: JSON text holds
    no raw newline inside a string, so indenting its lines is exact.

    A ``_RowText`` is JSON text already indented for an item of a report's
    ``rows`` list, and is written out as it is.  Under a dict with
    a key that is not a str it would go to ``json.dumps`` and be quoted;
    ``sweep-rational``, the one report that holds such text, builds no such
    dict.
    """
    if isinstance(value, str):
        if type(value) is _RowText:
            return value
        return encode_basestring_ascii(value)
    if type(value) is int:
        return repr(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return ("[\n" + inner
                + (",\n" + inner).join([_json(item, inner) for item in value])
                + "\n" + indent + "]")
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        if not value:
            return "{}"
        return ("{\n" + inner + (",\n" + inner).join([
            encode_basestring_ascii(key) + ": " + _json(item, inner)
            for key, item in value.items()]) + "\n" + indent + "}")
    return json.dumps(value, indent=2, default=str).replace("\n", "\n" + indent)


def _emit(report: dict, fmt: str, output: Optional[str]) -> None:
    if fmt == "json":
        text = _json(report) + "\n"
    elif fmt == "csv":
        rows = report.get("rows", [report])
        buf = io.StringIO()
        fieldnames = sorted({key for row in rows for key in row})
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: json.dumps(v) if isinstance(v, (list, dict)) else v
                             for k, v in row.items()})
        text = buf.getvalue()
    else:
        lines = [f"command: {report.get('command', '?')}"]
        for key, value in report.items():
            if key in ("command", "rows"):
                continue
            lines.append(f"{key}: {json.dumps(value, default=str)}")
        for row in report.get("rows", []):
            lines.append(json.dumps(row, default=str))
        text = "\n".join(lines) + "\n"
    _write(text, output)


def _write(text: str, output: Optional[str]) -> None:
    if output:
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"--output: {exc.strerror}: {output!r}") from None
    else:
        sys.stdout.write(text)


def _check_output(output: Optional[str]) -> None:
    """Reject an ``--output`` that cannot be a file, before work starts."""
    if not output:
        return
    if os.path.isdir(output):
        raise ValueError(f"--output: is a directory: {output!r}")
    parent = os.path.dirname(output) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--output: no such directory: {parent!r}")


def _add_common(parser: argparse.ArgumentParser, precision: bool = True) -> None:
    if precision:
        parser.add_argument("--precision", type=int, default=None,
                            help="working precision in bits")
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="json")
    parser.add_argument("--output", default=None, help="write report to file")


def _precision_source(args) -> str:
    return "--precision" if args.precision is not None else "ARCHPI_PRECISION"


def _precision(args, floor: int = 16) -> int:
    """The command's precision, checked against its floor and its ceiling
    in ``PRECISION_CEILING`` before any work starts."""
    prec = args.precision if args.precision is not None else _default_precision()
    if prec < floor:
        raise ValueError(f"{_precision_source(args)} must be at least {floor} bits, got {prec}")
    ceiling = PRECISION_CEILING[args.command]
    if prec > ceiling:
        raise ValueError(f"{_precision_source(args)} must be at most {ceiling} bits "
                         f"for {args.command}, got {prec}")
    return prec


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _finish(report: dict, statuses, args, precision: int, subject=_SUBJECT,
            rows=None) -> int:
    """Write ``report``, name its inconclusive rows on stderr, and return the
    exit code of its rows' ``statuses``: 1 if one is violated, else 3 if one
    is inconclusive, else 0.  The rows are ``report["rows"]`` unless
    ``rows`` are given: ``[report]`` for a report that is one row itself.

    A line names the row by its keys in ``subject``, the ``precision`` its
    checks ran at, and why: the shortfall that stopped it, why it was
    skipped, or else the overlap of a verdict.
    """
    _emit(report, args.format, args.output)
    for row, status in zip(report["rows"] if rows is None else rows, statuses):
        if status != "inconclusive":
            continue
        name = ", ".join(f"{'sample' if key == 'sample_seed' else key} {value}"
                         for key, value in row.items() if key in subject)
        reason = (f"{row['error']}: {row['message']}" if "error" in row
                  else row.get("skipped", "overlap"))
        print(f"inconclusive: {name} at {precision} bits: {reason}", file=sys.stderr)
    if "violated" in statuses:
        return EXIT_VIOLATED
    if "inconclusive" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_bounds(args) -> int:
    require_bound("m", args.m, "--m")
    require_bound("n", args.n, "--n")
    prec = _precision(args)
    measures = scheme_measures(RegularScheme(args.n, args.m), prec)
    pi_lo = (measures.p / 2).lo
    pi_hi = (measures.P / 2).hi
    report = {
        "command": "bounds",
        "n": args.n,
        "m": args.m,
        "precision": prec,
        "edge_count": measures.scheme.edge_count,
        "pi_lo": pi_lo.decimal(30, up=False),
        "pi_hi": pi_hi.decimal(30, up=True),
        "rows": [measures.report_row()],
    }
    _emit(report, args.format, args.output)
    return EXIT_OK


def _cmd_digits(args) -> int:
    if not 1 <= args.count <= DEFAULT_DIGIT_CAP:
        raise ValueError(f"--count must lie in 1..{DEFAULT_DIGIT_CAP}, got {args.count}")
    digits = pi_digits(args.count)
    if args.format == "text":
        _write(digits + "\n", args.output)
    else:
        report = {"command": "digits", "count": args.count, "digits": digits}
        _emit(report, args.format, args.output)
    return EXIT_OK


def _cmd_archimedes(args) -> int:
    require_bound("m_max", args.m_max, "--m-max")
    prec = _precision(args)
    rows = [
        meas.report_row()
        for meas in iter_scheme_measures(args.n, args.m_max, prec)
    ]
    report = {
        "command": "archimedes",
        "n": args.n,
        "m_max": args.m_max,
        "precision": prec,
        "rows": rows,
    }
    _emit(report, args.format, args.output)
    return EXIT_OK


@lru_cache(maxsize=1)
def _suite_keywords() -> dict:
    """Each suite's keyword parameters, by name in signature order, read once."""
    return {name: inspect.signature(suite).parameters for name, suite in SUITES.items()}


def _cmd_verify(args) -> int:
    # the flags the user set become the suite's keyword arguments; a suite
    # picks its own default for every flag left unset
    takes = _suite_keywords()[args.suite]
    given = {key: getattr(args, key) for key in _VERIFY_KEYS
             if getattr(args, key) is not None}
    for key, value in given.items():
        if key not in takes:
            flags = ", ".join(_flag(k) for k in takes if k in vars(args))
            raise ValueError(
                f"{_flag(key)} does not apply to suite {args.suite}, "
                f"which takes {flags}"
            )
        require_bound(key, value, _flag(key))
    if args.jobs is None and "jobs" in takes:
        given["jobs"] = _env_int("ARCHPI_JOBS", 1)
        require_bound("jobs", given["jobs"], "ARCHPI_JOBS")
    if args.precision is not None or "ARCHPI_PRECISION" in os.environ:
        given["precision"] = _precision(args)
    precision = given.get("precision", takes["precision"].default)
    result = run_suite(args.suite, **given)
    report = {
        "command": "verify",
        "suite": result.suite,
        "seed": given.get("seed", DEFAULT_SEED),
        "samples": result.samples,
        "violations": result.violations,
        "inconclusive": result.inconclusive,
        "rows": result.rows,
    }
    return _finish(report, [row["status"] for row in result.rows], args, precision)


def _cmd_circuit(args) -> int:
    prec = _precision(args)
    cap = Interval.exact(Dyadic(1, -args.mesh_cap_exp), prec)
    circuit = random_circuit(args.points, cap, args.seed, prec)
    measures = circuit_measures(circuit)
    report = {
        "command": "circuit",
        "seed": args.seed,
        "points": len(circuit),
        "mesh_cap_exp": args.mesh_cap_exp,
        "precision": prec,
        "measures": measures.serialize(),
    }
    if args.include_points:
        report["vertices"] = [p.serialize() for p in circuit.vertices]
    # the circuit suites' sandwich rule on both measures, kept off the report
    pi = pi_enclosure(prec)
    status = checked({}, *sandwich_checks(measures.perimeter_in, pi * 2, measures.perimeter_circ),
                     *sandwich_checks(measures.area_in, pi, measures.area_circ))["status"]
    return _finish(report, [status], args, prec, subject={"seed", "mesh_cap_exp"},
                   rows=[report])


def _cmd_trig(args) -> int:
    prec = _precision(args, floor=32)
    if args.theta is not None:
        # Fraction builds the power of ten before any check; as a mantissa
        # has at most 4300 digits, the int-to-str limit, a value whose
        # exponent lies beyond the cap is above a quarter turn or below
        # 10^-5700, which no precision up to trig's ceiling resolves
        exponent = _THETA_EXPONENT.fullmatch(args.theta)
        if exponent:
            digits = exponent[1].replace("_", "").lstrip("0")
            if len(digits) > 5 or int(digits or "0") > _THETA_EXPONENT_CAP:
                raise ValueError(f"--theta must have a decimal exponent in "
                                 f"-{_THETA_EXPONENT_CAP}..{_THETA_EXPONENT_CAP}")
        try:
            theta = Fraction(args.theta)
        except ZeroDivisionError:
            raise ValueError(f"--theta {args.theta} has a zero denominator") from None
        except ValueError as exc:
            raise ValueError(f"--theta: {exc}") from None
        thetas = [Interval.from_fraction(theta, prec)]
    else:
        require_bound("k_max", args.k_max, "--k-max")
        thetas = [Interval.exact(Dyadic(1, -k), prec) for k in
                  range(1, args.k_max + 1)]
    rows, statuses = [], []
    for theta in thetas:
        try:
            sandwich = sandwich_report(theta, prec)
        except SHORTFALLS as exc:
            rows.append(shortfall_row({"theta": list(theta.decimal_pair(17))}, prec, exc))
            statuses.append("inconclusive")
            continue
        rows.append(sandwich.serialize())
        # the suites' rule on the two verdicts, kept off the row
        statuses.append(checked({}, (LESS, sandwich.lower_verdict),
                                (LESS, sandwich.upper_verdict))["status"])
    report = {
        "command": "trig",
        "precision": prec,
        "rows": rows,
    }
    return _finish(report, statuses, args, prec, subject={"theta"})


def _sweep_row(pair: RationalLength) -> dict:
    """The ``sweep-rational`` row of ``pair``: k, N, the 17-digit decimal
    ends of its chord, ``inscribed`` and ``circumscribed``, then its
    ``winding``, formed in that order, so the first to fall short raises."""
    return {"k": pair.k, "N": pair.N, "chord": list(pair.chord.decimal_pair(17)),
            "inscribed": list(pair.inscribed.decimal_pair(17)),
            "circumscribed": list(pair.circumscribed.decimal_pair(17)),
            "winding": pair.winding}


@lru_cache(maxsize=256)
def _sweep_text(k: int, N: int, prec: int) -> _RowText:
    """The JSON text of the sweep row of ``realize_rational(k, N, prec)``,
    at the indent of an item of a report's ``rows`` list, kept per pair as
    ``realize_rational`` keeps the pair.  A row that falls short raises and
    is kept nowhere."""
    return _RowText(_json(_sweep_row(realize_rational(k, N, prec)), "    "))


def _cmd_sweep_rational(args) -> int:
    require_bound("max_n", args.max_n, "--max-n")
    prec = _precision(args)
    rows, statuses = [], []
    for k, N in coprime_pairs(args.max_n):
        try:
            # a JSON report joins the row text kept per pair
            rows.append(_sweep_text(k, N, prec) if args.format == "json"
                        else _sweep_row(realize_rational(k, N, prec)))
            statuses.append("ok")
        except SHORTFALLS as exc:
            rows.append(shortfall_row({"k": k, "N": N}, prec, exc))
            statuses.append("inconclusive")
    report = {
        "command": "sweep-rational",
        "max_n": args.max_n,
        "precision": prec,
        "rows": rows,
    }
    return _finish(report, statuses, args, prec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="archpi",
        description="Certified pi enclosures and polygon-geometry verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="pi bracket from one polygon scheme")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("digits", help="certified decimal digits of pi")
    p.add_argument("--count", type=int, required=True)
    _add_common(p, precision=False)
    p.set_defaults(func=_cmd_digits)

    p = sub.add_parser("archimedes", help="refinement table for one base polygon")
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--m-max", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=_cmd_archimedes)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    for key in _VERIFY_KEYS:
        p.add_argument(_flag(key), type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("circuit", help="generate and measure a random circuit")
    p.add_argument("--points", type=int, default=3)
    p.add_argument("--mesh-cap-exp", type=int, default=2,
                   help="mesh cap 2^-k for this exponent k")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--include-points", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_circuit)

    p = sub.add_parser("trig", help="certified sine/cosine sandwich table")
    p.add_argument("--theta", default=None,
                   help="arclength as a fraction, e.g. 1/8 or 0.125")
    p.add_argument("--k-max", type=int, default=16,
                   help="tabulate theta = 2^-k for k = 1..k-max")
    _add_common(p)
    p.set_defaults(func=_cmd_trig)

    p = sub.add_parser("sweep-rational", help="winding chord sweep")
    p.add_argument("--max-n", type=int, default=24)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep_rational)

    # argparse's own usage line wraps differently across interpreters; set
    # after add_subparsers, which reads it into every command's prog
    indent = "\n" + " " * len("usage: archpi ")
    parser.usage = f"%(prog)s [-h]{indent}{{{','.join(sub.choices)}}}{indent}..."
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process: it reads no environment and keeps no state."""
    return build_parser()


@lru_cache(maxsize=1)
def _flag_table(parser: argparse.ArgumentParser) -> dict:
    """Per command name: its option strings, each mapped to its action, its
    positionals, its defaults (the command's name and ``func`` among them),
    and its required actions, read off ``parser``.

    A command with an action other than a one-value store, a ``store_true``
    or help, or with a mutually exclusive group, has no entry.  Keyed by the
    parser, so the table of a new parser is read off that parser.
    """
    commands = next(action.choices for action in parser._actions
                    if action.dest == "command")
    table = {}
    for name, command in commands.items():
        actions = [action for action in command._actions
                   if not isinstance(action, argparse._HelpAction)]
        if command._mutually_exclusive_groups or not all(
                type(action) is argparse._StoreTrueAction
                or (type(action) is argparse._StoreAction and action.nargs is None)
                for action in actions):
            continue
        defaults = {"command": name}
        for action in actions:
            if action.default is not argparse.SUPPRESS:
                defaults.setdefault(action.dest, action.default)
        for dest, value in command._defaults.items():
            defaults.setdefault(dest, value)
        table[name] = (
            {option: action for action in actions for option in action.option_strings},
            [action for action in actions if not action.option_strings],
            defaults,
            {action for action in actions if action.required},
        )
    return table


def _plain_parse(argv) -> Optional[argparse.Namespace]:
    """``_parser().parse_args(argv)`` for a plain request (see the module
    docstring), else None: any other request, whether argparse would take
    it or refuse or explain it, is left to the full parser, so this reports
    no error itself."""
    entry = _flag_table(_parser()).get(argv[0]) if argv else None
    if entry is None:
        return None
    options, positionals, defaults, required = entry
    values = dict(defaults)
    seen = set()
    words = iter(argv[1:])
    pending = iter(positionals)
    for word in words:
        action = options.get(word)
        if action is None:
            if word.startswith("-"):
                return None
            action = next(pending, None)
            if action is None:
                return None
            value = word
        elif action.nargs == 0:
            values[action.dest] = action.const
            seen.add(action)
            continue
        else:
            value = next(words, "-")
            if value.startswith("-"):
                return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        seen.add(action)
    if not required <= seen:
        return None
    namespace = argparse.Namespace()
    vars(namespace).update(values)
    return namespace


def _parse_args(argv) -> argparse.Namespace:
    """``_parser().parse_args(argv)``: a plain request is read off the flag
    table, and every other one is parsed by the full parser."""
    if argv is None:
        argv = sys.argv[1:]
    return _plain_parse(argv) or _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _check_output(args.output)
        return args.func(args)
    except SHORTFALLS as exc:
        # every CLI input is checked before work starts, so these come only
        # from operands too wide at this precision
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except PrecisionCeiling as exc:
        print(f"error: {_precision_source(args)}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArchpiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
