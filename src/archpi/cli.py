"""Command-line surface: certified pi reports, verification suites, circuit
and trig tabulation.

Exit codes: 0 success, 1 a verification suite found a certain violation,
2 argument error (including a ``verify`` flag the suite does not take, a
size that yields no rows or is above its ceiling in ``suites.MOST``, a job
count outside 1..256, a precision above
the command's ceiling in ``PRECISION_CEILING`` or above what the chord solver
takes, and an ``--output`` that cannot be written),
3 inconclusive (interval
overlap persisting at the precision cap, a winding whose crossings stay
ambiguous on pieces of the chord enclosure one unit wide or disagree
between pieces, chords that cannot be ordered at this precision, tangents
that cannot be certified to meet, or an operand too wide for a square
root, a division or a chord at this precision).  The sampled suites, ``rational``, ``h-ratio``, ``trig-sandwich``, ``trig`` and
``sweep-rational`` turn such a shortfall into one row, print the report and
exit 3; ``main`` maps every other error to its exit code by type.
Reports are deterministic for identical argv and seed.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .chords import MAX_PRECISION as SOLVER_CEILING
from .circuits import circuit_measures, random_circuit
from .dyadic import Dyadic
from .errors import SHORTFALLS, ArchpiError, PrecisionCeiling
from .interval import Interval
from .polygons import (DEFAULT_DIGIT_CAP, RegularScheme, iter_scheme_measures,
                       pi_digits, scheme_measures)
from .rational import coprime_pairs, realize_rational, normalized_length, winding_count
from .suites import (DEFAULT_SEED, LEAST, MAX_JOBS, MOST, SUITES, run_suite,
                     shortfall_row)
from .trig import sandwich_report

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

#: the ``verify`` flags besides ``--precision``, each a suite keyword argument
_VERIFY_KEYS = (*LEAST, "seed", "jobs")
#: shortfall row keys that do not name the row
_NOT_SUBJECT = {"suite", "precision", "error", "message", "verdict", "status"}

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


def _require_jobs(source: str, jobs: int) -> None:
    """Reject a job count outside 1..``suites.MAX_JOBS``, before any worker starts."""
    if not 1 <= jobs <= MAX_JOBS:
        raise ValueError(f"{source} must lie in 1..{MAX_JOBS}, got {jobs}")


def _emit(report: dict, fmt: str, output: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, default=str) + "\n"
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


def _require_size(key: str, value: int) -> None:
    """Reject, before any work, a size below ``suites.LEAST``, where it would
    yield no rows, or above ``suites.MOST``."""
    if key in LEAST and value < LEAST[key]:
        raise ValueError(f"{_flag(key)} must be at least {LEAST[key]}, got {value}")
    if value > MOST[key]:
        raise ValueError(f"{_flag(key)} must be at most {MOST[key]}, got {value}")


def _report_shortfalls(rows) -> int:
    """One ``inconclusive:`` stderr line per shortfall row; their count."""
    short = [row for row in rows if "error" in row]
    for row in short:
        subject = ", ".join(
            f"{'sample' if key == 'sample_seed' else key} {value}"
            for key, value in row.items() if key not in _NOT_SUBJECT
        )
        print(f"inconclusive: {subject} at {row['precision']} bits: "
              f"{row['error']}: {row['message']}", file=sys.stderr)
    return len(short)


def _cmd_bounds(args) -> int:
    _require_size("m", args.m)
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
    if args.count > DEFAULT_DIGIT_CAP:
        raise ValueError(f"--count must be at most {DEFAULT_DIGIT_CAP}, got {args.count}")
    digits = pi_digits(args.count)
    if args.format == "text":
        _write(digits + "\n", args.output)
    else:
        report = {"command": "digits", "count": args.count, "digits": digits}
        _emit(report, args.format, args.output)
    return EXIT_OK


def _cmd_archimedes(args) -> int:
    _require_size("m_max", args.m_max)
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


def _cmd_verify(args) -> int:
    # the flags the user set become the suite's keyword arguments; a suite
    # picks its own default for every flag left unset
    takes = inspect.signature(SUITES[args.suite]).parameters
    given = {key: getattr(args, key) for key in _VERIFY_KEYS
             if getattr(args, key) is not None}
    for key, value in given.items():
        if key not in takes:
            flags = ", ".join(_flag(k) for k in takes if k in vars(args))
            raise ValueError(
                f"{_flag(key)} does not apply to suite {args.suite}, "
                f"which takes {flags}"
            )
        if key in LEAST:
            _require_size(key, value)
    if args.jobs is not None:
        _require_jobs("--jobs", args.jobs)
    elif "jobs" in takes:
        given["jobs"] = _env_int("ARCHPI_JOBS", 1)
        _require_jobs("ARCHPI_JOBS", given["jobs"])
    if args.precision is not None or "ARCHPI_PRECISION" in os.environ:
        given["precision"] = _precision(args)
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
    _emit(report, args.format, args.output)
    _report_shortfalls(result.rows)
    if result.violations:
        return EXIT_VIOLATED
    if result.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


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
    _emit(report, args.format, args.output)
    return EXIT_OK


def _cmd_trig(args) -> int:
    prec = _precision(args, floor=32)
    if args.theta is not None:
        try:
            theta = Fraction(args.theta)
        except ZeroDivisionError:
            raise ValueError(f"--theta {args.theta} has a zero denominator") from None
        thetas = [Interval.from_fraction(theta, prec)]
    else:
        _require_size("k_max", args.k_max)
        thetas = [Interval.exact(Dyadic(1, -k), prec) for k in
                  range(1, args.k_max + 1)]
    rows = []
    for theta in thetas:
        try:
            rows.append(sandwich_report(theta, prec).serialize())
        except SHORTFALLS as exc:
            rows.append(shortfall_row({"theta": list(theta.decimal_pair(17))}, prec, exc))
    report = {
        "command": "trig",
        "precision": prec,
        "rows": rows,
    }
    _emit(report, args.format, args.output)
    return EXIT_INCONCLUSIVE if _report_shortfalls(rows) else EXIT_OK


def _cmd_sweep_rational(args) -> int:
    _require_size("max_n", args.max_n)
    prec = _precision(args)
    rows = []
    for k, N in coprime_pairs(args.max_n):
        try:
            r = realize_rational(k, N, prec)
            row = {
                "k": k,
                "N": N,
                "chord": list(r.chord.decimal_pair(17)),
                "inscribed": list(normalized_length(r).decimal_pair(17)),
                "circumscribed": list(
                    normalized_length(r, "circumscribed").decimal_pair(17)
                ),
                "winding": winding_count(r),
            }
        except SHORTFALLS as exc:
            row = shortfall_row({"k": k, "N": N}, prec, exc)
        rows.append(row)
    report = {
        "command": "sweep-rational",
        "max_n": args.max_n,
        "precision": prec,
        "rows": rows,
    }
    _emit(report, args.format, args.output)
    return EXIT_INCONCLUSIVE if _report_shortfalls(rows) else EXIT_OK


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

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process: it reads no environment and keeps no state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
