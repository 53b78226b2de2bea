#!/usr/bin/env python3
"""archpi benchmark: closed-loop CLI requests, checked against independent oracles.

    python3 bench/run.py --workload arc-compare --seed 1 --seconds 18 --trace 0

One client sends requests one after another (a closed loop, ``--jobs 1``)
through ``archpi.cli.main`` in this single-threaded process, so archpi's
module caches start empty and fill during the run, as in one ``archpi``
invocation.  Workloads and metric names are listed in BENCHMARK.json.

``--trace 0`` reports the end-to-end metrics.  Two fresh processes replay
the same requests, as many as take about ``--seconds`` in all.  Every timing
is scaled to a reference host speed, measured next to it with a fixed piece
of standard-library work (reference_work); a request's latency is the
faster of its two scaled timings, and requests_per_s is requests over
the sum of those latencies (see timed_run).

``--trace 1`` reports the per-layer metrics instead: it runs the workload's
first block of requests in four fresh processes, two untraced and two
traced (tracer.py), checks that all four give the same report digest and
the two traced ones the same counts, and adds the kernel microbenchmarks of
kernels.py.  trace.overhead_ratio compares the traced and untraced pairs
with the same fastest-of filter as the timed run.

Every request's report is checked by oracle.py after the timed phase.  A
human-readable summary goes to stdout, the run record to
bench/results/<workload>-s<seed>-t<trace>.json, and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import zlib
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import List, NamedTuple, Optional

from oracle import Oracle
from workloads import BLOCKS, MAX_DIGITS, NOMINAL_RATE, first_block, stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SPEC_FILE = ROOT / "BENCHMARK.json"

SETUP_PROBES = 7
REPLAYS = 2
MIN_REQUESTS = 100
CHILD_TIMEOUT_S = 170
MAX_PROBLEMS = 20

#: about the fastest time of reference_work() between requests on a shared
#: 2-CPU x86 host with Python 3.11, so that scaled timings read close to
#: unscaled ones there when the host is quiet
REFERENCE_S = 0.39e-3


def import_cli():
    """archpi.cli from this checkout's src/, or exit if there is none."""
    if not (SRC / "archpi" / "__init__.py").is_file():
        raise SystemExit(f"bench: no archpi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from archpi import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: imported archpi from {cli.__file__}, not {SRC}")
    return cli


# -- requests ---------------------------------------------------------------------


class Reply(NamedTuple):
    """One request's outcome; the report is kept compressed so that the
    harness adds little to the run's peak memory."""

    argv: List[str]
    seconds: float
    code: Optional[int]
    packed_out: bytes
    err: str

    @property
    def out(self) -> str:
        return zlib.decompress(self.packed_out).decode()


def call(cli, argv: List[str]) -> Reply:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing request is a failed request
            code = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - start
    return Reply(argv, seconds, code, zlib.compress(out.getvalue().encode(), 1), err.getvalue())


def problems_of(oracle: Oracle, reply: Reply) -> List[str]:
    label = " ".join(reply.argv)
    if reply.code != 0:
        return [f"{label}: exit code {reply.code}: {reply.err.strip()[-300:]}"]
    try:
        return [f"{label}: {p}" for p in oracle.check(reply.argv, json.loads(reply.out))]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"{label}: malformed report ({exc!r})"]


def check_all(oracle: Oracle, replies: List[Reply]):
    """(number of failed requests, first problems)."""
    failed, problems = 0, []
    for reply in replies:
        found = problems_of(oracle, reply)
        failed += bool(found)
        problems.extend(found[: MAX_PROBLEMS - len(problems)])
    return failed, problems


def digest(replies: List[Reply]) -> str:
    h = hashlib.sha256()
    for reply in replies:
        h.update(json.dumps([reply.argv, reply.code]).encode())
        h.update(reply.out.encode())
    return h.hexdigest()


def kind_of(argv: List[str]) -> str:
    return argv[1] if argv[0] == "verify" else argv[0]


# -- host speed ------------------------------------------------------------------------


_FRACTIONS = [Fraction(3 * i + 1, 7 * i + 5) for i in range(40)]
_BIG_INTS = [(3 ** (600 + i)) | 1 for i in range(30)]


def reference_work() -> float:
    """Seconds a fixed piece of standard-library work takes right now.

    On a shared 2-CPU x86 host the CPU runs at two speeds that alternate
    every few seconds and sometimes hold for minutes, 1.3x to 2x apart, so
    raw timings from two runs differ by more than the bounds the benchmark
    gates on.  Every
    timing is therefore scaled by REFERENCE_S over the time of this work
    measured around it.  The work shares no code with archpi: a Fraction
    loop (small-integer object code, like the interval layer at 64 bits)
    and a big-integer loop (like dyadic arithmetic at 1000+ bits); the
    result is the geometric mean of their times, since the two slow down
    by different factors.  The garbage collector is off meanwhile, so that
    the size of archpi's heap does not change the time.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    acc = Fraction(1)
    for x in _FRACTIONS:
        acc = (acc * x + x) / (x + 1)
        acc = Fraction(acc.numerator % 1000003, acc.denominator % 999983 + 1)
    middle = perf_counter()
    big = 0
    for b in _BIG_INTS:
        big = (big * b + b) // (b >> 300) + math.isqrt(b)
    end = perf_counter()
    if enabled:
        gc.enable()
    return math.sqrt((middle - start) * (end - middle))


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given reference_work() times around it."""
    return seconds * REFERENCE_S * 2 / (before + after)


# -- set-up ----------------------------------------------------------------------------


def set_up(workload: str, seed: int):
    """Import archpi, make the first block of inputs and the Machin pi digits."""
    cli = import_cli()
    block = first_block(workload, seed)
    return cli, block, Oracle(MAX_DIGITS)


def setup_seconds(workload: str, seed: int) -> List[float]:
    """Set-up time, SETUP_PROBES times: each the fastest of REPLAYS fresh processes.

    A probe process reports readiness on a pipe; a blocking read returns as
    soon as it does, where polling for the process's exit would round up.
    The probe then times reference_work() on its own CPU, and its set-up
    time is scaled by that; taking the fastest of REPLAYS filters the rest
    of the host's noise, as for request latencies.
    """
    times = []
    for _ in range(SETUP_PROBES):
        spawns = []
        for _ in range(REPLAYS):
            start = perf_counter()
            with subprocess.Popen(
                [sys.executable, __file__, "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True,
            ) as proc:
                ready = proc.stdout.readline()
                seconds = perf_counter() - start
                reference = proc.stdout.read()
                if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or ready != "ready\n":
                    raise SystemExit("bench: set-up probe failed")
            spawns.append(seconds * REFERENCE_S / float(reference))
        times.append(min(spawns))
    return times


# -- child processes: one closed loop over a fixed request list -------------------------------


def child_run(workload: str, seed: int, count: int, traced: bool) -> dict:
    """Send the first ``count`` requests of the stream in this process.

    Runs as a child of timed_run or traced_run, so archpi's caches start
    empty.  With ``traced``, tracer.py's wrappers are installed for the loop.
    reference_work() runs before the first request and after each one, outside
    the request timings, so that each request can be scaled to the reference
    speed.
    """
    cli, block, oracle = set_up(workload, seed)
    requests = stream(workload, seed)
    argvs = [next(requests) for _ in range(count)]
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        references = [reference_work()]
        replies = []
        start = perf_counter()
        for argv in argvs:
            replies.append(call(cli, argv))
            references.append(reference_work())
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = check_all(oracle, replies)
    prefix = replies[: len(block)]
    result = {
        "attempted": len(replies),
        "failed": failed,
        "problems": problems,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "latencies": [r.seconds for r in replies],
        "scaled_latencies": [scaled(r.seconds, *references[i:i + 2])
                             for i, r in enumerate(replies)],
        "digest": {"requests": len(prefix), "sha256": digest(prefix)},
        "request_counts": dict(Counter(kind_of(argv) for argv in argvs)),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["bindings"] = tracer.bindings
        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / f"{workload}-s{seed}-spans.jsonl", "w") as spans:
            for span in tracer.spans:
                spans.write(json.dumps(span) + "\n")
    return result


def child(workload: str, seed: int, count: int, traced: bool = False) -> dict:
    """child_run in a fresh process; its JSON result."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--child", str(count), "--traced", str(int(traced))],
        check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- --trace 0: replayed closed loop -----------------------------------------------------------


def replay_count(workload: str, seconds: float) -> int:
    """Requests per replay: whole blocks, at least MIN_REQUESTS, and about
    ``seconds / REPLAYS`` of work at the workload's nominal rate.

    The count is fixed rather than timed so that every run does the same
    work: circle-walks pays for its cache fills once per run, and a count
    that followed the host's speed would spread that cost differently.
    """
    block = len(first_block(workload, 0))
    wanted = NOMINAL_RATE[workload] * seconds / REPLAYS
    return block * max(math.ceil(MIN_REQUESTS / block), round(wanted / block))


def best_latencies(runs, key: str = "scaled_latencies") -> List[float]:
    """Each request's fastest time over ``runs``, which sent the same requests."""
    return [min(times) for times in zip(*(run[key] for run in runs))]


def latency_metrics(best: List[float]) -> dict:
    return {
        "requests_per_s": len(best) / sum(best),
        "request_p50_ms": statistics.median(best) * 1e3,
        "request_p90_ms": statistics.quantiles(best, n=10, method="inclusive")[8] * 1e3,
    }


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """REPLAYS fresh processes send the same requests; each request counts its best time.

    Request timings are scaled to the reference speed (reference_work), which
    removes most of the host's slow phases.  The replays start with empty
    caches and send the same sequence, so request i does the same work in
    each; the fastest of its REPLAYS scaled timings is its latency, which
    filters the rest.  Every replay is checked by the
    oracle.  The unscaled figures are kept in the record.
    """
    import_cli()
    setup = setup_seconds(workload, seed)
    count = replay_count(workload, seconds)
    runs = [child(workload, seed, count) for _ in range(REPLAYS)]
    first = runs[0]
    best = best_latencies(runs)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    problems = [p for run in runs for p in run["problems"]][:MAX_PROBLEMS]
    if len({run["digest"]["sha256"] for run in runs}) != 1:
        problems.append("replays of the same requests produced different reports")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": statistics.median(setup),
            **latency_metrics(best),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        },
        "info": {
            "failed_frac": failed / attempted,
            "latency_samples": count,
            "replays": REPLAYS,
            "replay_wall_s": [run["wall_s"] for run in runs],
            "unscaled": latency_metrics(best_latencies(runs, "latencies")),
            "setup_samples_s": setup,
            "request_counts": first["request_counts"],
            "digest": first["digest"],
        },
    }


# -- --trace 1: first block, untraced and traced -------------------------------------------


def traced_run(workload: str, seed: int) -> dict:
    from tracer import COUNT_METRICS

    import_cli()
    count = len(first_block(workload, seed))
    plain = [child(workload, seed, count) for _ in range(2)]
    first = child(workload, seed, count, traced=True)
    second = child(workload, seed, count, traced=True)
    runs = (*plain, first, second)
    problems = [p for run in runs for p in run["problems"]][:MAX_PROBLEMS]
    digests = {run["digest"]["sha256"] for run in runs}
    if len(digests) != 1:
        problems.append("traced and untraced runs produced different reports")
    unequal = [k for k in COUNT_METRICS if first["layers"][k] != second["layers"][k]]
    if unequal:
        problems.append(f"counts differ between two traced runs: {unequal}")

    from kernels import kernel_metrics

    metrics = dict(first["layers"])
    metrics.update(kernel_metrics(seed))
    metrics["trace.overhead_ratio"] = (sum(best_latencies((first, second)))
                                       / sum(best_latencies(plain)))
    return {
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "problems": problems,
        "metrics": metrics,
        "info": {
            "request_counts": plain[0]["request_counts"],
            "untraced_wall_s": [run["wall_s"] for run in plain],
            "traced_wall_s": [first["wall_s"], second["wall_s"]],
            "digest": {**plain[0]["digest"], "traced_equal": len(digests) == 1},
            "counts_repeat": not unequal,
            "bindings": first["bindings"],
        },
    }


# -- output ------------------------------------------------------------------------------------


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def metric_units(spec: dict, trace: bool) -> dict:
    """name -> unit of the metrics this mode must report."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def layer_table(metrics: dict, units: dict) -> dict:
    """Per-layer metrics grouped by module, the first part of each name."""
    table = {}
    for name, value in metrics.items():
        table.setdefault(name.split(".")[0], {})[name] = {"value": value, "unit": units[name]}
    return table


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads(SPEC_FILE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # archpi.cli reads its defaults for --jobs and --precision from ARCHPI_*
    # variables; the benchmark's requests run at archpi's own defaults, and
    # every child process inherits this environment.
    for name in [name for name in os.environ if name.startswith("ARCHPI_")]:
        del os.environ[name]

    if args.setup_probe:
        set_up(args.workload, args.seed)
        print("ready", flush=True)
        print(statistics.median(reference_work() for _ in range(5)))
        return 0
    if args.child is not None:
        print(json.dumps(child_run(args.workload, args.seed, args.child, bool(args.traced))))
        return 0

    units = metric_units(spec, bool(args.trace))
    if args.trace:
        run = traced_run(args.workload, args.seed)
    else:
        run = timed_run(args.workload, args.seed, args.seconds)
    if set(run["metrics"]) != set(units):
        raise SystemExit(
            f"bench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(run['metrics']) ^ set(units))}"
        )

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "attempted": run["attempted"],
        "failed": run["failed"],
        "problems": run["problems"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in run["metrics"].items()},
        **run["info"],
    }
    if args.trace:
        record["layers"] = layer_table(run["metrics"], units)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run['attempted']} requests, {run['failed']} failed")
    samples = {}
    if not args.trace:
        timed = f"{run['info']['latency_samples']} requests x {REPLAYS} replays"
        samples = {"setup_s": f"{SETUP_PROBES} x best of {REPLAYS} probes", "requests_per_s": timed,
                   "request_p50_ms": timed, "request_p90_ms": timed,
                   "ok_frac": f"{run['attempted']} requests",
                   "peak_rss_mb": f"{REPLAYS} replays"}
    for name, value in run["metrics"].items():
        note = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:52s} {value:14.6g} {units[name]}{note}")
    if not args.trace:
        print(f"  {'failed_frac':52s} {run['info']['failed_frac']:14.6g} ratio"
              f"  (n={run['attempted']})")
        for name, value in run["info"]["unscaled"].items():
            print(f"  {'unscaled ' + name:52s} {value:14.6g} {units[name]}")
    print(f"  digest {record['digest']['sha256']} over {record['digest']['requests']} requests")
    for problem in run["problems"]:
        print(f"  problem: {problem}")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run["failed"] == 0 and not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in run["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
