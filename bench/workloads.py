"""Seeded request streams for the three benchmark workloads.

Each workload is an endless stream of CLI argument lists, built in blocks.
Inside a block the input sizes are stratified: every size band the workload
covers appears a fixed number of times, and only the position within a band
and the order come from the seed.  Without this, one run's few hundred
requests would differ in mix from seed to seed by more than the bounds the
benchmark gates on.  The first block is also the fixed request list of the
traced run.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List

Argv = List[str]

#: chord range and subdivision range the chord/tangent suites sample from
_ARC_LO, _ARC_HI = 6554, 130416
_N_VALUES = range(2, 33)


def _suite_sample_n(seed: int) -> int:
    """The subdivision count ``verify … --samples 1 --seed seed`` draws.

    This mirrors the suites' per-sample draw (arc chord first, then n, from
    Random(seed * 1_000_003)) so that a block can cover every n once.  If the
    suites ever draw differently, requests stay valid and the oracle reads n
    from the report itself; only the stratification is lost.
    """
    rng = random.Random((seed * 1_000_003) & 0xFFFFFFFFFFFFFFFF)
    rng.randint(_ARC_LO, _ARC_HI)
    return rng.randint(2, 32)


def _arc_compare_block(rng: random.Random) -> List[Argv]:
    """chord-compare and tangent-compare alternating, each n in 2..32 once."""
    per_suite = []
    for suite in ("chord-compare", "tangent-compare"):
        wanted = list(_N_VALUES)
        rng.shuffle(wanted)
        argvs = []
        for n in wanted:
            while True:
                seed = rng.randrange(1, 1 << 31)
                if _suite_sample_n(seed) == n:
                    break
            argvs.append(["verify", suite, "--samples", "1", "--seed", str(seed),
                          "--jobs", "1"])
        per_suite.append(argvs)
    return [argv for pair in zip(*per_suite) for argv in pair]


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> List[int]:
    """``count`` integers in [lo, hi], one drawn from each of ``count`` equal bands."""
    span = hi - lo + 1
    return [lo + int((i + rng.random()) * span / count) for i in range(count)]


def _pi_digits_block(rng: random.Random) -> List[Argv]:
    """56 digit counts, one from each band of [50, 500].

    The bands are narrow, about 8 digits, because a request's time grows
    fast with its digit count: with wide bands the median latency would
    follow the seed.
    """
    counts = _stratified(rng, 50, 500, 56)
    rng.shuffle(counts)
    return [["digits", "--count", str(c)] for c in counts]


def _circle_walks_block(rng: random.Random) -> List[Argv]:
    """9 circuits, 12 trig points and 12 rational sweeps, shuffled.

    Every mesh cap exponent 1..9 and every sweep size 5..16 appears once in
    each block, so the first block fills all three module caches.
    """
    argvs = [
        ["circuit", "--points", "3", "--mesh-cap-exp", str(e),
         "--seed", str(rng.randrange(1, 1 << 31))]
        for e in range(1, 10)
    ]
    argvs += [["trig", "--theta", f"{a}/1000"] for a in _stratified(rng, 1, 1500, 12)]
    argvs += [["sweep-rational", "--max-n", str(n)] for n in range(5, 17)]
    rng.shuffle(argvs)
    return argvs


BLOCKS: Dict[str, Callable[[random.Random], List[Argv]]] = {
    "arc-compare": _arc_compare_block,
    "pi-digits": _pi_digits_block,
    "circle-walks": _circle_walks_block,
}

#: largest digit count any workload requests, for the oracle's Machin pi
MAX_DIGITS = 500

#: requests per second each workload runs at, about, one request at a time on
#: a shared 2-CPU x86 host with Python 3.11; sizes a run to its --seconds
NOMINAL_RATE = {"arc-compare": 15, "pi-digits": 9, "circle-walks": 35}


def first_block(workload: str, seed: int) -> List[Argv]:
    return BLOCKS[workload](random.Random(f"{workload}:{seed}"))


def stream(workload: str, seed: int) -> Iterator[Argv]:
    """Endless request stream; it starts with ``first_block(workload, seed)``."""
    rng = random.Random(f"{workload}:{seed}")
    make = BLOCKS[workload]
    while True:
        yield from make(rng)
