#!/usr/bin/env python3
"""Write bench/baseline.json: one untraced and one traced record per workload.

    python3 bench/baseline.py

Each record is the one run.py saves under bench/results/; the baseline keeps
them together as the "before" numbers for later changes.  Runs last
BENCHMARK.json's run_seconds.  The seed is pinned, so a later claim should
be rechecked on another seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import BLOCKS

HERE = Path(__file__).resolve().parent
SEED = 1


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    records = {}
    for workload in BLOCKS:
        for trace in (0, 1):
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
                check=True, timeout=600,
            )
            path = HERE / "results" / f"{workload}-s{SEED}-t{trace}.json"
            records.setdefault(workload, {})[f"trace{trace}"] = json.loads(path.read_text())
    out = HERE / "baseline.json"
    out.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
