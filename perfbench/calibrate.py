"""Measure the in-process cost table ``costs.json`` that shapes the workloads.

    python3 perfbench/calibrate.py

Every (kind, size) on the grids of ``workloads.KINDS`` runs REPS times
through ``quantumtoss.cli.run_cli``; the table keeps the fastest run, the
least disturbed estimate on a shared machine.  For the FITTED kinds, whose
cost is a fixed polynomial in the size, a least-squares power law through
those entries replaces them, which removes the noise of single entries;
the eigensolver kinds keep their measured entries, because the Jacobi
sweep count really does jump from one N to the next.  Takes about 25
minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import random
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from quantumtoss.cli import run_cli  # noqa: E402

REPS = 5
FITTED = ("peaks", "compare-svg", "audit-json", "operators-json")


def _power_law(table):
    xs = [math.log(s) for s in table]
    ys = [math.log(v) for v in table.values()]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    return {s: math.exp(my + slope * (math.log(s) - mx)) for s in table}


def main() -> int:
    rng = random.Random(0)
    best: dict[str, dict[int, float]] = {k: {} for k in workloads.KINDS}
    work = os.path.join(os.path.dirname(HERE), ".bench_work", "calibrate")
    os.makedirs(work, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for rep in range(REPS):
            for kind, (grid, build) in workloads.KINDS.items():
                for size in grid:
                    argv = build(size, rng, 0)
                    start = time.perf_counter()
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = run_cli(argv)
                    elapsed = time.perf_counter() - start
                    if code != 0:
                        raise SystemExit(f"calibration command failed: {argv}")
                    prev = best[kind].get(size, float("inf"))
                    best[kind][size] = min(prev, elapsed)
                    print(f"rep {rep} {elapsed:8.3f}s {' '.join(argv)}",
                          file=sys.stderr, flush=True)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    seconds = {k: {s: round(v, 4) for s, v in sorted(t.items())} for k, t in best.items()}
    for kind in FITTED:
        seconds[kind] = _power_law(seconds[kind])
    doc = {
        "python": platform.python_version(),
        "reps": REPS,
        "fitted": list(FITTED),
        "seconds": {k: {str(s): v for s, v in t.items()} for k, t in seconds.items()},
    }
    with open(workloads.COSTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
