"""Seeded command lists for the three benchmark workloads.

Each workload is a fixed list of command *slots*.  A slot has a kind (one
subcommand with fixed flags), a grid of sizes inside the range the
benchmark documents, and a builder that turns a size plus cost-neutral
side parameters (kappa, format, n, lambda, ...) into an argv list.

The seed picks the sizes.  Run time at a fixed size is very uneven at the
parent commit (periodic ``spectrum`` takes 0.04 s at N=27 and 4.6 s at
N=64), so sizes are drawn by rejection sampling until the predicted work
of the list, and of its median command, lies within TOTAL_TOL and
MEDIAN_TOL of a fixed per-workload budget, and the command next to the
median in cost within PAIR_TOL of the median budget.  The prediction uses
``costs.json``, in-process seconds per (kind, size) written once by
``calibrate.py``.  The table only shapes the inputs; no metric is computed
from it.  Rerunning the calibration changes which argv a seed produces, so
only a change that redefines the benchmark may do it.
"""

from __future__ import annotations

import json
import os
import random
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
COSTS_PATH = os.path.join(HERE, "costs.json")

BULK_SAMPLES = 200_000
# kappa pairs the package's own acceptance tests audit at 1e-12 kappa1 kappa2
AUDIT_KAPPAS = ((1.0, 1.0), (2.0, 0.5), (7.3, 1.1))


def _spectrum_periodic(size, rng, variant):
    argv = ["spectrum", "--rounds", str(size), "--mode", "periodic"]
    return argv + (["--format", "json"] if variant == 1 else [])


def _spectrum_finite(size, rng, variant):
    argv = ["spectrum", "--rounds", str(size)]
    if variant == 1:
        k1 = rng.choice((0.25, 0.5, 2.0, 3.0, 4.0))
        k2 = round(rng.uniform(0.25, 4.0), 2)
        argv += ["--kappa1", repr(k1), "--kappa2", repr(k2)]
    return argv


def _sweep_periodic(size, rng, variant):
    return ["sweep", "--rounds-max", str(size), "--mode", "periodic"]


def _peaks(size, rng, variant):
    return ["peaks", "--n", str(size)]


def _compare_svg(size, rng, variant):
    return ["compare", "--n", str(size), "--svg", f"compare-{variant}.svg"]


def _density_small(size, rng, variant):
    return ["density", "--n", str(size)]


def _diverge(size, rng, variant):
    kind = rng.choice(("plane", "printed", "weyl"))
    count = rng.randint(4, 7)
    if kind == "plane":
        start, ratio = rng.uniform(1.5, 5.0), rng.uniform(1.5, 3.0)
    else:
        start, ratio = rng.uniform(0.05, 0.5), rng.uniform(0.2, 0.6)
    cutoffs = [start * ratio**k for k in range(count)]
    return ["diverge", "--kind", kind, "--cutoffs", ",".join(f"{c:.6g}" for c in cutoffs)]


def _audit_json(size, rng, variant):
    k1, k2 = rng.choice(AUDIT_KAPPAS)
    mode = rng.choice(("finite", "periodic"))
    return ["audit", "--rounds", str(size), "--mode", mode,
            "--kappa1", repr(k1), "--kappa2", repr(k2), "--format", "json"]


def _operators_json(size, rng, variant):
    mode = rng.choice(("finite", "periodic"))
    return ["operators", "--rounds", str(size), "--mode", mode, "--format", "json"]


def _density_bulk(size, rng, variant):
    return ["density", "--n", str(rng.randint(1, 12)), "--samples", str(size),
            "--svg", "density.svg"]


def _classical_bulk(size, rng, variant):
    return ["classical", "--n", str(rng.randint(1, 6)), "--samples", str(size),
            "--svg", "classical.svg"]


def _corr_eigen_bulk(size, rng, variant):
    lam = round(rng.uniform(-3.0, 3.0), 3)
    ordering = rng.choice(("printed", "weyl"))
    return ["corr-eigen", "--lambda", repr(lam), "--ordering", ordering,
            "--samples", str(size)]


# kind -> (size grid, argv builder)
KINDS = {
    "spectrum-periodic": (tuple(range(24, 65)), _spectrum_periodic),
    "spectrum-finite": (tuple(range(96, 193, 4)), _spectrum_finite),
    "sweep-periodic": (tuple(range(12, 21)), _sweep_periodic),
    "peaks": (tuple(range(30, 45)), _peaks),
    "compare-svg": (tuple(range(20, 33)), _compare_svg),
    "density-small": (tuple(range(2, 13)), _density_small),
    "diverge": ((0,), _diverge),
    "audit-json": (tuple(range(150, 221, 5)), _audit_json),
    "operators-json": (tuple(range(80, 106, 5)), _operators_json),
    "density-bulk": ((BULK_SAMPLES,), _density_bulk),
    "classical-bulk": ((BULK_SAMPLES,), _classical_bulk),
    "corr-eigen-bulk": ((BULK_SAMPLES,), _corr_eigen_bulk),
}

# workload -> (slot kinds, budget of predicted in-process seconds for the
# whole list, budget for its median command).  Kinds that repeat in a
# workload get distinct sizes; the slot's position among equal kinds is the
# builder's ``variant``.  The budgets keep a pass near 6-13 s of fresh
# processes on a 2-core machine, so a 40 s run holds three to seven passes.
# The median budget holds ``cmd_p50_s`` steady across seeds, and the command
# next to the median in cost must lie near it too (see _middle_pair), so the
# pooled median of a run draws on two commands' samples, not one.  On waves
# that fixes ``compare`` at n = 30 with ``peaks`` at n = 31 beside it; on
# bulk-io the median is the fixed-size ``classical`` with ``audit`` beside it.
WORKLOADS = {
    "spectra": (
        ("spectrum-periodic", "spectrum-periodic", "spectrum-finite", "spectrum-finite",
         "sweep-periodic"),
        2.9, 0.62,
    ),
    "waves": (
        ("peaks", "peaks", "compare-svg", "density-small", "diverge"),
        3.45, 1.1,
    ),
    "bulk-io": (
        ("audit-json", "operators-json", "density-bulk", "classical-bulk",
         "corr-eigen-bulk"),
        5.4, 1.07,
    ),
}

TOTAL_TOL = 0.02
MEDIAN_TOL = 0.03
PAIR_TOL = 0.1
_MAX_DRAWS = 200_000


def load_costs() -> dict:
    """Predicted seconds per (kind, size), as ``costs.json`` holds them."""
    with open(COSTS_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {kind: {int(size): float(sec) for size, sec in table.items()}
            for kind, table in raw["seconds"].items()}


def _middle_pair(predicted):
    """The two costs at the middle of the list: the two middle ones of an
    even count, else the middle one and the nearer of its neighbours."""
    costs = sorted(predicted)
    mid = len(costs) // 2
    if len(costs) % 2 == 0:
        return costs[mid - 1], costs[mid]
    return costs[mid], min(costs[mid - 1], costs[mid + 1], key=lambda c: abs(c - costs[mid]))


def _meets_budget(workload: str, predicted: list[float]) -> bool:
    """Whether predicted per-command seconds fit the workload's budgets."""
    _, total_budget, median_budget = WORKLOADS[workload]
    return (abs(sum(predicted) - total_budget) <= TOTAL_TOL * total_budget
            and abs(statistics.median(predicted) - median_budget) <= MEDIAN_TOL * median_budget
            and all(abs(c - median_budget) <= PAIR_TOL * median_budget
                    for c in _middle_pair(predicted)))


def _draw_sizes(kinds, rng):
    sizes = []
    for i, kind in enumerate(kinds):
        grid = KINDS[kind][0]
        taken = {s for k, s in zip(kinds[:i], sizes) if k == kind}
        sizes.append(rng.choice([s for s in grid if s not in taken]))
    return sizes


def _sized(workload, seed):
    kinds = WORKLOADS[workload][0]
    costs = load_costs()
    rng = random.Random(f"{workload}:{seed}")
    for _ in range(_MAX_DRAWS):
        sizes = _draw_sizes(kinds, rng)
        if _meets_budget(workload, [costs[k][s] for k, s in zip(kinds, sizes)]):
            return sizes, rng
    raise RuntimeError(f"no size draw for {workload!r} met its budget")


def draw_sizes(workload: str, seed: int) -> list[int]:
    """The sizes ``generate`` uses, one per slot."""
    return _sized(workload, seed)[0]


def generate(workload: str, seed: int) -> list[list[str]]:
    """The workload's command list for ``seed``: same seed, same argv."""
    kinds = WORKLOADS[workload][0]
    sizes, rng = _sized(workload, seed)
    commands = []
    for i, (kind, size) in enumerate(zip(kinds, sizes)):
        variant = kinds[:i].count(kind)
        commands.append(KINDS[kind][1](size, rng, variant))
    return commands
