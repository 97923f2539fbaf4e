"""Compare the output bytes of two checkouts, argv by argv.

    python tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts of this repository.  For
every argv, ``python -m quantumtoss`` runs once per checkout in a fresh
process, with that checkout's ``src/`` on PYTHONPATH and a fresh empty
working directory.  The two runs must give the same exit code, stdout,
stderr and written files (names and bytes).  The argv are every command the
three benchmark workloads draw at seeds 1-8 (``perfbench/workloads.py`` of
this script's own checkout, which is only read), then the pinned list below.
Each differing argv is printed with what differs, then the count; the exit
status is 1 on any difference.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 9)
DBL_MAX = "1.7976931348623157e308"

# the commands of tests/test_shell.py GOLDEN_OUTPUTS (each --svg given a
# file name), the largest JSON document, and grids whose end product
# overflows inside linspace
PINNED = [
    ["density", "--n", "3", "--samples", "401", "--svg", "fig.svg"],
    ["density", "--n", "12", "--xi-min", "-6", "--xi-max", "6.5", "--samples", "1001",
     "--svg", "fig.svg"],
    ["compare", "--n", "4", "--svg", "fig.svg"],
    ["classical", "--n", "5", "--samples", "801"],
    ["variance", "--rounds", "6", "--n", "2", "--player", "1", "--kappa1", "1.5"],
    ["variance", "--rounds", "6", "--n", "0", "--player", "2", "--kappa2", "0.7"],
    ["variance", "--rounds", "6", "--n", "6", "--player", "1", "--kappa1", "3"],
    ["variance", "--rounds", "6", "--n", "6", "--player", "2", "--kappa1", "3"],
    ["spectrum", "--rounds", "7"],
    ["spectrum", "--rounds", "6", "--format", "json", "--kappa1", "2", "--kappa2", "0.5"],
    ["spectrum", "--rounds", "7", "--mode", "periodic"],
    ["spectrum", "--rounds", "8", "--mode", "periodic", "--format", "json"],
    ["sweep", "--rounds-max", "5"],
    ["sweep", "--rounds-max", "6", "--mode", "periodic", "--format", "json"],
    ["operators", "--rounds", "4"],
    ["operators", "--rounds", "4", "--format", "json"],
    ["operators", "--rounds", "3", "--mode", "periodic", "--format", "json", "--kappa2", "2"],
    ["corr-eigen", "--lambda", "1.5", "--samples", "20000"],
    ["density", "--n", "7", "--samples", "10000", "--svg", "fig.svg"],
    ["operators", "--rounds", "40", "--mode", "periodic"],
    ["sweep", "--rounds-max", "20", "--mode", "periodic"],
    ["classical", "--n", "5", "--samples", "801", "--svg", "fig.svg"],
    ["density", "--n", "2", "--xi-min=-3", "--xi-max", "40", "--samples", "999",
     "--svg", "fig.svg"],
    ["compare", "--n", "17", "--svg", "fig.svg"],
    ["audit", "--rounds", "9", "--mode", "periodic", "--format", "json", "--kappa1", "2",
     "--kappa2", "0.5"],
    ["audit", "--rounds", "7", "--format", "json"],
    ["operators", "--rounds", "511", "--format", "json"],
    ["density", "--n", "4", "--xi-min", "-" + DBL_MAX, "--xi-max", "3", "--samples", "227"],
    ["classical", "--n", "3", "--xi-min", "0", "--xi-max", DBL_MAX, "--samples", "128"],
    ["corr-eigen", "--lambda", "0", "--ordering", "weyl", "--xi-min", "1", "--xi-max", DBL_MAX,
     "--samples", "4"],
]


def workload_argv() -> list[list[str]]:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    return [argv for name in workloads.WORKLOADS for seed in SEEDS
            for argv in workloads.generate(name, seed)]


def _digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def outcome(tree: str, argv: list[str]) -> dict:
    """Exit code and the sha256 of stdout, stderr and every written file."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    with tempfile.TemporaryDirectory() as work, tempfile.TemporaryDirectory() as streams:
        out, err = os.path.join(streams, "stdout"), os.path.join(streams, "stderr")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            code = subprocess.run([sys.executable, "-m", "quantumtoss", *argv], cwd=work,
                                  env=env, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe).returncode
        result = {"exit code": code, "stdout": _digest(out), "stderr": _digest(err)}
        for base, _, files in os.walk(work):
            for name in files:
                path = os.path.join(base, name)
                result["file " + os.path.relpath(path, work)] = _digest(path)
    return result


def main(parent: str, change: str) -> int:
    argvs = []
    for argv in workload_argv() + PINNED:
        if argv not in argvs:
            argvs.append(argv)
    differing = 0
    for argv in argvs:
        before, after = outcome(parent, argv), outcome(change, argv)
        if before != after:
            differing += 1
            what = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
            print(f"differs ({', '.join(what)}): {' '.join(argv)}")
    print(f"{differing} of {len(argvs)} argv differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/compare_outputs.py PARENT CHANGE")
    sys.exit(main(sys.argv[1], sys.argv[2]))
