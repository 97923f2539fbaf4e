"""Compare the output bytes of two checkouts, argv by argv.

    python tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts of this repository.  For
every argv, ``python -m quantumtoss`` runs once per checkout in a fresh
process, with that checkout's ``src/`` on PYTHONPATH and a fresh empty
working directory.  The two runs must give the same exit code, stdout,
stderr and written files (names and bytes).  The argv are every command the
three benchmark workloads draw at seeds 1-8 (``perfbench/workloads.py`` of
this script's own checkout, which is only read), then the commands pinned in
``tests/golden.py`` (each ``--svg`` given a file name), then the list below.
Each differing argv is printed with what differs, then the count; the exit
status is 1 on any difference.  Under each differing stdout or written file
that is a CSV table or a JSON document, every differing column (CSV) or
path (JSON, list indices written ``[]``) is listed with the largest
|change - parent| / max(1, |parent|) over its numbers; a column or path
whose differing fields are not all numbers is flagged ``NOT A NUMBER``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 9)
DBL_MAX = "1.7976931348623157e308"
# a file larger than this (the largest operators document is 194 MB) is
# compared by its digest alone: parsed, it would take gigabytes
FIELDS_BYTES_MAX = 32 << 20

# besides the commands of tests/golden.py: the largest JSON document, grids
# whose end product overflows inside linspace, and rejected input
PINNED = [
    ["operators", "--rounds", "511", "--format", "json"],
    ["density", "--n", "4", "--xi-min", "-" + DBL_MAX, "--xi-max", "3", "--samples", "227"],
    ["classical", "--n", "3", "--xi-min", "0", "--xi-max", DBL_MAX, "--samples", "128"],
    ["corr-eigen", "--lambda", "0", "--ordering", "weyl", "--xi-min", "1", "--xi-max", DBL_MAX,
     "--samples", "4"],
    # rejected input, each message naming its value
    ["diverge", "--kind", "weyl", "--cutoffs", "0.5,0.1,0.01"],
    ["diverge", "--kind", "plane", "--cutoffs", "2,4,inf,8"],
    ["diverge", "--kind", "plane", "--cutoffs", "2,4,3,8"],
    ["diverge", "--kind", "printed", "--cutoffs", "0.5,2,0.1,0.01"],
    ["corr-eigen", "--lambda", "1", "--xi-min", "-1", "--xi-max", "2"],
    ["spectrum", "--rounds", "0", "--mode", "periodic"],
]


def workload_argv() -> list[list[str]]:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    return [argv for name in workloads.WORKLOADS for seed in SEEDS
            for argv in workloads.generate(name, seed)]


def golden_argv() -> list[list[str]]:
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import golden

    return [[*argv, *(["fig.svg"] if svg_sha else [])]
            for argv, _, svg_sha in golden.GOLDEN_OUTPUTS]


def _digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def outcome(tree: str, argv: list[str], root: str) -> dict:
    """Run argv in ``root``/work; exit code, and the path of stdout, stderr and each written file."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    work = os.path.join(root, "work")
    os.mkdir(work)
    out, err = os.path.join(root, "stdout"), os.path.join(root, "stderr")
    with open(out, "wb") as fo, open(err, "wb") as fe:
        code = subprocess.run([sys.executable, "-m", "quantumtoss", *argv], cwd=work,
                              env=env, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe).returncode
    result = {"exit code": code, "stdout": out, "stderr": err}
    for base, _, files in os.walk(work):
        for name in files:
            path = os.path.join(base, name)
            result["file " + os.path.relpath(path, work)] = path
    return result


def _fingerprint(result: dict) -> dict:
    return {k: v if k == "exit code" else _digest(v) for k, v in result.items()}


def fields(path: str):
    """(column or JSON path, text) of every field of a CSV table or JSON document, in order;
    None for any other file, or one too large to compare field by field."""
    if path.endswith(".svg") or os.path.getsize(path) > FIELDS_BYTES_MAX:
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    if text.startswith("{"):
        out = []

        def walk(value, where):
            if isinstance(value, dict):
                for key, item in value.items():
                    walk(item, f"{where}.{key}" if where else key)
            elif isinstance(value, list):
                for item in value:
                    walk(item, where + "[]")
            else:
                out.append((where, json.dumps(value)))

        walk(json.loads(text), "")
        return out
    rows = list(csv.reader(text.splitlines(keepends=True)))
    if not rows:
        return None
    # a CSV cell may hold a comma-separated list of numbers
    return [(column, part) for row in rows[1:] for column, cell in zip(rows[0], row)
            for part in cell.split(",")]


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def field_report(before: str, after: str) -> list[str]:
    """One line per differing column or path of two CSV or JSON files."""
    old, new = fields(before), fields(after)
    if old is None or new is None:
        return []
    if [k for k, _ in old] != [k for k, _ in new]:
        return ["layout differs (other columns, paths or row counts)"]
    worst, not_numbers = {}, set()
    for (key, a), (_, b) in zip(old, new):
        if a == b:
            continue
        x, y = _number(a), _number(b)
        if x is None or y is None:
            not_numbers.add(key)
            continue
        finite = math.isfinite(x) and math.isfinite(y)
        delta = abs(y - x) / max(1.0, abs(x)) if finite else math.inf
        worst[key] = max(worst.get(key, 0.0), delta)
    lines = [f"{key}: max |delta| / max(1, |parent|) = {worst[key]:.3g}" for key in worst]
    return lines + [f"{key}: NOT A NUMBER" for key in sorted(not_numbers)]


def main(parent: str, change: str) -> int:
    argvs = []
    for argv in workload_argv() + golden_argv() + PINNED:
        if argv not in argvs:
            argvs.append(argv)
    differing = 0
    for argv in argvs:
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            before, after = outcome(parent, argv, a), outcome(change, argv, b)
            digests = _fingerprint(before), _fingerprint(after)
            if digests[0] == digests[1]:
                continue
            differing += 1
            what = sorted(k for k in before.keys() | after.keys()
                          if digests[0].get(k) != digests[1].get(k))
            print(f"differs ({', '.join(what)}): {' '.join(argv)}")
            for key in what:
                if (key == "stdout" or key.startswith("file ")) and key in before and key in after:
                    for line in field_report(before[key], after[key]):
                        print(f"  {key}: {line}")
    print(f"{differing} of {len(argvs)} argv differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/compare_outputs.py PARENT CHANGE")
    sys.exit(main(sys.argv[1], sys.argv[2]))
