"""Fixed reference work that gauges how fast the machine runs right now.

    python3 perfbench/reference.py

run.py starts this script in a fresh process after every command of the
workload and scales its time metrics by the mean time of these launches
(see README.md, "Host speed").  It never imports quantumtoss, so no change
to the package can move it.  Its work has the shape of the package's: an
interpreter with numpy loaded, a scalar float recurrence (as in
``roundwaves.psi``), row updates of a small matrix (as in a Jacobi sweep)
and number formatting (as in the CSV and JSON writers).  It prints a
checksum that must be the same on every run.
"""

import hashlib

import numpy as np


def main():
    # scalar three-term (Chebyshev) recurrence in Python floats
    acc = 0.0
    for start in range(120):
        two_cos = 2.0 * np.cos(0.01 * (start + 1)).item()
        p0, p1 = 1.0, 0.5
        for _ in range(2000):
            p0, p1 = p1, two_cos * p1 - p0
        acc += p1
    # plane rotations of rows and columns of a small symmetric matrix
    a = np.cos(np.add.outer(np.arange(48.0), np.arange(48.0)))
    for sweep in range(48):
        for p in range(47):
            q = p + 1
            c, s = np.cos(0.1 * sweep + 0.01 * p), np.sin(0.1 * sweep + 0.01 * p)
            rp, rq = a[p].copy(), a[q].copy()
            a[p], a[q] = c * rp - s * rq, s * rp + c * rq
            cp, cq = a[:, p].copy(), a[:, q].copy()
            a[:, p], a[:, q] = c * cp - s * cq, s * cp + c * cq
    # shortest round-trip formatting of many floats
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in np.tile(a, (12, 1)))
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    print(f"{acc:.12e} {float(np.trace(a)):.12e} {digest}")


if __name__ == "__main__":
    main()
