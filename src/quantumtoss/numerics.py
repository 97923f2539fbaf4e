"""Dense complex linear algebra on numpy arrays.

Matrices are plain ``complex128`` numpy arrays; all functions treat their
arguments as immutable and return fresh arrays.  Besides validation, the
adjoint, norms and expectation values, the module has an error-free (Dekker)
commutator and a self-contained Hermitian eigensolver (complex Jacobi sweeps
in a fixed round-robin ordering, each step a batch of disjoint rotations), so
that its rotation order, tie-breaking and phase convention are fully pinned
down and runs are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError

HERMITIAN_TOL = 1e-12
EIGEN_TOL = 1e-10
EIGEN_DIM_MAX = 512
STATE_NORM_TOL = 1e-12

_MAX_SWEEPS = 60


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a square complex128 array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InputError("matrix entries must be finite")
    return a


def as_state(v, dim: int | None = None) -> np.ndarray:
    """Validate ``v`` as a finite unit vector (2-norm within 1e-12 of 1)."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InputError("state components must be finite")
    if dim is not None and a.size != dim:
        raise InputError(f"state has length {a.size}, expected {dim}")
    nrm = float(np.linalg.norm(a))
    if abs(nrm - 1.0) > STATE_NORM_TOL:
        raise InputError(f"state is not normalized: |norm - 1| = {abs(nrm - 1.0):.3e}")
    return a


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T.copy()


_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant


def _split(x):
    # (x, hi, lo) with x == hi + lo exactly in every entry (Dekker, 26-bit halves)
    hi = _SPLIT * x
    hi = hi - (hi - x)
    return x, hi, x - hi


def _two_product(x, y):
    # error-free transformation of split operands: x * y == p + e exactly
    (xv, xh, xl), (yv, yh, yl) = x, y
    p = xv * yv
    e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return p, e


def commutator(a, b) -> np.ndarray:
    """a @ b - b @ a for equal-dimension matrices.

    The products are evaluated with error-free transformed (Dekker)
    multiplications and the residues added back: the interesting output of
    a commutator is the small residue of two nearly equal products, so the
    entries must survive that cancellation at input accuracy rather than
    product-rounding accuracy.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    ar, ai, br, bi = (_split(x.copy()) for x in (a.real, a.imag, b.real, b.imag))
    out = np.empty((n, n), dtype=complex)
    # grouped as pairwise differences so swapping the arguments negates the
    # result bit-for-bit and nearly equal products cancel before summation
    for i in range(n):
        ari, aii, bri, bii = (tuple(x[i, :, None] for x in m) for m in (ar, ai, br, bi))
        p1, e1 = _two_product(ari, br)  # +re
        p2, e2 = _two_product(aii, bi)  # -re
        p5, e5 = _two_product(bri, ar)  # -re
        p6, e6 = _two_product(bii, ai)  # +re
        re = np.sum((p1 - p5) + (p6 - p2), axis=0) + np.sum((e1 - e5) + (e6 - e2), axis=0)
        p3, e3 = _two_product(ari, bi)  # +im
        p4, e4 = _two_product(aii, br)  # +im
        p7, e7 = _two_product(bri, ai)  # -im
        p8, e8 = _two_product(bii, ar)  # -im
        im = np.sum((p3 - p7) + (p4 - p8), axis=0) + np.sum((e3 - e7) + (e4 - e8), axis=0)
        out[i, :] = re + 1j * im
    return out


def expectation(state, m) -> complex:
    """<state| m |state> for a unit vector; complex in general."""
    m = as_matrix(m)
    s = as_state(state, m.shape[0])
    return complex(s.conj() @ (m @ s))


def hermitian_deviation(m) -> float:
    """max |m[i][j] - conj(m[j][i])| over all entries."""
    m = as_matrix(m)
    return float(np.max(np.abs(m - m.conj().T)))


def norm_inf(m) -> float:
    """Operator infinity norm (max absolute row sum)."""
    m = as_matrix(m)
    return float(np.max(np.sum(np.abs(m), axis=1)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Real eigenvalues (ascending) with orthonormal eigenvector columns.

    ``vectors[:, k]`` pairs with ``eigenvalues[k]``.  ``sweeps`` is the
    number of Jacobi sweeps the solver ran (0 for a diagonal matrix).
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    sweeps: int


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sweep of the round-robin parallel ordering (Brent & Luk, 1985).

    Index 0 stays put while 1 .. m-1 (m = n rounded up to even) turn one
    place per step, so each of the m - 1 steps pairs every index with a
    fresh partner and the sweep meets every pair exactly once.  Pairs with
    the padding index of odd n are dropped.  Each step is (p, q) index
    arrays with p < q, disjoint within the step.
    """
    m = n + n % 2
    ring = np.arange(1, m)
    steps = []
    for r in range(m - 1):
        order = np.concatenate(([0], np.roll(ring, -r)))
        a, b = order[: m // 2], order[: m // 2 - 1 : -1]
        p, q = np.minimum(a, b), np.maximum(a, b)
        keep = q < n
        steps.append((p[keep], q[keep]))
    return steps


def _jacobi_hermitian(a: np.ndarray, scale: float):
    """Parallel-ordered Jacobi on a complex Hermitian matrix (left unchanged).

    Each step annihilates the (p, q) entries of up to n/2 disjoint pairs at
    once with U = diag(1, e^{-i phi}) G: the phase turns a_pq real, the real
    Givens rotation G zeroes it.  U is applied to the columns and rows of
    ``a`` and to the columns of the accumulated V.  Returns (diagonal, V,
    sweeps); raises ConvergenceError with the final off-diagonal norm if
    _MAX_SWEEPS sweeps do not suffice.
    """
    n = a.shape[0]
    w = np.concatenate((a, np.eye(n, dtype=complex)))  # [a; V]: both take x <- x U
    a, v = w[:n], w[n:]
    steps = _round_robin(n)
    off = 0.0
    for sweep in range(_MAX_SWEEPS):
        offmat = a - np.diag(np.diag(a))
        off = float(np.sqrt(np.sum(offmat.real**2 + offmat.imag**2)))
        if off <= 1e-14 * scale:
            return np.diag(a).real.copy(), v, sweep
        for p, q in steps:
            app = a[p, p].real
            aqq = a[q, q].real
            apq = a[p, q]
            r = np.abs(apq)
            live = r > 1e-300
            rs = np.where(live, r, 1.0)
            theta = (aqq - app) / (2.0 * rs)
            t = np.where(live, np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0)), 0.0)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            e = np.where(live, apq.conj() / rs, 1.0)  # e^{-i phi}
            es, ec = e * s, e * c
            wp, wq = w[:, p], w[:, q]  # columns: a <- a U, V <- V U
            w[:, p] = wp * c - wq * es
            w[:, q] = wp * s + wq * ec
            ap, aq = a[p, :], a[q, :]  # rows: a <- U^H a
            a[p, :] = c[:, None] * ap - es.conj()[:, None] * aq
            a[q, :] = s[:, None] * ap + ec.conj()[:, None] * aq
            a[p, q] = 0.0
            a[q, p] = 0.0
            a[p, p] = app - t * r
            a[q, q] = aqq + t * r
    raise ConvergenceError(
        f"Jacobi sweeps did not converge: off-diagonal norm {off:.3e}", residual=off
    )


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    # first component clearly above noise sets the phase to 0
    peak = float(np.max(np.abs(vec)))
    idx = int(np.argmax(np.abs(vec) > 1e-8 * peak))
    ref = vec[idx]
    return vec * (ref.conjugate() / abs(ref))


def hermitian_eigen(m) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    The matrix, scaled to unit size by an exact power of two, is rotated
    directly by complex Jacobi sweeps in the fixed round-robin ordering, each
    step a batch of disjoint phase-times-Givens rotations, until the
    off-diagonal Frobenius norm is below 1e-14 of the whole.  Eigenvalues are
    returned ascending (stable sort); each eigenvector's first significant
    component has phase 0, so identical inputs give identical output bytes.
    ``sweeps`` counts the sweeps run.

    Raises InputError for non-Hermitian input or dimension above
    EIGEN_DIM_MAX, ConvergenceError if sweeps stall or the decomposition
    fails its own residual/orthonormality/completeness checks at EIGEN_TOL.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if n > EIGEN_DIM_MAX:
        raise InputError(f"dimension {n} exceeds the eigensolver ceiling {EIGEN_DIM_MAX}")
    deviation = hermitian_deviation(m)
    if deviation > HERMITIAN_TOL:
        raise InputError(f"matrix is not Hermitian: deviation {deviation:.3e}")

    peak = float(np.max(np.abs(m)))
    e = max(int(np.frexp(peak)[1]), -1021)  # 2^e is within a factor 2 of max |m|
    unit = m * np.ldexp(1.0, -e)
    # fold the sub-tolerance asymmetry away after scaling, where the sum
    # cannot overflow
    unit = (unit + unit.conj().T) / 2.0
    scale = float(np.sqrt(np.sum(unit.real**2 + unit.imag**2)))

    lam, vecs, sweeps = _jacobi_hermitian(unit, scale)
    order = np.argsort(lam, kind="stable")
    eigenvalues = np.ldexp(lam[order], e)
    vecs = vecs[:, order]
    for k in range(n):
        vecs[:, k] = _fix_phase(vecs[:, k])

    _check_decomposition(unit, lam[order], vecs, e)
    return SpectralDecomposition(eigenvalues, vecs, sweeps=sweeps)


def _check_decomposition(unit, lam, vecs, e):
    """Validate m = unit * 2^e with eigenvalues lam * 2^e at EIGEN_TOL.

    The residual test |m v - lambda v| <= EIGEN_TOL (1 + |m|_inf) is evaluated
    with both sides times 2^-e, an exact scaling, so entries of m far above
    the square root of the float range do not overflow it.
    """
    n = unit.shape[0]
    gram = vecs.conj().T @ vecs
    orth = float(np.max(np.abs(gram - np.eye(n))))
    resid = float(np.max(np.linalg.norm(unit @ vecs - vecs * lam, axis=0)))
    completeness = vecs @ vecs.conj().T - np.eye(n)
    resolution = float(np.max(np.sum(np.abs(completeness), axis=1)))
    bound = EIGEN_TOL * (np.ldexp(1.0, -e) + norm_inf(unit))
    if orth > EIGEN_TOL or resid > bound or resolution > EIGEN_TOL:
        resid, bound = float(np.ldexp(resid, e)), float(np.ldexp(bound, e))
        raise ConvergenceError(
            "spectral decomposition failed validation: "
            f"orthonormality {orth:.3e}, residual {resid:.3e} (bound {bound:.3e}), "
            f"completeness {resolution:.3e}",
            residual=resid,
        )
