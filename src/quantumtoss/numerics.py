"""Dense complex linear algebra on numpy arrays.

Matrices are plain ``complex128`` numpy arrays; all functions treat their
arguments as immutable and return fresh arrays.  Besides validation
(``as_matrix``, ``as_int`` and ``as_real``), the adjoint and norms, the
module has an error-free (Dekker) commutator and a self-contained Hermitian
eigensolver (Householder reduction to a real tridiagonal matrix, then
implicit QL with Wilkinson shifts), so that its rotation order,
tie-breaking and phase convention are fully pinned down and runs are
bit-reproducible.  A mean <n| M |n> in a round-number state is the matrix
element M[n, n]; no state-vector helper is needed.
"""

from __future__ import annotations

import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InputError

HERMITIAN_TOL = 1e-12
EIGEN_TOL = 1e-10
EIGEN_DIM_MAX = 512
STATE_NORM_TOL = 1e-12

_MAX_QL_ITERATIONS = 30


def as_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """Validate ``value`` as an integer in lo..hi (no upper bound if hi is None)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integer or value < lo or (hi is not None and value > hi):
        allowed = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise InputError(f"{name} must be an integer {allowed}, got {value!r}")
    return int(value)


def as_real(value, name: str, positive: bool = False) -> float:
    """Validate ``value`` as a finite real number (above 0 if ``positive``), as a float."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else np.nan
    except OverflowError:  # an int or fraction beyond the largest double
        x = np.inf
    if not np.isfinite(x) or (positive and x <= 0):
        kind = "positive finite number" if positive else "finite real number"
        raise InputError(f"{name} must be a {kind}, got {value!r}")
    return x


def as_matrix(m) -> np.ndarray:
    """Validate and return ``m`` as a square complex128 array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InputError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InputError("matrix entries must be finite")
    return a


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T.copy()


_SPLIT = 134217729.0  # 2**27 + 1, Dekker splitting constant
# float64 entries per work array of one row block of ``commutator``: 256 KiB,
# which ran audit --rounds 511 faster than 1 MiB blocks (cache-sized)
_BLOCK_WORDS = 1 << 15


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
    product-rounding accuracy.  Row i sums, in ascending order, only over
    the columns k where row i of a or of b is nonzero, so operators with a
    few nonzeros per row cost O(n^2); the result is bit-for-bit that of the
    sum over all n columns.  Rows are taken a block at a time, each row's
    columns padded to the widest row of the matrix by terms of zero weight.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    n = a.shape[0]
    rows, cols = np.nonzero((a != 0) | (b != 0))  # row by row, columns ascending
    counts = np.bincount(rows, minlength=n)
    starts = np.cumsum(counts) - counts
    # each row's columns, padded with index n: the zero row and column added below
    gather = np.full((n, int(counts.max())), n)
    gather[rows, np.arange(rows.size) - starts[rows]] = cols
    parts = [np.pad(x, (0, 1)) for x in (a.real, a.imag, b.real, b.imag)]
    out = np.empty((n, n), dtype=complex)
    step = max(1, _BLOCK_WORDS // (max(gather.shape[1], 1) * n))
    # grouped as pairwise differences so swapping the arguments negates the
    # result bit-for-bit and nearly equal products cancel before summation
    for lo in range(0, n, step):
        k = gather[lo : lo + step]
        i = np.arange(lo, lo + len(k))[:, None]
        # a dropped or padded column adds only signed zeros; the residue sums
        # are never -0, so re and im come out as over all n columns, sign
        # bits included
        ari, aii, bri, bii = (_split(x[i, k, None]) for x in parts)
        ark, aik, brk, bik = (_split(x[k, :n]) for x in parts)
        p1, e1 = _two_product(ari, brk)  # +re
        p2, e2 = _two_product(aii, bik)  # -re
        p5, e5 = _two_product(bri, ark)  # -re
        p6, e6 = _two_product(bii, aik)  # +re
        re = np.sum((p1 - p5) + (p6 - p2), axis=1) + np.sum((e1 - e5) + (e6 - e2), axis=1)
        p3, e3 = _two_product(ari, bik)  # +im
        p4, e4 = _two_product(aii, brk)  # +im
        p7, e7 = _two_product(bri, aik)  # -im
        p8, e8 = _two_product(bii, ark)  # -im
        im = np.sum((p3 - p7) + (p4 - p8), axis=1) + np.sum((e3 - e7) + (e4 - e8), axis=1)
        out[lo : lo + len(k)] = re + 1j * im
    return out


def hermitian_deviation(m) -> float:
    """max |m[i][j] - conj(m[j][i])| over all entries."""
    m = as_matrix(m)
    return float(np.max(np.abs(m - m.conj().T)))


def norm_inf(m) -> float:
    """Operator infinity norm (max absolute row sum)."""
    m = as_matrix(m)
    return float(np.max(np.sum(np.abs(m), axis=1)))


class SpectralDecomposition(NamedTuple):
    """Real eigenvalues (ascending) with orthonormal eigenvector columns.

    ``vectors[:, k]`` pairs with ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


def _phase(z: np.ndarray) -> np.ndarray:
    # z / |z| entrywise, 1 where z == 0; real divisions, since numpy's complex
    # division forms 1/|z|, which overflows for a subnormal |z|
    r = np.abs(z)
    safe = np.where(r > 0, r, 1.0)
    return np.where(r > 0, z.real / safe + 1j * (z.imag / safe), 1.0)


def _householder_tridiagonal(a: np.ndarray):
    """Reduce a complex Hermitian matrix to a real symmetric tridiagonal one.

    Returns (diagonal, off-diagonal, Q) with Q unitary and Q^H a Q the real
    tridiagonal matrix.  Column k is reflected only if an entry below its
    subdiagonal is nonzero, so a tridiagonal input passes through untouched;
    one diagonal phase then turns every subdiagonal entry into its modulus.
    """
    n = a.shape[0]
    a = a.copy()
    q = np.eye(n, dtype=complex)
    for k in range(n - 2):
        x = a[k + 1 :, k]
        if not np.any(x[1:]):
            continue
        size = float(np.max(np.abs(x)))
        v = x.real / size + 1j * (x.imag / size)  # largest entry 1: no under- or overflow
        head = _phase(v[:1])[0]
        norm = np.linalg.norm(v)
        v[0] += head * norm  # alpha = -head |x| opposes x[0]'s phase: no cancellation
        alpha = -head * (norm * size)
        v /= np.linalg.norm(v)  # the reflector I - 2 v v^H maps x to alpha e_0
        b = a[k + 1 :, k + 1 :]
        p = b @ v
        w = 2.0 * (p - (v.conj() @ p).real * v)
        b -= np.outer(v, w.conj()) + np.outer(w, v.conj())  # b <- H b H
        x[:] = 0.0
        x[0] = alpha
        qk = q[:, k + 1 :]
        qk -= np.outer(2.0 * (qk @ v), v.conj())  # q <- q H
    sub = np.diag(a, -1)
    phase = np.cumprod(np.concatenate(([1.0], _phase(sub))))
    return np.diag(a).real.copy(), np.abs(sub), q * phase


def _implicit_ql(d: list[float], e: list[float]):
    """Eigenvalues and real eigenvectors of a symmetric tridiagonal matrix.

    Implicit QL with Wilkinson shifts (tql2, Bowdler, Martin, Reinsch &
    Wilkinson 1968) on the diagonal d and the couplings e (e[i] joins i and
    i + 1), both Python floats, changed in place.  A coupling at most 2^-52
    of the largest |d_i| + |e_i| counts as zero.  Each plane rotation, as
    soon as it is computed, updates the two eigenvector rows it mixes of the
    transposed Z, as one 2x2 product.  Returns (d, Z) with the eigenvalues
    unsorted and Z's columns their eigenvectors; raises ConvergenceError
    with the coupling left if an eigenvalue takes more than
    _MAX_QL_ITERATIONS chases.
    """
    n = len(d)
    e = [*e, 0.0]
    zt = np.eye(n)  # Z transposed: row i is component i of every eigenvector
    rot = np.empty((2, 2))
    tol = 2.0**-52 * max(abs(x) + abs(y) for x, y in zip(d, e))
    for l in range(n):
        for iteration in range(_MAX_QL_ITERATIONS + 1):
            m = l
            while m < n - 1 and abs(e[m]) > tol:
                m += 1
            if m == l:
                break
            if iteration == _MAX_QL_ITERATIONS:
                raise ConvergenceError(
                    f"QL iteration did not converge in {_MAX_QL_ITERATIONS} chases: "
                    f"coupling {abs(e[l]):.3e} at index {l} of the unit-scaled matrix",
                    residual=abs(e[l]),
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))  # Wilkinson shift
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # the chase splits the matrix: stop it here
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                # rows (i, i+1) <- (c z_i - s z_{i+1}, s z_i + c z_{i+1})
                rot[0, 0] = rot[1, 1] = c
                rot[0, 1] = -s
                rot[1, 0] = s
                rows = zt[i : i + 2]
                rows[...] = np.dot(rot, rows)
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return np.array(d), zt.T


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    # in each column, the first component clearly above noise gets phase 0;
    # each factor is a scalar division, which rounds unlike the array form
    mag = np.abs(vecs)
    ref = vecs[np.argmax(mag > 1e-8 * np.max(mag, axis=0), axis=0), np.arange(vecs.shape[1])]
    return vecs * np.array([r.conjugate() / abs(r) for r in ref])


def hermitian_eigen(m) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    The matrix, scaled to unit size by an exact power of two, is reduced by
    Householder reflections to a real symmetric tridiagonal matrix (columns
    already tridiagonal are skipped, so a tridiagonal input needs only a
    diagonal phase), which implicit QL with Wilkinson shifts diagonalizes;
    the QL rotations accumulate in a real matrix that is multiplied into the
    unitary reduction once.  Eigenvalues are returned ascending (stable
    sort); each eigenvector's first significant component has phase 0, so
    identical inputs give identical output bytes.

    Raises InputError for non-Hermitian input or dimension above
    EIGEN_DIM_MAX, ConvergenceError if the QL iteration stalls or the
    decomposition fails its own residual/orthonormality/completeness checks
    at EIGEN_TOL.
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

    diagonal, couplings, q = _householder_tridiagonal(unit)
    lam, z = _implicit_ql(diagonal.tolist(), couplings.tolist())
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    vecs = _fix_phase(q @ z[:, order])

    _check_decomposition(unit, lam, vecs, e)
    return SpectralDecomposition(np.ldexp(lam, e), vecs)


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
    if not (orth <= EIGEN_TOL and resid <= bound and resolution <= EIGEN_TOL):  # nan fails too
        resid, bound = float(np.ldexp(resid, e)), float(np.ldexp(bound, e))
        raise ConvergenceError(
            "spectral decomposition failed validation: "
            f"orthonormality {orth:.3e}, residual {resid:.3e} (bound {bound:.3e}), "
            f"completeness {resolution:.3e}",
            residual=resid,
        )
