"""Spectrum of the symmetrized pay-off product and per-eigenstate statistics.

The pre-correlation matrix couples only round states two apart, plus the
two periodic wrap entries (0, N-1) and (1, N), which cross parity only at
even N.  Wherever no entry crosses parity the even and odd blocks are
diagonalized apart, so every eigenstate is parity-pure, which is what forces
both pay-off expectations to vanish.  Rows are labelled "even" or "odd" in
finite mode and "mixed" throughout periodic mode.
"""

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InputError
from .gamespace import GameSpace, _check_kappa_product, build_operators
from .numerics import STATE_NORM_TOL, hermitian_eigen

ZERO_BAND = 1e-10
PEARSON_MIN_SPREAD = 1e-12


def classify_signs(eigenvalues) -> np.ndarray:
    """Map each eigenvalue to -1, 0 or +1 with a noise band around zero.

    The band is ZERO_BAND * max(1, |lambda|_max): far above eigensolver
    residuals, far below the smallest genuine nonzero eigenvalue.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    band = ZERO_BAND * max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    signs = np.zeros(lam.shape, dtype=int)
    signs[lam > band] = 1
    signs[lam < -band] = -1
    return signs


# no ``from __future__ import annotations`` here: reports.spectrum_rows reads
# the field types of CorrelationRow, which a NamedTuple would keep as ForwardRefs
class CorrelationRow(NamedTuple):
    """One pre-correlation eigenstate and its pay-off statistics: a ``spectrum`` row."""

    index: int
    eigenvalue: float
    parity: str
    exp_pi1: float
    exp_pi2: float
    sigma1: float
    sigma2: float
    correlation: float
    pearson: float | None
    sign_class: int
    vector: np.ndarray


class CorrelationReport(NamedTuple):
    """Eigenvalue-ascending rows for one game space."""

    rows: tuple[CorrelationRow, ...]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([row.eigenvalue for row in self.rows])


def _column_means(vecs: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Re <v_k| M |v_k> for every column, given images = M @ vecs."""
    return np.sum(vecs.conj() * images, axis=0).real


def correlation_spectrum(gs: GameSpace) -> CorrelationReport:
    """Diagonalize the pre-correlation operator and fill every row.

    The spectral work is done once at kappa1 = kappa2 = 1: PC is kappa1
    kappa2 PC(1) and pi_j is kappa_j pi_j(1), so the eigenvectors do not
    depend on kappa.  Eigenvalues and correlations are scaled by kappa1
    kappa2, pay-off means and spreads by kappa_j; Pearson ratios, the
    spread below which they are withheld, and the sign classes (whose zero
    band is absolute) are taken at kappa = 1.

    If no entry of PC couples an even to an odd state (always in finite
    mode, at odd N in periodic mode) the parity blocks are diagonalized
    separately, else the full matrix; the mode only picks the row labels,
    "even"/"odd" in finite mode and "mixed" in periodic mode.  Raises
    InputError up front if kappa1 kappa2 overflows or falls below the
    smallest normal double, and after the diagonalization if the kappa
    scaling overflows a statistic (GameSpace itself caps the dimension at
    EIGEN_DIM_MAX); ConvergenceError if an eigenvector comes back
    unnormalized.
    """
    # before any work: at rounds 0 and 1 PC is zero, and inf * 0 would warn
    _check_kappa_product(gs)
    k1, k2 = gs.kappa1, gs.kappa2
    dim = gs.dim
    ops = build_operators(GameSpace(gs.rounds_max, gs.mode))
    pc = ops.precorrelation

    step = 1 if np.any(pc[0::2, 1::2]) else 2  # split by parity unless an entry crosses it
    values, labels, columns = [], [], []
    for start in range(step):
        index = np.arange(start, dim, step)
        if index.size == 0:
            continue
        dec = hermitian_eigen(pc[np.ix_(index, index)])
        vecs = np.zeros((dim, index.size), dtype=complex)
        vecs[index, :] = dec.vectors
        values.append(dec.eigenvalues)
        label = ("even", "odd")[start] if step == 2 and gs.mode == "finite" else "mixed"
        labels.extend([label] * index.size)
        columns.append(vecs)
    lam = np.concatenate(values)
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    vecs = np.concatenate(columns, axis=1)[:, order]
    labels = [labels[k] for k in order]

    norm_dev = np.abs(np.linalg.norm(vecs, axis=0) - 1.0)
    if np.max(norm_dev) > STATE_NORM_TOL:
        k = int(np.argmax(norm_dev))
        raise ConvergenceError(f"eigenvector {k} is not normalized: |norm - 1| = {norm_dev[k]:.3e}")
    pi1_vecs = ops.pi1 @ vecs
    pi2_vecs = ops.pi2 @ vecs
    e1 = _column_means(vecs, pi1_vecs)
    e2 = _column_means(vecs, pi2_vecs)
    # <v| pi^2 |v> = |pi v|^2 for Hermitian pi
    sigma1 = np.sqrt(np.maximum(np.sum(np.abs(pi1_vecs) ** 2, axis=0) - e1 * e1, 0.0))
    sigma2 = np.sqrt(np.maximum(np.sum(np.abs(pi2_vecs) ** 2, axis=0) - e2 * e2, 0.0))
    corr = _column_means(vecs, pc @ vecs) - e1 * e2

    with np.errstate(over="ignore"):  # an overflow is reported just below
        scaled = np.array([k1 * k2 * lam, k1 * e1, k2 * e2, k1 * sigma1, k2 * sigma2, k1 * k2 * corr])
    if not np.all(np.isfinite(scaled)):
        raise InputError(
            f"kappa1 = {k1:.3e}, kappa2 = {k2:.3e} overflow the spectrum statistics "
            f"(largest |eigenvalue| at kappa = 1: {float(np.max(np.abs(lam))):.3e})"
        )
    eigenvalues, exp1, exp2, spread1, spread2, correlation = scaled.tolist()
    spread = sigma1 * sigma2
    pearson = [c / s if s > PEARSON_MIN_SPREAD else None
               for c, s in zip(corr.tolist(), spread.tolist())]
    signs = classify_signs(lam).tolist()  # kappa1 kappa2 > 0 keeps every sign
    rows = map(CorrelationRow, range(dim), eigenvalues, labels, exp1, exp2, spread1, spread2,
               correlation, pearson, signs, vecs.T)
    return CorrelationReport(rows=tuple(rows))
