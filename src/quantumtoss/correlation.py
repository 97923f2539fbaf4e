"""Spectrum of the symmetrized pay-off product and per-eigenstate statistics.

In finite mode the pre-correlation matrix couples only round states two
apart, so it splits into even and odd blocks; diagonalizing block-wise keeps
every eigenstate parity-pure, which is what forces both pay-off expectations
to vanish.  Periodic wrap couplings can break parity, so that mode is
diagonalized whole and labelled "mixed".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, StructureError
from .gamespace import GameSpace, build_operators
from .numerics import (
    EIGEN_DIM_MAX,
    STATE_NORM_TOL,
    as_matrix,
    as_state,
    expectation,
    hermitian_eigen,
)

ZERO_BAND = 1e-10
PEARSON_MIN_SPREAD = 1e-12
_PATTERN_TOL = 1e-12


@dataclass(frozen=True)
class ParityBlocks:
    """Even/odd-index blocks of a |m-n| in {0, 2} coupled matrix."""

    even: np.ndarray
    odd: np.ndarray
    even_index: tuple[int, ...]
    odd_index: tuple[int, ...]


def parity_blocks(pc) -> ParityBlocks:
    """Split a matrix coupling only |m-n| in {0, 2} into parity blocks.

    Raises StructureError naming the first offending entry if any coupling
    outside that pattern exceeds the structural tolerance.
    """
    pc = as_matrix(pc)
    dim = pc.shape[0]
    tol = _PATTERN_TOL * max(1.0, float(np.max(np.abs(pc))))
    gap = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim)))
    offending = np.argwhere((gap != 0) & (gap != 2) & (np.abs(pc) > tol))
    if offending.size:
        m, n = (int(i) for i in offending[0])  # argwhere lists row-major
        raise StructureError(f"unexpected coupling at entry ({m}, {n}): {pc[m, n]!r}")
    even_index = tuple(range(0, dim, 2))
    odd_index = tuple(range(1, dim, 2))
    even = pc[np.ix_(even_index, even_index)].copy()
    odd = pc[np.ix_(odd_index, odd_index)].copy()
    return ParityBlocks(even=even, odd=odd, even_index=even_index, odd_index=odd_index)


def correlation_value(state, pi1, pi2, pc) -> float:
    """<PC> - <pi1><pi2> in a unit state; real because PC is Hermitian."""
    pc = as_matrix(pc)
    state = as_state(state, pc.shape[0])
    mean_pc = expectation(state, pc).real
    e1 = expectation(state, pi1).real
    e2 = expectation(state, pi2).real
    return float(mean_pc - e1 * e2)


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


@dataclass(frozen=True, eq=False)
class CorrelationRow:
    """One pre-correlation eigenstate and its pay-off statistics."""

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
    vector: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class CorrelationReport:
    """Eigenvalue-ascending rows for one game space."""

    gamespace: GameSpace
    rows: tuple[CorrelationRow, ...]

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([row.eigenvalue for row in self.rows])


def sign_classification(report: CorrelationReport) -> tuple[int, ...]:
    """Sign classes of the report's spectrum, in row order."""
    return tuple(int(s) for s in classify_signs(report.eigenvalues))


def _column_means(vecs: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Re <v_k| M |v_k> for every column, given images = M @ vecs."""
    return np.sum(vecs.conj() * images, axis=0).real


def correlation_spectrum(gs: GameSpace) -> CorrelationReport:
    """Diagonalize the pre-correlation operator and fill every row.

    The spectral work is done once at kappa1 = kappa2 = 1: PC is kappa1
    kappa2 PC(1) and pi_j is kappa_j pi_j(1), so the eigenvectors do not
    depend on kappa.  Eigenvalues and correlations are scaled by kappa1
    kappa2, pay-off means and spreads by kappa_j; Pearson ratios, and the
    spread below which they are withheld, are taken at kappa = 1.

    Finite mode diagonalizes the parity blocks separately (eigenstates come
    out parity-pure, pay-off expectations vanish); periodic mode
    diagonalizes the full matrix and labels rows "mixed".  Raises
    InputError before any operator is built if the dimension exceeds
    EIGEN_DIM_MAX, and InputError if the kappa scaling overflows a
    statistic.
    """
    dim = gs.dim
    if dim > EIGEN_DIM_MAX:
        raise InputError(
            f"rounds {gs.rounds_max} gives dimension {dim}, above the eigensolver "
            f"ceiling {EIGEN_DIM_MAX}"
        )
    ops = build_operators(GameSpace(gs.rounds_max, gs.mode))
    pc = ops.precorrelation

    if gs.mode == "finite":
        blocks = parity_blocks(pc)
        parts = (
            ("even", blocks.even, blocks.even_index),
            ("odd", blocks.odd, blocks.odd_index),
        )
    else:
        parts = (("mixed", pc, tuple(range(dim))),)
    values, labels, columns = [], [], []
    for label, block, index in parts:
        if block.shape[0] == 0:
            continue
        dec = hermitian_eigen(block)
        vecs = np.zeros((dim, block.shape[0]), dtype=complex)
        vecs[list(index), :] = dec.vectors
        values.append(dec.eigenvalues)
        labels.extend([label] * block.shape[0])
        columns.append(vecs)
    lam = np.concatenate(values)
    order = np.argsort(lam, kind="stable")
    lam = lam[order]
    vecs = np.concatenate(columns, axis=1)[:, order]
    labels = [labels[k] for k in order]

    norm_dev = np.abs(np.linalg.norm(vecs, axis=0) - 1.0)
    if np.max(norm_dev) > STATE_NORM_TOL:
        k = int(np.argmax(norm_dev))
        raise InputError(f"eigenvector {k} is not normalized: |norm - 1| = {norm_dev[k]:.3e}")
    pi1_vecs = ops.pi1 @ vecs
    pi2_vecs = ops.pi2 @ vecs
    e1 = _column_means(vecs, pi1_vecs)
    e2 = _column_means(vecs, pi2_vecs)
    # <v| pi^2 |v> = |pi v|^2 for Hermitian pi
    sigma1 = np.sqrt(np.maximum(np.sum(np.abs(pi1_vecs) ** 2, axis=0) - e1 * e1, 0.0))
    sigma2 = np.sqrt(np.maximum(np.sum(np.abs(pi2_vecs) ** 2, axis=0) - e2 * e2, 0.0))
    corr = _column_means(vecs, pc @ vecs) - e1 * e2

    k1, k2 = gs.kappa1, gs.kappa2
    with np.errstate(over="ignore"):  # an overflow is reported just below
        scaled = np.array([k1 * k2 * lam, k1 * e1, k2 * e2, k1 * sigma1, k2 * sigma2, k1 * k2 * corr])
    if not np.all(np.isfinite(scaled)):
        raise InputError(
            f"kappa1 = {k1:.3e}, kappa2 = {k2:.3e} overflow the spectrum statistics "
            f"(largest |eigenvalue| at kappa = 1: {float(np.max(np.abs(lam))):.3e})"
        )
    eigenvalues, exp1, exp2, spread1, spread2, correlation = scaled
    signs = classify_signs(eigenvalues)

    rows = []
    for k in range(dim):
        spread = float(sigma1[k] * sigma2[k])
        rows.append(
            CorrelationRow(
                index=k,
                eigenvalue=float(eigenvalues[k]),
                parity=labels[k],
                exp_pi1=float(exp1[k]),
                exp_pi2=float(exp2[k]),
                sigma1=float(spread1[k]),
                sigma2=float(spread2[k]),
                correlation=float(correlation[k]),
                pearson=float(corr[k] / spread) if spread > PEARSON_MIN_SPREAD else None,
                sign_class=int(signs[k]),
                vector=vecs[:, k],
            )
        )
    return CorrelationReport(gamespace=gs, rows=tuple(rows))
