"""Wave-picture analysis of the game: round wavefunctions and densities.

In the dimensionless pay-off variable xi the round-n state solves
-psi'' + xi^2 psi = (2n + 1) psi, so the wavefunctions are normalized
Hermite functions.  This module evaluates them stably and takes the
Hermite zeros and the density peaks from the spectrum of the finite-mode
pay-off matrix pi1, the peaks with its last coupling set to sqrt(n).  It
compares against the classical +-1-step random walk seeded with the
round-zero Gaussian, and scans the normalization divergence of the
continuous correlation eigenfunctions under both operator orderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError
from .gamespace import GameSpace, build_operators
from .numerics import hermitian_eigen

HERMITE_N_MAX = 300
PEAKS_N_MAX = 100
COMPARE_N_MAX = 50
ORDERINGS = ("printed", "weyl")
DIVERGENCE_KINDS = ("plane", "printed", "weyl")

_QUAD_STEP = 1e-3


def _check_round(n, ceiling, name="n"):
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InputError(f"{name} must be an integer")
    if n < 0:
        raise InputError(f"{name} must be non-negative")
    if n > ceiling:
        raise InputError(f"{name} = {n} exceeds the supported ceiling {ceiling}")


def _as_grid(xi):
    x = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InputError("grid values must be finite")
    return x


def hermite(n: int, xi):
    """Physicists' Hermite polynomial H_n by the forward recurrence.

    H_0 = 1, H_1 = 2 xi, H_{k+1} = 2 xi H_k - 2 k H_{k-1}.  Accepts scalars
    or arrays; orders above HERMITE_N_MAX are rejected, and so is a grid on
    which the raw polynomial values overflow (psi stays bounded there).
    """
    _check_round(n, HERMITE_N_MAX)
    x = _as_grid(xi)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    h_prev = np.ones_like(x)
    if n == 0:
        return float(h_prev[0]) if scalar else h_prev
    h = 2.0 * x
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for k in range(1, n):
            h, h_prev = 2.0 * x * h - 2.0 * k * h_prev, h
    if not np.all(np.isfinite(h)):
        big = float(np.max(np.abs(x)))
        raise InputError(f"H_{n} overflows double precision on a grid reaching |xi| = {big:.6g}")
    return float(h[0]) if scalar else h


def psi(n: int, xi):
    """Normalized round wavefunction psi_n(xi).

    Equals (2^n n! sqrt(pi))^(-1/2) e^(-xi^2/2) H_n(xi), evaluated through
    the normalized three-term recurrence so intermediate values stay
    bounded for every supported order.
    """
    _check_round(n, HERMITE_N_MAX)
    x = _as_grid(xi)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    with np.errstate(over="ignore"):  # beyond |xi| ~ 1e154 the Gaussian is exactly 0
        psi_prev = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if n == 0:
        return float(psi_prev[0]) if scalar else psi_prev
    psi_cur = math.sqrt(2.0) * x * psi_prev
    for k in range(1, n):
        psi_cur, psi_prev = (
            math.sqrt(2.0 / (k + 1)) * x * psi_cur - math.sqrt(k / (k + 1.0)) * psi_prev,
            psi_cur,
        )
    return float(psi_cur[0]) if scalar else psi_cur


def _trapezoid(y: np.ndarray, dx: float) -> float:
    return float(dx * (np.sum(y) - 0.5 * (y[0] + y[-1])))


@dataclass(frozen=True)
class DensityGrid:
    """Sampled wavefunction and probability density of round n."""

    n: int
    xi: np.ndarray
    psi: np.ndarray
    density: np.ndarray


def density_grid(n: int, xi_min: float, xi_max: float, samples: int) -> DensityGrid:
    """Uniformly sampled psi_n and P_n = psi_n^2 on [xi_min, xi_max]."""
    _check_round(n, HERMITE_N_MAX)
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise InputError("samples must be an integer")
    if samples < 2:
        raise InputError("need at least 2 samples")
    if not math.isfinite(float(xi_max) - float(xi_min)) or xi_min >= xi_max:
        raise InputError(f"invalid range [{xi_min}, {xi_max}]")
    xi = np.linspace(xi_min, xi_max, int(samples))
    wave = psi(n, xi)
    return DensityGrid(n=int(n), xi=xi, psi=wave, density=wave * wave)


def _folded_spectrum(m) -> np.ndarray:
    # ascending eigenvalues of a pi1-like matrix, folded to exact negation symmetry
    lam = hermitian_eigen(m).eigenvalues
    return 0.5 * (lam - lam[::-1])


def hermite_zeros(n: int) -> np.ndarray:
    """The n simple real zeros of H_n, ascending.

    They are the eigenvalues of the symmetric tridiagonal Jacobi matrix with
    off-diagonal sqrt(k/2), k = 1 .. n-1 (Golub & Welsch, 1969), which is
    the finite-mode pay-off matrix pi1 = (a_plus + a_minus) / sqrt(2) at
    kappa = 1 on the round states |0> ... |n-1>.  The spectrum from
    hermitian_eigen is folded to exact negation symmetry, as the zeros are.
    """
    _check_round(n, PEAKS_N_MAX)
    if n < 1:
        raise InputError("zero count is defined for n >= 1")
    return _folded_spectrum(build_operators(GameSpace(n - 1)).pi1)


@dataclass(frozen=True)
class PeakSet:
    """Locations of the n + 1 density maxima of round n."""

    n: int
    maxima: np.ndarray
    classical_centers: np.ndarray


def density_peaks(n: int) -> PeakSet:
    """All n + 1 maxima of P_n, ascending.

    A maximum solves psi_n' = sqrt(2n) psi_{n-1} - xi psi_n = 0, which turns
    the last row of xi psi = pi1 psi on |0> ... |n> (finite mode, kappa = 1)
    into xi psi_n = sqrt(2n) psi_{n-1}; a diagonal similarity makes the
    coupling symmetric.  So the maxima are the eigenvalues of that pi1 with
    entries (n, n-1) and (n-1, n) set to sqrt(n), the zeros of
    n H_{n-1} - H_{n+1} / 2.  A second-difference check confirms each one.
    """
    _check_round(n, PEAKS_N_MAX)
    centers = np.arange(-n, n + 1, 2, dtype=float)
    if n == 0:
        return PeakSet(n=0, maxima=np.zeros(1), classical_centers=centers)

    pi1 = build_operators(GameSpace(n)).pi1
    pi1[n, n - 1] = pi1[n - 1, n] = math.sqrt(n)
    maxima = _folded_spectrum(pi1)

    d2 = central_second_difference(lambda x: psi(n, x) ** 2, maxima, 1e-4)
    bad = np.flatnonzero(d2 >= 0.0)
    if bad.size:
        raise ConvergenceError(f"stationary point {float(maxima[bad[0]])!r} is not a density maximum")
    return PeakSet(n=int(n), maxima=maxima, classical_centers=centers)


def central_second_difference(fn, x, h: float):
    """(fn(x+h) - 2 fn(x) + fn(x-h)) / h^2 on scalars or arrays."""
    if not (math.isfinite(h) and h > 0):
        raise InputError("step h must be positive")
    x = _as_grid(x)
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)


def schrodinger_residual(n: int, grid, h: float) -> float:
    """Worst defect of psi_n in the round eigenvalue equation on ``grid``.

    Returns max |(-D2_h psi + xi^2 psi) - (2n + 1) psi| with D2_h the
    central second difference; second-order small in h.  The grid must stay
    within +-(sqrt(2n + 1) + 6), beyond which the density is pure underflow.
    """
    _check_round(n, HERMITE_N_MAX)
    x = _as_grid(grid)
    bound = math.sqrt(2.0 * n + 1.0) + 6.0
    if x.size == 0 or float(np.max(np.abs(x))) > bound + 1e-9:
        raise InputError(f"grid must lie within [-{bound}, {bound}]")
    d2 = central_second_difference(lambda t: psi(n, t), x, h)
    wave = psi(n, np.atleast_1d(x))
    resid = -d2 + np.atleast_1d(x) ** 2 * wave - (2.0 * n + 1.0) * wave
    return float(np.max(np.abs(resid)))


@dataclass(frozen=True)
class ClassicalMixture:
    """The +-1-per-round random walk seeded with the round-zero Gaussian.

    After n rounds the pay-off density is the binomial mixture of unit
    Gaussians e^(-(xi - c)^2)/sqrt(pi) at centers c = -n, -n+2, ..., n;
    every component keeps the seed's standard width 1/sqrt(2).
    """

    n: int
    weights: np.ndarray
    centers: np.ndarray
    component_width: float


def classical_mixture(n: int) -> ClassicalMixture:
    _check_round(n, HERMITE_N_MAX)
    ks = np.arange(n + 1)
    weights = np.array([math.comb(n, int(k)) for k in ks], dtype=float) / 2.0**n
    centers = (2.0 * ks - n).astype(float)
    return ClassicalMixture(
        n=int(n), weights=weights, centers=centers, component_width=math.sqrt(0.5)
    )


def classical_mixture_density(n: int, grid) -> np.ndarray:
    """Density of the classical walk after n rounds, sampled on ``grid``."""
    mix = classical_mixture(n)
    x = np.atleast_1d(_as_grid(grid))
    out = np.zeros_like(x)
    with np.errstate(over="ignore"):  # as in psi, the overflow rounds to an exact 0
        for w, c in zip(mix.weights, mix.centers):
            out += w * np.exp(-((x - c) ** 2)) / math.sqrt(math.pi)
    return out


@dataclass(frozen=True)
class ComparisonReport:
    """Quantum round density versus the classical walk after n rounds."""

    n: int
    quantum_peaks: np.ndarray
    classical_centers: np.ndarray
    quantum_center_density: float
    classical_center_density: float
    quantum_minimum_deeper: bool
    quantum_variance: float
    classical_variance: float
    outermost_quantum_peak: float
    outermost_classical_center: float


def compare_quantum_classical(n: int) -> ComparisonReport:
    """Peaks, central density and variances of both models after n rounds.

    Variances are computed by trapezoid quadrature at step 1e-3; both equal
    n + 1/2 up to quadrature error.  The range must cover the classical
    mixture's outermost centers at +-n, not just the quantum turning point,
    or the classical second moment loses its tails.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InputError("n must be an integer")
    if not 1 <= n <= COMPARE_N_MAX:
        raise InputError(f"n must lie in 1..{COMPARE_N_MAX}")
    peaks = density_peaks(n)
    half = max(math.sqrt(2.0 * n + 1.0), float(n)) + 6.0
    samples = int(round(2.0 * half / _QUAD_STEP)) + 1
    xi = np.linspace(-half, half, samples)
    dx = xi[1] - xi[0]
    quantum = psi(n, xi) ** 2
    classical = classical_mixture_density(n, xi)
    q_center = psi(n, 0.0) ** 2
    c_center = float(classical_mixture_density(n, np.zeros(1))[0])
    return ComparisonReport(
        n=int(n),
        quantum_peaks=peaks.maxima,
        classical_centers=peaks.classical_centers,
        quantum_center_density=float(q_center),
        classical_center_density=c_center,
        quantum_minimum_deeper=bool(q_center < c_center),
        quantum_variance=_trapezoid(xi * xi * quantum, dx),
        classical_variance=_trapezoid(xi * xi * classical, dx),
        outermost_quantum_peak=float(np.max(np.abs(peaks.maxima))),
        outermost_classical_center=float(n),
    )


def _check_ordering(ordering: str):
    if ordering not in ORDERINGS:
        raise InputError(f"ordering must be one of {ORDERINGS}, got {ordering!r}")


def _scaling_exponent(lam: float, ordering: str) -> complex:
    # "printed" keeps the whole-unit additive constant of the first-order
    # eigenvalue equation i (xi d/dxi + 1); "weyl" uses the symmetrized
    # i (xi d/dxi + 1/2) consistent with the matrix-side product.
    shift = 1.0 if ordering == "printed" else 0.5
    return complex(-shift, -lam)


def correlation_eigenfunction(lam: float, ordering: str, grid) -> np.ndarray:
    """Scaling solution xi^s of the correlation eigenvalue equation.

    ``lam`` is the eigenvalue in units of kappa1*kappa2.  The exponent is
    s = -1 - i lam ("printed" ordering) or s = -1/2 - i lam ("weyl",
    symmetrized); the imaginary part is a pure phase, so |psi| follows only
    the ordering.  The grid must be strictly positive and ascending.
    """
    _check_ordering(ordering)
    if not (isinstance(lam, (int, float)) and math.isfinite(lam)):
        raise InputError("lambda must be a finite real number")
    x = np.atleast_1d(_as_grid(grid))
    if x.size == 0 or np.any(x <= 0.0):
        raise InputError("grid must be strictly positive")
    if np.any(np.diff(x) <= 0.0):
        raise InputError("grid must be strictly ascending")
    s = _scaling_exponent(float(lam), ordering)
    return np.exp(s * np.log(x.astype(complex)))


def eigenfunction_residual(lam: float, ordering: str, grid) -> float:
    """Central-difference defect of xi^s in its first-order equation.

    Returns max over interior points of |i (xi psi' + c psi) - lam psi|
    with c the ordering's additive constant and psi' the centered
    difference; second-order small in the grid step.
    """
    x = np.atleast_1d(_as_grid(grid))
    values = correlation_eigenfunction(lam, ordering, x)
    if x.size < 3:
        raise InputError("need at least 3 grid points for the residual")
    dpsi = (values[2:] - values[:-2]) / (x[2:] - x[:-2])
    shift = 1.0 if ordering == "printed" else 0.5
    lhs = 1j * (x[1:-1] * dpsi + shift * values[1:-1])
    return float(np.max(np.abs(lhs - float(lam) * values[1:-1])))


@dataclass(frozen=True)
class DivergenceReport:
    """Cut-off scan of a non-normalizable state's norm integral."""

    kind: str
    cutoffs: np.ndarray
    integrals: np.ndarray
    linear_residual: float
    log_residual: float
    classification: str


def _fit_relative_residual(x: np.ndarray, y: np.ndarray) -> float:
    # least-squares line y ~ a + b x; residual relative to ||y||
    xm = float(np.mean(x))
    ym = float(np.mean(y))
    var = float(np.sum((x - xm) ** 2))
    b = float(np.sum((x - xm) * (y - ym))) / var if var > 0 else 0.0
    a = ym - b * xm
    resid = y - (a + b * x)
    scale = float(np.linalg.norm(y))
    return float(np.linalg.norm(resid)) / scale if scale > 0 else 0.0


def divergence_scan(kind: str, cutoffs) -> DivergenceReport:
    """Classify how a state's norm integral grows as the cut-off recedes.

    kind "plane": I(L) = integral over [-L, L] of |e^(i xi)|^2 for an
    increasing sequence of L > 1 (grows linearly — the delta-normalized
    free-player states).  kinds "printed"/"weyl": I(eps) = integral over
    [eps, 1] of |xi^s|^2 for a decreasing sequence of eps in (0, 1),
    evaluated by trapezoid quadrature in log space.  The growth is fitted
    against both a linear and a logarithmic model; the classification is
    the model with the smaller relative residual.
    """
    if kind not in DIVERGENCE_KINDS:
        raise InputError(f"kind must be one of {DIVERGENCE_KINDS}, got {kind!r}")
    cuts = np.asarray(cutoffs, dtype=float)
    if cuts.ndim != 1 or cuts.size < 4:
        raise InputError("need at least 4 cutoffs")
    if not np.all(np.isfinite(cuts)):
        raise InputError("cutoffs must be finite")

    # a cutoff far enough out overflows the quadrature or the fit; numpy's
    # floating-point errors are raised and reported as a bad cutoff list
    try:
        with np.errstate(over="raise", invalid="raise"):
            if kind == "plane":
                if np.any(cuts <= 1.0) or np.any(np.diff(cuts) <= 0.0):
                    raise InputError("plane-wave cutoffs must be increasing and > 1")
                integrals = []
                for big_l in cuts:
                    xi = np.linspace(-big_l, big_l, 4097)
                    wave = np.exp(1j * xi)
                    integrals.append(_trapezoid(np.abs(wave) ** 2, xi[1] - xi[0]))
                integrals = np.array(integrals)
                x_lin = cuts
                x_log = np.log(cuts)
            else:
                if np.any(cuts <= 0.0) or np.any(cuts >= 1.0) or np.any(np.diff(cuts) >= 0.0):
                    raise InputError("cutoffs must be a decreasing sequence in (0, 1)")
                integrals = []
                for eps in cuts:
                    u = np.linspace(math.log(eps), 0.0, 8193)
                    xi = np.exp(u)
                    wave = correlation_eigenfunction(0.0, kind, xi)
                    integrals.append(_trapezoid(np.abs(wave) ** 2 * xi, u[1] - u[0]))
                integrals = np.array(integrals)
                x_lin = 1.0 / cuts
                x_log = np.log(1.0 / cuts)

            linear_residual = _fit_relative_residual(x_lin, integrals)
            log_residual = _fit_relative_residual(x_log, integrals)
    except FloatingPointError:
        listed = ",".join(format(c, "g") for c in cuts)
        raise InputError(f"cutoffs {listed} overflow the norm integrals or their fit") from None
    classification = "linear" if linear_residual <= log_residual else "logarithmic"
    return DivergenceReport(
        kind=kind,
        cutoffs=cuts,
        integrals=integrals,
        linear_residual=linear_residual,
        log_residual=log_residual,
        classification=classification,
    )
