"""Wave-picture analysis of the game: round wavefunctions and densities.

In the dimensionless pay-off variable xi the round-n state solves
-psi'' + xi^2 psi = (2n + 1) psi, so the wavefunctions are normalized
Hermite functions.  This module evaluates them stably (a round density
on a grid is ``psi(n, uniform_grid(...)) ** 2``) and takes the density
peaks from the spectrum of the finite-mode pay-off matrix pi1 with its
last coupling set to sqrt(n).  It compares against the classical
+-1-step random walk seeded with the round-zero Gaussian, and scans the
normalization divergence of the continuous correlation eigenfunctions
under both operator orderings.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, InputError
from .gamespace import GameSpace, build_operators
from .numerics import as_int, as_real, hermitian_eigen

HERMITE_N_MAX = 300
PEAKS_N_MAX = 100
COMPARE_N_MAX = 50
# largest grid of density, classical and corr-eigen: 10^6 samples took
# 3.1 s and 248 MiB peak (`density --n 300 --svg`) on a 2-vCPU Linux VM
SAMPLES_MAX = 1_000_000
# each ordering's additive constant c in the first-order eigenvalue equation
# i (xi d/dxi + c) psi = lam psi: "printed" keeps the whole unit, "weyl" the
# symmetrized 1/2 consistent with the matrix-side product
ORDERINGS = {"printed": 1.0, "weyl": 0.5}
DIVERGENCE_KINDS = ("plane", *ORDERINGS)

_QUAD_STEP = 1e-3


def _as_grid(xi):
    x = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InputError("grid values must be finite")
    return x


def psi(n: int, xi):
    """Normalized round wavefunction psi_n(xi).

    Equals (2^n n! sqrt(pi))^(-1/2) e^(-xi^2/2) H_n(xi), evaluated through
    the normalized three-term recurrence so intermediate values stay
    bounded for every supported order.
    """
    as_int(n, "n", 0, HERMITE_N_MAX)
    x = _as_grid(xi)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    # beyond |xi| ~ 1e154 the Gaussian is exactly 0.  Past |xi| = DBL_MAX/sqrt(2)
    # the factor sqrt(2)*xi of psi_1 overflows, and inf * 0 would be nan; where
    # psi_0 is 0, psi_1 is 0 with the sign of xi
    with np.errstate(over="ignore", invalid="ignore"):
        psi_cur = math.pi ** (-0.25) * np.exp(-0.5 * x * x)
        if n > 0:
            psi_prev = psi_cur
            psi_cur = np.where(psi_prev == 0.0, 0.0 * x, math.sqrt(2.0) * x * psi_prev)
    # psi_2 .. psi_n, each from the two orders before it; none at n <= 1
    for k in range(1, n):
        psi_cur, psi_prev = (
            math.sqrt(2.0 / (k + 1)) * x * psi_cur - math.sqrt(k / (k + 1.0)) * psi_prev,
            psi_cur,
        )
    return float(psi_cur[0]) if scalar else psi_cur


def _trapezoid(y: np.ndarray, dx: float) -> float:
    return float(dx * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def uniform_grid(xi_min: float, xi_max: float, samples: int) -> np.ndarray:
    """``samples`` (2..SAMPLES_MAX) equally spaced points from xi_min to xi_max, both included."""
    samples = as_int(samples, "samples", 2, SAMPLES_MAX)
    xi_min, xi_max = as_real(xi_min, "xi_min"), as_real(xi_max, "xi_max")
    # a range whose width overflows would fill the grid with inf and nan
    if not math.isfinite(xi_max - xi_min) or xi_min >= xi_max:
        raise InputError(f"invalid range [{xi_min}, {xi_max}]")
    # near +-DBL_MAX, linspace's last product (samples - 1) * step can round
    # past the largest double before it puts xi_max in that entry; the grid
    # it returns is finite and ascending, so the overflow is not a fault
    with np.errstate(over="ignore"):
        return np.linspace(xi_min, xi_max, samples)


class PeakSet(NamedTuple):
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
    n = as_int(n, "n", 0, PEAKS_N_MAX)
    centers = np.arange(-n, n + 1, 2, dtype=float)
    if n == 0:
        return PeakSet(n=0, maxima=np.zeros(1), classical_centers=centers)

    pi1 = build_operators(GameSpace(n)).pi1
    pi1[n, n - 1] = pi1[n - 1, n] = math.sqrt(n)
    lam = hermitian_eigen(pi1).eigenvalues
    maxima = 0.5 * (lam - lam[::-1])  # folded to exact negation symmetry

    # the second difference at step 1e-4, times 1e-8: the sign is all the check reads
    d2 = psi(n, maxima + 1e-4) ** 2 - 2.0 * psi(n, maxima) ** 2 + psi(n, maxima - 1e-4) ** 2
    bad = np.flatnonzero(d2 >= 0.0)
    if bad.size:
        raise ConvergenceError(f"stationary point {float(maxima[bad[0]])!r} is not a density maximum")
    return PeakSet(n=n, maxima=maxima, classical_centers=centers)


def classical_mixture_density(n: int, grid) -> np.ndarray:
    """Density of the classical walk after n rounds, sampled on ``grid``.

    The walk takes a +-1 step per round from the round-zero Gaussian, so
    after n rounds the pay-off density is the binomial mixture, weights
    C(n, k) / 2^n, of unit Gaussians e^(-(xi - c)^2)/sqrt(pi) at centers
    c = -n, -n+2, ..., n; every component keeps the seed's standard width
    1/sqrt(2).
    """
    n = as_int(n, "n", 0, HERMITE_N_MAX)
    weights = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float) / 2.0**n
    centers = 2.0 * np.arange(n + 1) - n
    x = np.atleast_1d(_as_grid(grid))
    out = np.zeros_like(x)
    with np.errstate(over="ignore"):  # as in psi, the overflow rounds to an exact 0
        for w, c in zip(weights, centers):
            out += w * np.exp(-((x - c) ** 2)) / math.sqrt(math.pi)
    return out


class ComparisonReport(NamedTuple):
    """Quantum round density against the classical walk after n rounds: the ``compare`` row."""

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
    n = as_int(n, "n", 1, COMPARE_N_MAX)
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
        n=n,
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


def correlation_eigenfunction(lam: float, ordering: str, grid) -> np.ndarray:
    """Scaling solution xi^s of the correlation eigenvalue equation.

    ``lam`` is the eigenvalue in units of kappa1*kappa2.  The exponent is
    s = -1 - i lam ("printed" ordering) or s = -1/2 - i lam ("weyl",
    symmetrized); the imaginary part is a pure phase, so |psi| follows only
    the ordering.  The grid must be strictly positive and ascending (a point
    may repeat, as where a log-spaced grid rounds), and start where
    |psi| = xi^Re(s) is a finite double.
    """
    if ordering not in tuple(ORDERINGS):  # a tuple also answers `in` for an unhashable value
        raise InputError(f"ordering must be one of {tuple(ORDERINGS)}, got {ordering!r}")
    lam = as_real(lam, "lambda")
    x = np.atleast_1d(_as_grid(grid))
    if x.size == 0:
        raise InputError("grid must be strictly positive, got an empty grid")
    if np.any(x <= 0.0):
        raise InputError(f"grid must be strictly positive, got xi = {float(x[x <= 0.0][0])!r}")
    if np.any(np.diff(x) < 0.0):
        i = int(np.argmax(np.diff(x) < 0.0))
        raise InputError(f"grid must be ascending, got xi = {float(x[i + 1])!r} after {float(x[i])!r}")
    end = max(float(x[0]), float(x[-1]), key=lambda v: abs(math.log(v)))
    if not math.isfinite(lam * math.log(end)):
        raise InputError(f"lambda * ln(xi) overflows at the grid end xi = {end!r}: lambda = {lam!r}")
    c = ORDERINGS[ordering]  # |xi^s| = xi^-c, largest at the grid start
    if -c * math.log(x[0]) > math.log(np.finfo(float).max):
        raise InputError(f"|xi^s| = xi^-{c:g} of the {ordering} ordering overflows "
                         f"at the grid start xi = {float(x[0])!r}")
    s = complex(-c, -lam)
    return np.exp(s * np.log(x.astype(complex)))


class DivergenceReport(NamedTuple):
    """Cut-off scan of a non-normalizable state's norm integral: the ``diverge`` row."""

    kind: str
    classification: str
    linear_residual: float
    log_residual: float
    cutoffs: np.ndarray
    integrals: np.ndarray


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
    listed = ",".join(format(c, "g") for c in cuts.ravel())
    if cuts.ndim != 1 or cuts.size < 4:
        raise InputError(f"need at least 4 cutoffs, got {cuts.size}: {listed}")
    if not np.all(np.isfinite(cuts)):
        raise InputError(f"cutoffs must be finite, got {listed}")

    # a cutoff far enough out overflows the quadrature or the fit; numpy's
    # floating-point errors are raised and reported as a bad cutoff list
    try:
        with np.errstate(over="raise", invalid="raise"):
            if kind == "plane":
                if np.any(cuts <= 1.0) or np.any(np.diff(cuts) <= 0.0):
                    raise InputError(f"plane-wave cutoffs must be increasing and > 1, got {listed}")
            elif np.any(cuts <= 0.0) or np.any(cuts >= 1.0) or np.any(np.diff(cuts) >= 0.0):
                raise InputError(f"cutoffs must be a decreasing sequence in (0, 1), got {listed}")
            # each norm integrand on its quadrature variable t: plane |e^(i xi)|^2
            # with t = xi, printed/weyl |xi^s|^2 xi with t = log xi
            integrals = []
            for cut in cuts:
                if kind == "plane":
                    t = xi = np.linspace(-cut, cut, 4097)
                    density = np.abs(np.exp(1j * xi)) ** 2
                else:
                    t = np.linspace(math.log(cut), 0.0, 8193)
                    xi = np.exp(t)
                    density = np.abs(correlation_eigenfunction(0.0, kind, xi)) ** 2 * xi
                integrals.append(_trapezoid(density, t[1] - t[0]))
            integrals = np.array(integrals)
            x_lin = cuts if kind == "plane" else 1.0 / cuts
            linear_residual = _fit_relative_residual(x_lin, integrals)
            log_residual = _fit_relative_residual(np.log(x_lin), integrals)
    except FloatingPointError:
        raise InputError(f"cutoffs {listed} overflow the norm integrals or their fit") from None
    classification = "linear" if linear_residual <= log_residual else "logarithmic"
    return DivergenceReport(
        kind=kind,
        classification=classification,
        linear_residual=linear_residual,
        log_residual=log_residual,
        cutoffs=cuts,
        integrals=integrals,
    )
