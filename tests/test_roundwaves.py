import math
import re
import sys
import warnings

import numpy as np
import pytest

from quantumtoss import roundwaves
from quantumtoss.cli import run_cli
from quantumtoss.errors import ConvergenceError, InputError
from quantumtoss.roundwaves import (
    COMPARE_N_MAX,
    PEAKS_N_MAX,
    classical_mixture_density,
    compare_quantum_classical,
    correlation_eigenfunction,
    density_peaks,
    divergence_scan,
    psi,
    uniform_grid,
)

from oracles import eigenfunction_residual, hermite, hermite_zeros, scan_density_maxima, schrodinger_residual


def quad_grid(n, step=1e-3):
    half = math.sqrt(2.0 * n + 1.0) + 6.0
    samples = int(round(2.0 * half / step)) + 1
    xi = np.linspace(-half, half, samples)
    return xi, xi[1] - xi[0]


def trapezoid(y, dx):
    return float(dx * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def test_hermite_small_orders():
    assert hermite(2, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert hermite(4, 0.0) == pytest.approx(12.0, abs=1e-14)
    assert hermite(1, 0.0) == 0.0
    xs = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(hermite(0, xs), np.ones(9))
    np.testing.assert_allclose(hermite(3, xs), 8 * xs**3 - 12 * xs, atol=1e-12)


def test_hermite_rejects_out_of_range():
    with pytest.raises(InputError):
        hermite(-1, 0.0)
    with pytest.raises(InputError):
        hermite(301, 0.0)
    with pytest.raises(InputError):
        hermite(2, np.nan)


def test_hermite_overflow_is_input_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=r"H_300 .*\|xi\| = 8"):
            hermite(300, 8.0)
        with pytest.raises(InputError, match=r"\|xi\| = 8"):
            hermite(300, np.array([0.5, -8.0]))
    assert math.isfinite(hermite(150, 8.0))


def test_psi_ground_state_peak():
    assert psi(0, 0.0) == pytest.approx(math.pi ** (-0.25), abs=1e-15)
    assert psi(1, 0.0) == 0.0


def test_psi_matches_raw_formula_low_orders():
    xs = np.linspace(-3, 3, 31)
    for n in range(6):
        norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
        direct = hermite(n, xs) * np.exp(-0.5 * xs**2) / norm
        np.testing.assert_allclose(psi(n, xs), direct, atol=1e-12)


def test_psi_high_order_stays_bounded():
    xs = np.linspace(-25, 25, 101)
    values = psi(300, xs)
    assert np.all(np.isfinite(values))
    assert np.max(np.abs(values)) < 1.0


def test_psi_normalization_quadrature():
    xi = np.linspace(-8.0, 8.0, 16001)
    dx = xi[1] - xi[0]
    total = trapezoid(psi(3, xi) ** 2, dx)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_density_grid_invariants():
    for n in (0, 1, 2, 5, 10, 30):
        half = math.sqrt(2.0 * n + 1.0) + 6.0
        samples = int(round(2.0 * half / 1e-3)) + 1
        xi = uniform_grid(-half, half, samples)
        density = psi(n, xi) ** 2
        assert trapezoid(density, xi[1] - xi[0]) == pytest.approx(1.0, abs=1e-6)


def test_density_grid_frozen_values():
    density = psi(1, uniform_grid(-2.0, 2.0, 5)) ** 2
    # density at xi = +-1 is 2 e^{-1} / sqrt(pi)
    expected = 2.0 * math.exp(-1.0) / math.sqrt(math.pi)
    assert density[1] == pytest.approx(expected, abs=1e-12)
    assert density[3] == pytest.approx(expected, abs=1e-12)
    assert density[2] == 0.0


def test_density_grid_ground_state_peaks_at_origin():
    assert np.argmax(psi(0, uniform_grid(-4.0, 4.0, 801)) ** 2) == 400


def test_density_grid_validation():
    with pytest.raises(InputError):
        uniform_grid(2.0, -2.0, 100)
    with pytest.raises(InputError):
        uniform_grid(-2.0, 2.0, 1)
    with pytest.raises(InputError, match=r"invalid range \[-1e\+308, 1.7e\+308\]"):
        uniform_grid(-1e308, 1.7e308, 5)


@pytest.mark.parametrize("xi_min, xi_max", [
    (-sys.float_info.max, 3.0), (0.0, sys.float_info.max), (1.0, sys.float_info.max),
])
def test_uniform_grid_reaching_dbl_max_is_finite_and_ascending(xi_min, xi_max):
    # at some sample counts the last product (samples - 1) * step rounds past
    # DBL_MAX inside linspace, which then puts xi_max in that entry
    for samples in range(2, 401):
        xi = uniform_grid(xi_min, xi_max, samples)
        assert (xi.size, xi[0], xi[-1]) == (samples, xi_min, xi_max)
        assert np.all(np.isfinite(xi)) and np.all(xi[1:] > xi[:-1])


def test_densities_vanish_without_warning_on_huge_grids():
    # where xi * xi overflows, the Gaussian factor is an exact 0
    xs = np.array([-1e300, 0.0, 1e300])
    np.testing.assert_array_equal(psi(2, xs), [0.0, psi(2, 0.0), 0.0])
    center = classical_mixture_density(3, np.zeros(1))[0]
    np.testing.assert_array_equal(classical_mixture_density(3, xs), [0.0, center, 0.0])


@pytest.mark.parametrize("n", [1, 2, 5, 31, 64, 100])
def test_density_peaks_match_hermroots(n):
    # the maxima solve 2n H_{n-1} - xi H_n = 0, i.e. n H_{n-1} - H_{n+1} / 2 = 0;
    # hermroots is a test oracle only
    coef = np.zeros(n + 2)
    coef[n - 1], coef[n + 1] = n, -0.5
    roots = np.sort(np.polynomial.hermite.hermroots(coef).real)
    np.testing.assert_allclose(density_peaks(n).maxima, roots, rtol=0, atol=1e-12)


def test_density_peaks_every_order_to_the_ceiling():
    for n in range(PEAKS_N_MAX + 1):
        maxima = density_peaks(n).maxima
        assert len(maxima) == n + 1
        np.testing.assert_array_equal(maxima, -maxima[::-1])  # exact mirror symmetry
        assert np.all(np.diff(maxima) > 0)
    zs = hermite_zeros(PEAKS_N_MAX)
    assert np.all(maxima[:-1] < zs) and np.all(zs < maxima[1:])
    assert np.max(np.abs(maxima)) < math.sqrt(2.0 * PEAKS_N_MAX + 1.0)


def test_density_peaks_frozen():
    np.testing.assert_allclose(density_peaks(0).maxima, [0.0], atol=1e-12)
    np.testing.assert_allclose(density_peaks(1).maxima, [-1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(
        density_peaks(2).maxima,
        [-math.sqrt(2.5), 0.0, math.sqrt(2.5)],
        atol=1e-9,
    )


def test_density_peaks_match_grid_scan_oracle():
    for n in (1, 2, 3, 5):
        outer = math.sqrt(2.0 * n + 1.0) + 2.0
        scanned = scan_density_maxima(lambda x: psi(n, x) ** 2, -outer, outer)
        np.testing.assert_allclose(density_peaks(n).maxima, scanned, atol=1e-6)


def test_density_peaks_structure():
    for n in range(11):
        ps = density_peaks(n)
        assert len(ps.maxima) == n + 1
        np.testing.assert_allclose(ps.maxima, -ps.maxima[::-1], atol=1e-9)
        np.testing.assert_array_equal(ps.classical_centers, np.arange(-n, n + 1, 2))
        if n >= 2:
            assert np.max(np.abs(ps.maxima)) < n


def test_density_peaks_range_check():
    with pytest.raises(InputError):
        density_peaks(101)


def test_schrodinger_residual_small_and_second_order():
    grid = np.linspace(-3.0, 3.0, 121)
    assert schrodinger_residual(0, grid, 1e-3) <= 1e-5
    grid3 = np.linspace(-4.0, 4.0, 161)
    r_h = schrodinger_residual(3, grid3, 1e-3)
    r_half = schrodinger_residual(3, grid3, 5e-4)
    assert 3.2 <= r_h / r_half <= 4.8


def test_schrodinger_residual_grid_bound():
    with pytest.raises(InputError):
        schrodinger_residual(0, np.linspace(-20, 20, 11), 1e-3)


def test_classical_mixture_weights_and_centers():
    # at the centers -3, -1, 1, 3 the other components sit 2 or more apart
    xs = np.array([-3.0, -1.0, 1.0, 3.0])
    gauss = np.exp(-((xs[:, None] - xs[None, :]) ** 2)) / math.sqrt(math.pi)
    np.testing.assert_allclose(
        classical_mixture_density(3, xs), gauss @ [1 / 8, 3 / 8, 3 / 8, 1 / 8], rtol=1e-14
    )
    assert sum(math.comb(3, k) for k in range(4)) == 2**3  # exact in integers


def test_classical_density_round_zero_equals_quantum():
    xs = np.linspace(-5, 5, 101)
    np.testing.assert_allclose(
        classical_mixture_density(0, xs), psi(0, xs) ** 2, atol=1e-14
    )


def test_classical_density_first_round_center_value():
    value = classical_mixture_density(1, np.zeros(1))[0]
    assert value == pytest.approx(math.exp(-1.0) / math.sqrt(math.pi), abs=1e-12)


def test_first_round_variances_agree():
    xi, dx = quad_grid(1)
    quantum = trapezoid(xi**2 * psi(1, xi) ** 2, dx)
    classical = trapezoid(xi**2 * classical_mixture_density(1, xi), dx)
    assert quantum == pytest.approx(1.5, abs=1e-6)
    assert classical == pytest.approx(1.5, abs=1e-6)


def test_densities_are_even_functions():
    xs = np.linspace(0.0, 6.0, 301)
    for n in (0, 1, 2, 5, 9):
        np.testing.assert_allclose(psi(n, xs) ** 2, psi(n, -xs) ** 2, atol=1e-9)
        np.testing.assert_allclose(
            classical_mixture_density(n, xs), classical_mixture_density(n, -xs), atol=1e-9
        )


def test_wave_variance_matches_operator_variance():
    # <n| pi2^2 |n> / kappa2^2 and the xi^2 moment of P_n are the same number
    from quantumtoss.gamespace import GameSpace, payoff_variance

    for n in (0, 1, 3, 6):
        pv = payoff_variance(GameSpace(12, kappa2=2.0), n, 2)
        assert pv.interior
        xi, dx = quad_grid(n)
        moment = trapezoid(xi**2 * psi(n, xi) ** 2, dx)
        assert pv.value / 4.0 == pytest.approx(moment, abs=1e-6)


def test_compare_first_round():
    rep = compare_quantum_classical(1)
    assert rep.quantum_center_density == 0.0
    assert rep.classical_center_density == pytest.approx(0.2075537, abs=1e-6)
    assert rep.quantum_minimum_deeper
    np.testing.assert_allclose(rep.quantum_peaks, [-1.0, 1.0], atol=1e-9)
    np.testing.assert_array_equal(rep.classical_centers, [-1.0, 1.0])
    assert rep.quantum_variance == pytest.approx(1.5, abs=1e-6)
    assert rep.classical_variance == pytest.approx(1.5, abs=1e-6)


def test_compare_second_round_peak_deviation():
    rep = compare_quantum_classical(2)
    assert rep.outermost_quantum_peak == pytest.approx(math.sqrt(2.5), abs=1e-9)
    assert rep.outermost_classical_center == 2.0
    assert rep.outermost_classical_center - rep.outermost_quantum_peak == pytest.approx(
        0.4189, abs=1e-4
    )


def test_compare_at_the_ceiling():
    n = COMPARE_N_MAX
    rep = compare_quantum_classical(n)
    assert len(rep.quantum_peaks) == n + 1
    assert rep.quantum_variance == pytest.approx(n + 0.5, abs=1e-6)
    assert rep.classical_variance == pytest.approx(n + 0.5, abs=1e-6)
    assert rep.outermost_quantum_peak < rep.outermost_classical_center


def test_compare_range_check():
    with pytest.raises(InputError):
        compare_quantum_classical(0)
    with pytest.raises(InputError):
        compare_quantum_classical(51)


def test_correlation_eigenfunction_zero_eigenvalue():
    xi = np.linspace(0.5, 4.0, 201)
    np.testing.assert_allclose(
        correlation_eigenfunction(0.0, "printed", xi), 1.0 / xi, atol=1e-14
    )
    np.testing.assert_allclose(
        correlation_eigenfunction(0.0, "weyl", xi), xi**-0.5, atol=1e-14
    )


def test_correlation_eigenfunction_magnitude_ignores_eigenvalue():
    xi = np.linspace(0.25, 8.0, 301)
    for ordering in ("printed", "weyl"):
        base = np.abs(correlation_eigenfunction(0.0, ordering, xi))
        shifted = np.abs(correlation_eigenfunction(1.0, ordering, xi))
        np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_correlation_eigenfunction_residual_small():
    xi = np.linspace(1.0, 2.0, 4001)
    for ordering in ("printed", "weyl"):
        for lam in (0.0, 1.0):
            resid = eigenfunction_residual(lam, ordering, xi)
            scale = np.max(np.abs(correlation_eigenfunction(lam, ordering, xi)))
            assert resid <= 1e-6 * scale, (ordering, lam)


@pytest.mark.parametrize("value", [10**400, True, math.nan, math.inf])
def test_real_arguments_rejected_as_input_errors(value):
    grid = np.array([1.0, 2.0])
    with pytest.raises(InputError, match=f"^lambda must be a finite real number, got {value!r}$"):
        correlation_eigenfunction(value, "weyl", grid)
    with pytest.raises(InputError, match=f"^xi_min must be a finite real number, got {value!r}$"):
        uniform_grid(value, 8.0, 5)
    with pytest.raises(InputError, match=f"^xi_max must be a finite real number, got {value!r}$"):
        uniform_grid(-8.0, value, 5)


def test_real_arguments_accept_numpy_scalars():
    grid = np.array([1.0, 2.0])
    np.testing.assert_array_equal(
        correlation_eigenfunction(np.float32(1.0), "weyl", grid),
        correlation_eigenfunction(1.0, "weyl", grid),
    )
    np.testing.assert_array_equal(uniform_grid(np.float32(-8.0), np.int64(8), 5), np.linspace(-8.0, 8.0, 5))


def test_correlation_eigenfunction_rejects_an_overflowing_phase():
    # lam * ln(xi) beyond the largest double gave nan values; just below it
    # the phase is finite and no warning is raised
    grid = np.array([1e-3, 100.0])
    edge = sys.float_info.max / math.log(1e3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(correlation_eigenfunction(-edge * (1 - 1e-15), "printed", grid)))
        for lam in (-edge * (1 + 1e-15), 5e307, -sys.float_info.max):
            with pytest.raises(InputError, match=re.escape(f"at the grid end xi = 0.001: lambda = {lam!r}")):
                correlation_eigenfunction(lam, "printed", grid)
    with pytest.raises(InputError, match=r"xi = 1e\+300: lambda = 1e\+306$"):
        correlation_eigenfunction(1e306, "weyl", np.array([0.5, 1e300]))


def test_correlation_eigenfunction_validation():
    with pytest.raises(InputError):
        correlation_eigenfunction(0.0, "printed", np.array([-1.0, 1.0]))
    with pytest.raises(InputError):
        correlation_eigenfunction(0.0, "normal", np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        correlation_eigenfunction(0.0, "weyl", np.array([2.0, 1.0]))


EPSILONS = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4])


def test_divergence_printed_is_linear():
    rep = divergence_scan("printed", EPSILONS)
    assert rep.classification == "linear"
    assert rep.linear_residual < 1e-3
    np.testing.assert_allclose(rep.integrals, 1.0 / EPSILONS - 1.0, rtol=1e-4)


def test_divergence_weyl_is_logarithmic():
    rep = divergence_scan("weyl", EPSILONS)
    assert rep.classification == "logarithmic"
    assert rep.log_residual < 1e-3
    np.testing.assert_allclose(rep.integrals, np.log(1.0 / EPSILONS), rtol=1e-6)


@pytest.mark.parametrize("kind", ["printed", "weyl"])
def test_divergence_takes_a_cutoff_next_to_1(kind):
    # exp of the log-spaced quadrature grid rounds to repeated points there,
    # which the eigenfunction rejected as a grid that is not ascending
    eps = np.array([1.0 - 2.0**-53, 0.75, 0.5, 0.25])
    rep = divergence_scan(kind, eps)
    exact = 1.0 / eps - 1.0 if kind == "printed" else np.log(1.0 / eps)
    np.testing.assert_allclose(rep.integrals, exact, rtol=1e-6, atol=1e-15)


def test_divergence_plane_wave_is_linear():
    lengths = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    rep = divergence_scan("plane", lengths)
    assert rep.classification == "linear"
    assert rep.linear_residual < 1e-3
    np.testing.assert_allclose(rep.integrals, 2.0 * lengths, rtol=1e-12)


def test_divergence_validation():
    with pytest.raises(InputError):
        divergence_scan("printed", [0.1, 0.01, 0.001])  # too few
    with pytest.raises(InputError):
        divergence_scan("printed", [0.001, 0.01, 0.1, 0.2])  # not decreasing
    with pytest.raises(InputError):
        divergence_scan("plane", [2.0, 4.0, 3.0, 8.0])  # not increasing
    with pytest.raises(InputError):
        divergence_scan("gaussian", [0.1, 0.03, 0.01, 0.003])
    # cutoffs whose quadrature or fit overflows used to give nan and a class
    with pytest.raises(InputError, match="1e\\+160 overflow"):
        divergence_scan("plane", [2.0, 4.0, 8.0, 1e160])
    with pytest.raises(InputError, match="1e-310 overflow"):
        divergence_scan("weyl", [0.1, 0.01, 0.001, 1e-310])


def test_residual_and_divergence_reject_short_or_non_finite_input():
    with pytest.raises(InputError, match="at least 3 grid points"):
        eigenfunction_residual(0.0, "weyl", np.array([1.0, 2.0]))
    with pytest.raises(InputError, match="must be finite"):
        divergence_scan("weyl", [0.1, 0.01, np.nan, 1e-4])


def test_density_peaks_rejects_a_point_that_is_not_a_maximum(monkeypatch, capsys):
    # a hundredth of each eigenvalue moves the maxima of P_3 at +-0.602 next to
    # its zero at 0, a minimum
    eigen = roundwaves.hermitian_eigen
    monkeypatch.setattr(roundwaves, "hermitian_eigen",
                        lambda m: eigen(m)._replace(eigenvalues=eigen(m).eigenvalues / 100))
    with pytest.raises(ConvergenceError, match="is not a density maximum"):
        density_peaks(3)
    assert run_cli(["peaks", "--n", "3"]) == 1
    assert capsys.readouterr().out == ""
