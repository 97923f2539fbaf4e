"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one pass/fail line per criterion (visible with -s or -v).
"""

import contextlib
import math

import numpy as np
import pytest

from quantumtoss.cli import run_cli
from quantumtoss.correlation import correlation_spectrum
from quantumtoss.gamespace import (
    GameSpace,
    audit_commutators,
    build_operators,
    ladder_commutator_diagonal,
    payoff_variance,
)
from quantumtoss.numerics import commutator, hermitian_eigen
from quantumtoss.roundwaves import (
    classical_mixture_density,
    compare_quantum_classical,
    correlation_eigenfunction,
    density_peaks,
    divergence_scan,
    psi,
)

from oracles import (
    eigenvalues_oracle,
    scan_density_maxima,
    schrodinger_residual,
    sign_classification,
)

SQRT_HALF = math.sqrt(0.5)


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {label}: FAIL")
        raise
    print(f"[acceptance] criterion {label}: PASS")


def trapezoid(y, dx):
    return float(dx * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def test_criterion_01_ladder_algebra():
    with criterion("1 (ladder algebra, both boundary modes)"):
        for rounds in range(1, 33):
            ops = build_operators(GameSpace(rounds))
            comm = commutator(ops.a_minus, ops.a_plus)
            expected = np.diag(ladder_commutator_diagonal(GameSpace(rounds)))
            assert np.max(np.abs(comm - expected)) <= 1e-14
            assert abs(np.trace(comm)) <= 1e-12

            gp = GameSpace(rounds, mode="periodic")
            ops_p = build_operators(gp)
            comm_p = commutator(ops_p.a_minus, ops_p.a_plus)
            expected_p = np.diag(ladder_commutator_diagonal(gp))
            assert np.max(np.abs(comm_p - expected_p)) <= 1e-14


def test_criterion_02_canonical_payoff_relation():
    with criterion("2 (canonical pay-off commutator on the interior)"):
        for kappa1, kappa2 in ((1.0, 1.0), (2.0, 0.5), (7.3, 1.1)):
            for rounds in (2, 5, 9, 16):
                gs = GameSpace(rounds, kappa1=kappa1, kappa2=kappa2)
                audit = audit_commutators(gs, build_operators(gs))
                assert audit.interior_max_deviation <= 1e-12 * kappa1 * kappa2
                assert audit.payoff_sign == -1  # documented matrix-convention sign


def test_criterion_03_round_state_variance():
    with criterion("3 (mean-squared pay-off law on interior states)"):
        for rounds in range(1, 33):
            for mode in ("finite", "periodic"):
                gs = GameSpace(rounds, mode=mode, kappa1=1.0, kappa2=2.0)
                lo = 0 if mode == "finite" else 1
                for n in range(lo, rounds):
                    for player, kappa in ((1, 1.0), (2, 2.0)):
                        pv = payoff_variance(gs, n, player)
                        assert pv.interior
                        expected = (n + 0.5) * kappa**2
                        assert abs(pv.value - expected) <= 1e-12 * expected


def test_criterion_04_correlation_claims():
    with criterion("4 (vanishing pay-offs, sign classes, dim-3 spectrum)"):
        for rounds in range(2, 17):
            report = correlation_spectrum(GameSpace(rounds))
            for row in report.rows:
                assert abs(row.exp_pi1) <= 1e-10
                assert abs(row.exp_pi2) <= 1e-10
            signs = sign_classification(report)
            assert set(signs) <= {-1, 0, 1}
            assert sorted(signs) == sorted(-s for s in signs)

        report3 = correlation_spectrum(GameSpace(2))
        np.testing.assert_allclose(
            report3.eigenvalues, [-SQRT_HALF, 0.0, SQRT_HALF], atol=1e-10
        )
        pearson = 2.0 * math.sqrt(2.0) / 3.0
        assert report3.rows[0].pearson == pytest.approx(-pearson, abs=1e-9)
        assert report3.rows[2].pearson == pytest.approx(pearson, abs=1e-9)


def test_criterion_05_periodic_zero_sector():
    with criterion("5 (periodic games commute in the initial state)"):
        for rounds in range(2, 17):
            gs = GameSpace(rounds, mode="periodic")
            audit = audit_commutators(gs, build_operators(gs))
            assert abs(audit.zero_sector_value) <= 1e-12


def test_criterion_06_wave_equation_and_orthonormality():
    with criterion("6 (round eigenvalue equation and orthonormality)"):
        for n in range(11):
            span = math.sqrt(2.0 * n + 1.0) + 2.0
            grid = np.linspace(-span, span, 161)
            r_h = schrodinger_residual(n, grid, 1e-3)
            r_half = schrodinger_residual(n, grid, 5e-4)
            assert r_h <= 1e-4
            assert 3.2 <= r_h / r_half <= 4.8

        half = math.sqrt(21.0) + 6.0
        samples = int(round(2.0 * half / 1e-3)) + 1
        xi = np.linspace(-half, half, samples)
        dx = xi[1] - xi[0]
        waves = np.vstack([psi(n, xi) for n in range(11)])
        weights = np.full(samples, dx)
        weights[0] = weights[-1] = dx / 2.0
        gram = (waves * weights) @ waves.T
        assert np.max(np.abs(gram - np.eye(11))) <= 1e-6


def test_criterion_07_density_peaks():
    with criterion("7 (peak locations, count, classical deviation)"):
        np.testing.assert_allclose(density_peaks(1).maxima, [-1.0, 1.0], atol=1e-9)
        for n in range(11):
            ps = density_peaks(n)
            assert len(ps.maxima) == n + 1
            if n >= 2:
                assert np.max(np.abs(ps.maxima)) < n

        peaks2 = density_peaks(2).maxima
        np.testing.assert_allclose(
            peaks2, [-math.sqrt(2.5), 0.0, math.sqrt(2.5)], atol=1e-6
        )
        outer = math.sqrt(5.0) + 2.0
        scanned = scan_density_maxima(lambda x: psi(2, x) ** 2, -outer, outer)
        np.testing.assert_allclose(peaks2, scanned, atol=1e-6)


def test_criterion_08_classical_comparison():
    with criterion("8 (central minimum depth and variance agreement)"):
        assert psi(1, 0.0) ** 2 == 0.0
        center = float(classical_mixture_density(1, np.zeros(1))[0])
        assert center == pytest.approx(0.2075537, abs=1e-6)
        assert psi(1, 0.0) ** 2 < center
        for n in range(1, 11):
            rep = compare_quantum_classical(n)
            assert rep.quantum_variance == pytest.approx(n + 0.5, abs=1e-6)
            assert rep.classical_variance == pytest.approx(n + 0.5, abs=1e-6)


def test_criterion_09_divergence_classification():
    with criterion("9 (norm divergence: linear vs logarithmic)"):
        eps = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4])
        lengths = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])

        plane = divergence_scan("plane", lengths)
        assert plane.classification == "linear"
        assert plane.linear_residual < 1e-3

        printed = divergence_scan("printed", eps)
        assert printed.classification == "linear"
        assert printed.linear_residual < 1e-3

        weyl = divergence_scan("weyl", eps)
        assert weyl.classification == "logarithmic"
        assert weyl.log_residual < 1e-3


def test_criterion_10_eigensolver_matches_oracle():
    with criterion("10 (eigensolver vs characteristic-polynomial oracle)"):
        battery = [
            np.array([[2.0]], dtype=complex),
            np.array([[0.0, 1j], [-1j, 0.0]]),
            np.array([[1.0, 1.0 + 1j], [1.0 - 1j, -1.0]]),
            np.diag([3.0, 1.0, 2.0]).astype(complex),
            np.diag([1.0, 1.0, 2.0]).astype(complex),
            build_operators(GameSpace(2)).precorrelation,
            build_operators(GameSpace(3)).precorrelation,
            build_operators(GameSpace(3, kappa1=2.0, kappa2=0.5)).precorrelation,
        ]
        rng = np.random.default_rng(42)
        for dim in (2, 3, 4, 4):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            battery.append((a + a.conj().T) / 2)
        for m in battery:
            lam = hermitian_eigen(m).eigenvalues
            np.testing.assert_allclose(lam, eigenvalues_oracle(m), atol=1e-9)


def test_criterion_12_weyl_ordering_from_the_matrix():
    # The PC eigenvectors of finite N = 127, taken to xi-space as
    # sum_n v_n psi_n(xi), decay like |xi|^(-1/2) and turn with phase
    # -lambda log xi: the Weyl exponent s = -1/2 - i lambda, not the printed
    # -1 - i lambda.
    with criterion("12 (Weyl ordering from the matrix eigenvectors)"):
        rows = correlation_spectrum(GameSpace(127)).rows
        xi = np.linspace(0.5, 6.0, 400)
        waves = np.array([psi(n, xi) for n in range(128)])

        def slope(y):
            return np.polyfit(np.log(xi), y, 1)[0]

        for target in (0.0, 0.5, 1.0, 2.0):
            for parity in ("even", "odd"):
                row = min(
                    (r for r in rows if r.parity == parity),
                    key=lambda r: abs(r.eigenvalue - target),
                )
                lam = row.eigenvalue
                wave = row.vector @ waves
                decay = slope(np.log(np.abs(wave)))
                weyl = slope(np.log(np.abs(correlation_eigenfunction(lam, "weyl", xi))))
                printed = slope(np.log(np.abs(correlation_eigenfunction(lam, "printed", xi))))
                assert abs(decay - weyl) < 0.03, (target, parity, decay)
                assert abs(decay - printed) > 0.4, (target, parity, decay)
                assert abs(slope(np.unwrap(np.angle(wave))) + lam) < 0.03, (target, parity)


CLI_RUNS = [
    ("operators", "--rounds", "3", "--mode", "periodic", "--format", "json"),
    ("audit", "--rounds", "4", "--format", "json"),
    ("audit", "--rounds", "4", "--mode", "periodic"),
    ("spectrum", "--rounds", "5", "--kappa1", "1.5"),
    ("spectrum", "--rounds", "4", "--format", "json"),
    ("sweep", "--rounds-max", "4"),
    ("variance", "--rounds", "5", "--n", "3", "--player", "2", "--kappa2", "2"),
    ("density", "--n", "2", "--xi-min", "-4", "--xi-max", "4", "--samples", "201"),
    ("peaks", "--n", "3"),
    ("classical", "--n", "2", "--xi-min", "-4", "--xi-max", "4", "--samples", "201"),
    ("compare", "--n", "2"),
    ("corr-eigen", "--lambda", "1.5", "--ordering", "printed",
     "--xi-min", "0.5", "--xi-max", "4", "--samples", "101"),
    ("corr-eigen", "--lambda", "0.5", "--ordering", "weyl",
     "--xi-min", "0.5", "--xi-max", "4", "--samples", "101"),
    ("diverge", "--kind", "weyl", "--cutoffs", "0.1,0.03,0.01,0.003,0.001"),
]


def test_criterion_11_cli_determinism(tmp_path, capsys):
    with criterion("11 (byte-identical CLI reruns)"):
        for argv in CLI_RUNS:
            outputs = []
            for _ in range(2):
                assert run_cli(list(argv)) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], argv

        svg_docs = []
        for tag in ("first", "second"):
            path = tmp_path / f"compare-{tag}.svg"
            assert run_cli(["compare", "--n", "2", "--svg", str(path)]) == 0
            capsys.readouterr()
            svg_docs.append(path.read_bytes())
        assert svg_docs[0] == svg_docs[1]
