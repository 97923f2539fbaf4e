import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantumtoss.correlation import classify_signs, correlation_spectrum
from quantumtoss.errors import ConvergenceError, InputError
from quantumtoss.gamespace import GameSpace, build_operators
from quantumtoss.numerics import hermitian_eigen

from oracles import (
    correlation_value,
    jacobi_eigenvector_moduli,
    sign_classification,
    sturm_count,
    zero_eigenvalue_count,
)

SQRT_HALF = math.sqrt(0.5)
PEARSON_DIM3 = 2.0 * math.sqrt(2.0) / 3.0


def expected_zero_count(dim):
    # finite-mode kernel dimension: one zero per odd-sized parity block
    even = (dim + 1) // 2
    odd = dim // 2
    return even % 2 + odd % 2


def test_correlation_value_round_states_vanish():
    ops = build_operators(GameSpace(3))
    for n in range(4):
        state = np.zeros(4, dtype=complex)
        state[n] = 1.0
        value = correlation_value(state, ops.pi1, ops.pi2, ops.precorrelation)
        assert abs(value) <= 1e-15


def test_correlation_value_even_superpositions():
    # (|0> - i|2>)/sqrt2 and (|0> + i|2>)/sqrt2 are the +-1/sqrt2 eigenstates
    ops = build_operators(GameSpace(2))
    plus = np.array([1.0, 0.0, -1j]) / math.sqrt(2)
    minus = np.array([1.0, 0.0, 1j]) / math.sqrt(2)
    args = (ops.pi1, ops.pi2, ops.precorrelation)
    assert correlation_value(plus, *args) == pytest.approx(SQRT_HALF, abs=1e-12)
    assert correlation_value(minus, *args) == pytest.approx(-SQRT_HALF, abs=1e-12)


def test_correlation_value_mixed_parity_superposition():
    ops = build_operators(GameSpace(2))
    state = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
    value = correlation_value(state, ops.pi1, ops.pi2, ops.precorrelation)
    assert value == pytest.approx(0.0, abs=1e-12)
    # <pi1> is not zero in this state; the product vanishes because <pi2> is
    assert (state.conj() @ ops.pi1 @ state).real == pytest.approx(SQRT_HALF, abs=1e-12)


def test_spectrum_dim3_frozen():
    report = correlation_spectrum(GameSpace(2))
    np.testing.assert_allclose(
        report.eigenvalues, [-SQRT_HALF, 0.0, SQRT_HALF], atol=1e-10
    )
    assert sign_classification(report) == (-1, 0, 1)
    for row in report.rows:
        assert abs(row.exp_pi1) <= 1e-12
        assert abs(row.exp_pi2) <= 1e-12
    pearsons = [row.pearson for row in report.rows]
    assert pearsons[0] == pytest.approx(-PEARSON_DIM3, abs=1e-9)
    assert pearsons[1] == pytest.approx(0.0, abs=1e-12)
    assert pearsons[2] == pytest.approx(PEARSON_DIM3, abs=1e-9)
    assert [row.parity for row in report.rows] == ["even", "odd", "even"]


def test_spectrum_dim2_all_zero():
    report = correlation_spectrum(GameSpace(1))
    np.testing.assert_array_equal(report.eigenvalues, [0.0, 0.0])
    assert all(row.correlation == 0.0 for row in report.rows)
    assert sign_classification(report) == (0, 0)
    assert sorted(row.parity for row in report.rows) == ["even", "odd"]


def test_finite_rows_live_on_their_labelled_parity():
    report = correlation_spectrum(GameSpace(4))
    even = [row.vector for row in report.rows if row.parity == "even"]
    odd = [row.vector for row in report.rows if row.parity == "odd"]
    assert len(even) == 3 and len(odd) == 2
    assert all(not np.any(v[1::2]) for v in even)
    assert all(not np.any(v[0::2]) for v in odd)


def test_spectrum_rounds5_sign_multiset():
    # two odd-sized parity blocks -> a two-dimensional kernel at dim 6
    report = correlation_spectrum(GameSpace(5))
    signs = sign_classification(report)
    assert sorted(signs) == [-1, -1, 0, 0, 1, 1]
    np.testing.assert_allclose(
        np.abs(report.eigenvalues),
        [math.sqrt(6.5), math.sqrt(3.5), 0.0, 0.0, math.sqrt(3.5), math.sqrt(6.5)],
        atol=1e-10,
    )


def test_sign_classification_plain_values():
    assert list(classify_signs([-0.7, 0.0, 0.7])) == [-1, 0, 1]
    assert list(classify_signs([0.0, 0.0])) == [0, 0]


def test_finite_zero_count_follows_block_parity():
    for rounds in range(1, 17):
        report = correlation_spectrum(GameSpace(rounds))
        signs = sign_classification(report)
        assert signs.count(0) == expected_zero_count(rounds + 1), rounds
        assert signs.count(-1) == signs.count(1)


@pytest.mark.parametrize("mode", ["finite", "periodic"])
def test_zero_rows_number_the_odd_chains_and_rings(mode):
    # one zero eigenvalue per odd-length component of PC, in both modes
    for rounds in [*range(mode == "periodic", 33), 63, 64, 127, 128, 255, 256]:
        signs = sign_classification(correlation_spectrum(GameSpace(rounds, mode)))
        assert signs.count(0) == zero_eigenvalue_count(rounds, mode), rounds


def test_spectrum_negation_symmetry_both_modes():
    for rounds in (1, 2, 3, 4, 7, 15, 32, 63):
        for mode in ("finite", "periodic"):
            lam = correlation_spectrum(GameSpace(rounds, mode=mode)).eigenvalues
            np.testing.assert_allclose(np.sort(lam), np.sort(-lam), atol=1e-10)


def test_odd_dim_has_kernel_vector():
    for rounds in (2, 4, 6, 10):
        lam = correlation_spectrum(GameSpace(rounds)).eigenvalues
        assert np.min(np.abs(lam)) <= 1e-10


def test_finite_eigenstates_have_vanishing_payoffs():
    for rounds in (2, 5, 9, 16):
        report = correlation_spectrum(GameSpace(rounds, kappa1=1.3, kappa2=0.8))
        for row in report.rows:
            assert abs(row.exp_pi1) <= 1e-10
            assert abs(row.exp_pi2) <= 1e-10


def test_pearson_bounded_by_one():
    for rounds in (1, 2, 5, 9, 16):
        for mode in ("finite", "periodic"):
            report = correlation_spectrum(GameSpace(rounds, mode=mode))
            for row in report.rows:
                if row.pearson is not None:
                    assert abs(row.pearson) <= 1.0 + 1e-9


def test_eigenstate_consistency():
    ops = build_operators(GameSpace(6))
    report = correlation_spectrum(GameSpace(6))
    for row in report.rows:
        value = correlation_value(row.vector, ops.pi1, ops.pi2, ops.precorrelation)
        assert value == pytest.approx(row.eigenvalue, abs=1e-10)


def test_kappa_scaling_covariance():
    base = correlation_spectrum(GameSpace(5))
    scaled = correlation_spectrum(GameSpace(5, kappa1=3.0))
    np.testing.assert_allclose(scaled.eigenvalues, 3.0 * base.eigenvalues, atol=1e-10)
    for row_s, row_b in zip(scaled.rows, base.rows):
        assert row_s.sigma1 == pytest.approx(3.0 * row_b.sigma1, abs=1e-10)
        assert row_s.sigma2 == pytest.approx(row_b.sigma2, abs=1e-10)
        assert row_s.sign_class == row_b.sign_class
        if row_b.pearson is not None:
            assert row_s.pearson == pytest.approx(row_b.pearson, abs=1e-10)


def test_rows_sorted_ascending():
    for rounds in (3, 8, 13):
        report = correlation_spectrum(GameSpace(rounds))
        lam = report.eigenvalues
        assert np.all(np.diff(lam) >= 0)
        assert [row.index for row in report.rows] == list(range(rounds + 1))


def test_periodic_mode_reports_mixed_parity():
    report = correlation_spectrum(GameSpace(3, mode="periodic"))
    assert all(row.parity == "mixed" for row in report.rows)


@pytest.mark.parametrize(
    "rounds, mode, crosses",
    [(n, "finite", False) for n in (0, 1, 2, 5, 127, 511)]
    + [(n, "periodic", False) for n in (1, 3, 511)]
    + [(n, "periodic", True) for n in (2, 4, 510)],
)
def test_precorrelation_crosses_parity_only_at_even_periodic_rounds(rounds, mode, crosses):
    pc = build_operators(GameSpace(rounds, mode)).precorrelation
    assert bool(np.any(pc[0::2, 1::2])) == crosses


@pytest.mark.parametrize(
    "rounds, mode",
    [(n, "finite") for n in (0, 1, 2, 4, 7)] + [(n, "periodic") for n in (1, 3, 5, 2, 4, 6)],
)
def test_spectrum_splits_by_parity_unless_an_entry_crosses_it(monkeypatch, rounds, mode):
    import quantumtoss.correlation as corr_mod

    dims = []

    def counted(m):
        dims.append(m.shape[0])
        return hermitian_eigen(m)

    monkeypatch.setattr(corr_mod, "hermitian_eigen", counted)
    correlation_spectrum(GameSpace(rounds, mode))
    dim = rounds + 1
    if mode == "periodic" and rounds % 2 == 0:
        assert dims == [dim]
    else:
        assert dims == [n for n in ((dim + 1) // 2, dim // 2) if n]


def test_spectrum_unnormalized_eigenvector_is_a_convergence_error(monkeypatch):
    import quantumtoss.correlation as corr_mod

    def stretched(m):
        dec = hermitian_eigen(m)
        return dec._replace(vectors=dec.vectors * (1 + 1e-9))

    monkeypatch.setattr(corr_mod, "hermitian_eigen", stretched)
    with pytest.raises(ConvergenceError, match="not normalized"):
        correlation_spectrum(GameSpace(4))


def test_spectrum_rejects_rounds_above_eigen_ceiling_before_building(monkeypatch):
    import quantumtoss.correlation as corr_mod
    from quantumtoss.numerics import EIGEN_DIM_MAX

    def forbidden(gs):
        raise AssertionError("operators built before the ceiling check")

    monkeypatch.setattr(corr_mod, "build_operators", forbidden)
    # finite parity blocks of rounds 600 are only ~300 wide; the ceiling is on dim
    for mode in ("finite", "periodic"):
        with pytest.raises(InputError, match=str(EIGEN_DIM_MAX)):
            correlation_spectrum(GameSpace(EIGEN_DIM_MAX, mode=mode))
        with pytest.raises(InputError):
            correlation_spectrum(GameSpace(600, mode=mode))


def test_spectrum_rejects_infinite_kappa_product_before_building(monkeypatch):
    import quantumtoss.correlation as corr_mod

    def forbidden(gs):
        raise AssertionError("operators built before the kappa check")

    monkeypatch.setattr(corr_mod, "build_operators", forbidden)
    # at rounds 0 and 1 PC is zero, and inf * 0 would warn before any late check
    for rounds in (0, 1, 511):
        with pytest.raises(InputError, match=r"kappa1 = 1\.000e\+300, kappa2 = 1\.000e\+300"):
            correlation_spectrum(GameSpace(rounds, kappa1=1e300, kappa2=1e300))


def test_spectrum_huge_kappa_stays_finite():
    base = correlation_spectrum(GameSpace(3))
    report = correlation_spectrum(GameSpace(3, kappa1=1e200))
    for row, ref in zip(report.rows, base.rows):
        values = (row.eigenvalue, row.sigma1, row.sigma2, row.correlation)
        assert all(math.isfinite(v) for v in values)
        assert row.eigenvalue == pytest.approx(1e200 * ref.eigenvalue, rel=1e-12)
        assert row.sign_class == ref.sign_class
        assert row.pearson == ref.pearson


def test_spectrum_tiny_kappa_keeps_sign_classes():
    # eigenvalues near 1e-12 lie inside the absolute zero band, but their
    # signs are those of the kappa = 1 spectrum
    base = correlation_spectrum(GameSpace(3))
    report = correlation_spectrum(GameSpace(3, kappa1=1e-6, kappa2=1e-6))
    assert [row.sign_class for row in report.rows] == [-1, -1, 1, 1]
    assert sign_classification(base) == (-1, -1, 1, 1)
    for row, ref in zip(report.rows, base.rows):
        assert row.sign_class == ref.sign_class
        assert row.eigenvalue == pytest.approx(1e-12 * ref.eigenvalue, rel=1e-12)


def test_sign_classification_reads_the_rows():
    # one sign-class path: the rows' kappa = 1 classes, also at tiny kappa
    tiny = correlation_spectrum(GameSpace(3, kappa1=1e-6, kappa2=1e-6))
    assert sign_classification(tiny) == (-1, -1, 1, 1)
    for mode in ("finite", "periodic"):
        for kappa in (1e-6, 1.0, 1e6):
            report = correlation_spectrum(GameSpace(6, mode, kappa, kappa))
            assert sign_classification(report) == tuple(row.sign_class for row in report.rows)


@pytest.mark.parametrize("rounds", range(1, 42, 2))
def test_periodic_odd_rounds_eigenstates_are_parity_pure(rounds):
    # odd N keeps the wrap couplings inside each parity, so every eigenstate
    # of the whole matrix lives on even or on odd indices only; N = 1 mod 4
    # gives a double zero eigenvalue, one per parity
    report = correlation_spectrum(GameSpace(rounds, mode="periodic"))
    for row in report.rows:
        assert not np.any(row.vector[0::2]) or not np.any(row.vector[1::2])
        assert row.exp_pi1 == 0.0 and row.exp_pi2 == 0.0
    lam = report.eigenvalues
    zeros = int(np.sum(np.abs(lam) <= 1e-10 * max(1.0, float(np.max(np.abs(lam))))))
    assert zeros == (2 if rounds % 4 == 1 else 0)


def test_spectrum_rejects_kappa_overflow():
    with pytest.raises(InputError, match="overflow"):
        correlation_spectrum(GameSpace(3, kappa1=1e200, kappa2=1e200))
    with pytest.raises(InputError, match="overflow"):  # finite product, sigma1 overflows
        correlation_spectrum(GameSpace(20, kappa1=1e308, kappa2=1e-308))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    rounds=st.integers(1, 24),
    mode=st.sampled_from(["finite", "periodic"]),
    kappa1=st.floats(1e-3, 1e3),
    kappa2=st.floats(1e-3, 1e3),
)
def test_kappa_scaling_covariance_property(rounds, mode, kappa1, kappa2):
    # lambda(kappa1, kappa2) = kappa1 kappa2 lambda(1, 1), checked against the
    # solver run on the kappa-scaled matrix itself
    scale = kappa1 * kappa2
    unit = correlation_spectrum(GameSpace(rounds, mode=mode)).eigenvalues
    scaled = correlation_spectrum(GameSpace(rounds, mode, kappa1, kappa2)).eigenvalues
    np.testing.assert_allclose(scaled, scale * unit, rtol=1e-14, atol=0)
    direct = hermitian_eigen(build_operators(GameSpace(rounds, mode, kappa1, kappa2)).precorrelation)
    np.testing.assert_allclose(direct.eigenvalues, scale * unit, atol=1e-10 * max(1.0, scale))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rounds=st.integers(1, 40), mode=st.sampled_from(["finite", "periodic"]))
def test_spectrum_negation_symmetry_property(rounds, mode):
    lam = correlation_spectrum(GameSpace(rounds, mode=mode)).eigenvalues
    np.testing.assert_allclose(lam, -lam[::-1], rtol=0, atol=1e-12 * np.max(np.abs(lam)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(rounds=st.integers(1, 40))
def test_finite_payoff_expectations_vanish_property(rounds):
    # finite-mode eigenstates are parity-pure and pi_j flips parity
    for row in correlation_spectrum(GameSpace(rounds)).rows:
        assert row.exp_pi1 == 0.0 and row.exp_pi2 == 0.0


@pytest.mark.parametrize("mode", ["finite", "periodic"])
def test_spectrum_at_the_eigen_ceiling_matches_eigvalsh_and_reruns_identically(mode):
    # rounds 511: dimension 512, the largest the eigensolver takes, split into
    # two parity blocks of 256 in both modes
    gs = GameSpace(511, mode)
    first = correlation_spectrum(gs)
    pc = build_operators(gs).precorrelation
    lam = first.eigenvalues
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(pc), rtol=0, atol=1e-9)
    vecs = np.stack([row.vector for row in first.rows], axis=1)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(512))) <= 1e-10
    resid = np.max(np.linalg.norm(pc @ vecs - vecs * lam, axis=0))
    assert resid <= 1e-10 * (1.0 + float(np.max(np.sum(np.abs(pc), axis=1))))
    second = correlation_spectrum(gs)
    assert second.eigenvalues.tobytes() == lam.tobytes()
    assert np.stack([row.vector for row in second.rows], axis=1).tobytes() == vecs.tobytes()


def test_sturm_count_oracle_matches_eigvalsh():
    # odd dimension: 0 is an eigenvalue and the first pivot at x = 0 is zero
    for squared in ([Fraction(1), Fraction(1)], [Fraction(k * k + 1, 3) for k in range(6)]):
        t = np.diag(np.sqrt([float(b) for b in squared]), 1)
        lam = np.linalg.eigvalsh(t + t.T)
        for x in (-10, -1, 0, Fraction(1, 10**9), Fraction(7, 5), 10):
            assert sturm_count(squared, x) == int(np.sum(lam < float(x) - 1e-12))


@pytest.mark.parametrize("rounds", [127, 255])
def test_finite_spectrum_sits_at_its_exact_sturm_counts(rounds):
    # after a diagonal phase each finite parity block of PC is a real
    # zero-diagonal Jacobi matrix with squared couplings (n+1)(n+2)/4 between
    # states n and n + 2, so exact rational counts place every eigenvalue
    # within 1e-9 at its index, with no eigensolver involved
    delta = Fraction(1, 10**9)
    report = correlation_spectrum(GameSpace(rounds))
    for parity, start in (("even", 0), ("odd", 1)):
        lam = [row.eigenvalue for row in report.rows if row.parity == parity]
        squared = [Fraction((n + 1) * (n + 2), 4) for n in range(start, rounds - 1, 2)]
        assert len(lam) == len(squared) + 1 == (rounds + 1) // 2
        for k, value in enumerate(lam):
            assert sturm_count(squared, Fraction(value) - delta) <= k
            assert sturm_count(squared, Fraction(value) + delta) >= k + 1


@pytest.mark.parametrize("rounds", [7, 31, 120, 255, 511])
def test_finite_eigenvector_moduli_match_their_orthogonal_polynomials(rounds):
    # after the diagonal phase the finite even block of PC(kappa = 1) is
    # 2 J(1/4) and the odd block 2 J(3/4), so the moduli of each eigenvector
    # are those of (p_k(lambda/2)) from the recurrence, to 1e-12 absolute
    # (read: 3.1e-14 at N = 255, 6.4e-14 at N = 511)
    report = correlation_spectrum(GameSpace(rounds))
    for parity, start, a in (("even", 0, 0.25), ("odd", 1, 0.75)):
        rows = [row for row in report.rows if row.parity == parity]
        assert len(rows) == len(range(start, rounds + 1, 2))
        expected = jacobi_eigenvector_moduli(a, len(rows), [row.eigenvalue / 2 for row in rows])
        vectors = np.array([row.vector for row in rows]).T
        assert np.max(np.abs(np.abs(vectors[start::2]) - expected)) <= 1e-12
        assert not np.any(vectors[1 - start::2])
