import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantumtoss import numerics as nx
from quantumtoss.cli import run_cli
from quantumtoss.errors import ConvergenceError, InputError
from quantumtoss.gamespace import GameSpace, build_ladder, build_operators

from oracles import (
    dense_dekker_commutator,
    eigenvalues_oracle,
    eigenvector_oracle,
    fix_phase_by_column,
)

SQRT_HALF = math.sqrt(0.5)


def random_hermitian(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_adjoint_conjugate_transpose():
    m = np.array([[0, 1j], [0, 0]])
    np.testing.assert_array_equal(nx.adjoint(m), np.array([[0, 0], [-1j, 0]]))


def test_adjoint_involution():
    m = random_hermitian(3, 5) + 1j * np.eye(5)
    np.testing.assert_array_equal(nx.adjoint(nx.adjoint(m)), m)


def test_adjoint_of_raising_is_lowering():
    a_plus, a_minus = build_ladder(GameSpace(2))
    np.testing.assert_array_equal(nx.adjoint(a_plus), a_minus)


def test_commutator_with_identity_vanishes():
    m = random_hermitian(11, 4)
    np.testing.assert_array_equal(nx.commutator(np.eye(4), m), np.zeros((4, 4)))


def test_commutator_ladder_finite():
    a_plus, a_minus = build_ladder(GameSpace(2))
    comm = nx.commutator(a_minus, a_plus)
    np.testing.assert_allclose(comm, np.diag([1.0, 1.0, -2.0]), atol=1e-14)


def test_commutator_ladder_periodic():
    a_plus, a_minus = build_ladder(GameSpace(2, mode="periodic"))
    comm = nx.commutator(a_minus, a_plus)
    np.testing.assert_allclose(comm, np.diag([0.0, 1.0, -1.0]), atol=1e-14)


def test_expectation_ground_state_round_count():
    assert build_operators(GameSpace(3)).number[0, 0] == 0  # <0| N |0>


def test_expectation_payoff_vanishes_in_round_states():
    pi1 = build_operators(GameSpace(4)).pi1
    np.testing.assert_array_equal(np.diag(pi1), np.zeros(5))  # <n| pi1 |n> for every n


def test_expectation_ground_state_payoff_square():
    pi1 = build_operators(GameSpace(4)).pi1
    value = (pi1 @ pi1)[0, 0]  # <0| pi1^2 |0>
    assert value.real == pytest.approx(0.5, abs=1e-14)
    assert abs(value.imag) <= 1e-14


def test_hermitian_eigen_diagonal():
    dec = nx.hermitian_eigen(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)


def test_hermitian_eigen_precorrelation_dim3():

    pc = build_operators(GameSpace(2)).precorrelation
    dec = nx.hermitian_eigen(pc)
    np.testing.assert_allclose(dec.eigenvalues, [-SQRT_HALF, 0.0, SQRT_HALF], atol=1e-12)


def test_hermitian_eigen_matches_oracle_dim4():
    m = random_hermitian(7, 4)
    dec = nx.hermitian_eigen(m)
    np.testing.assert_allclose(dec.eigenvalues, eigenvalues_oracle(m), atol=1e-9)
    for k in range(4):
        ref = eigenvector_oracle(m, dec.eigenvalues[k])
        overlap = abs(ref.conj() @ dec.vectors[:, k])
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(InputError):
        nx.hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigen_rejects_oversized():
    with pytest.raises(InputError):
        nx.hermitian_eigen(np.eye(nx.EIGEN_DIM_MAX + 1))


def test_hermitian_eigen_deterministic():
    m = random_hermitian(23, 9)
    first = nx.hermitian_eigen(m)
    second = nx.hermitian_eigen(m.copy())
    np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
    np.testing.assert_array_equal(first.vectors, second.vectors)


def test_hermitian_eigen_phase_convention():
    m = random_hermitian(29, 6)
    dec = nx.hermitian_eigen(m)
    for k in range(6):
        col = dec.vectors[:, k]
        idx = int(np.argmax(np.abs(col) > 1e-8 * np.max(np.abs(col))))
        assert abs(col[idx].imag) <= 1e-12
        assert col[idx].real > 0


def test_phase_fix_of_the_whole_matrix_matches_the_column_loop():
    rng = np.random.default_rng(26)
    vecs = rng.normal(size=(9, 7)) + 1j * rng.normal(size=(9, 7))
    vecs[:3, 1] = 0.0  # the reference component sits below exact zeros,
    vecs[:2, 2] *= 1e-9  # below components under the noise floor,
    vecs[:, 3] *= 1e-300  # or in a column of tiny moduli
    vecs[4:, 4] = 0.0
    for m in (vecs, nx.hermitian_eigen(random_hermitian(31, 40)).vectors):
        np.testing.assert_array_equal(nx._fix_phase(m), fix_phase_by_column(m))


def test_input_validation_rejects_nan():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        nx.as_matrix(bad)


def test_as_real_takes_any_finite_real_as_a_float():
    for value, expected in ((np.float32(1.5), 1.5), (np.int64(-3), -3.0), (2, 2.0), (-0.25, -0.25)):
        got = nx.as_real(value, "x")
        assert got == expected and type(got) is float
    assert nx.as_real(1e-300, "kappa1", positive=True) == 1e-300


@pytest.mark.parametrize("value", [10**400, -(10**400), True, math.nan, math.inf, "1", None])
def test_as_real_rejects_with_name_and_value(value):
    with pytest.raises(InputError, match=rf"^x must be a finite real number, got {re.escape(repr(value))}$"):
        nx.as_real(value, "x")


@pytest.mark.parametrize("value", [0, -0.0, -1.0, 10**400, True, math.inf])
def test_as_real_positive_rejects_with_name_and_value(value):
    with pytest.raises(InputError, match=rf"^k must be a positive finite number, got {re.escape(repr(value))}$"):
        nx.as_real(value, "k", positive=True)


def test_as_int_names_value_and_range():
    assert nx.as_int(np.int64(7), "n", 0, 7) == 7 and type(nx.as_int(np.int64(7), "n", 0)) is int
    with pytest.raises(InputError, match=r"^n must be an integer in 0\.\.7, got 8$"):
        nx.as_int(8, "n", 0, 7)
    with pytest.raises(InputError, match=r"^rounds must be an integer >= 0, got -1$"):
        nx.as_int(-1, "rounds", 0)
    for value in (True, 2.0, "2", None):
        with pytest.raises(InputError, match=f"got {value!r}"):
            nx.as_int(value, "n", 0, 7)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), dim=st.integers(1, 8))
def test_commutator_antisymmetry(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    lhs = nx.commutator(a, b)
    rhs = -nx.commutator(b, a)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def sparse_signed_matrix(rng, dim, zero_rows):
    """Random complex matrix, a random share of its parts zero, each zero signed at random."""
    parts = []
    for _ in range(2):
        part = rng.normal(size=(dim, dim)) * np.exp(rng.uniform(-30, 30, size=(dim, dim)))
        part[rng.random((dim, dim)) < rng.random()] = 0.0
        part[zero_rows] = 0.0
        parts.append(np.where(part == 0.0, rng.choice([0.0, -0.0], size=(dim, dim)), part))
    m = np.empty((dim, dim), dtype=complex)  # set apart: re + 1j * im would unsign zeros
    m.real, m.imag = parts
    return m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), dim=st.integers(1, 8), block_words=st.sampled_from([1, 5, 40, None]))
def test_commutator_matches_dense_dekker_bytes(seed, dim, block_words):
    rng = np.random.default_rng(seed)
    zero_rows = rng.random(dim) < 0.25  # all zero in both a and b
    a = sparse_signed_matrix(rng, dim, zero_rows)
    b = sparse_signed_matrix(rng, dim, zero_rows)
    # small row blocks put block edges, and a short last block, inside these sizes
    with mock.patch.object(nx, "_BLOCK_WORDS", block_words or nx._BLOCK_WORDS):
        for x, y in ((a, b), (b, a), (a, a)):
            got = nx.commutator(x, y)
            assert got.tobytes() == dense_dekker_commutator(x, y).tobytes()
            # swapped arguments negate it; 0 - z negates without making a -0,
            # which the commutator never returns
            assert nx.commutator(y, x).tobytes() == (0.0 - got).tobytes()


@pytest.mark.parametrize("rounds", [*range(1, 41), 170])
@pytest.mark.parametrize("mode", ["finite", "periodic"])
def test_commutator_of_game_operators_matches_dense_dekker_bytes(mode, rounds):
    for kappa1, kappa2 in ((1.0, 1.0), (2.0, 0.5), (7.3, 1.1)):
        ops = build_operators(GameSpace(rounds, mode, kappa1, kappa2))
        pairs = [(ops.pi1, ops.pi2), (ops.pi2, ops.pi1)]
        if kappa1 == kappa2 == 1.0:  # the ladder does not depend on kappa
            pairs.append((ops.a_minus, ops.a_plus))
        for a, b in pairs:
            assert nx.commutator(a, b).tobytes() == dense_dekker_commutator(a, b).tobytes()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), dim=st.integers(1, 8))
def test_commutator_trace_free(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    bound = 1e-10 * dim * nx.norm_inf(a) * nx.norm_inf(b)
    assert abs(np.trace(nx.commutator(a, b))) <= bound


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), dim=st.integers(1, 10))
def test_hermitian_eigen_invariants(seed, dim):
    m = random_hermitian(seed, dim)
    dec = nx.hermitian_eigen(m)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    gram = dec.vectors.conj().T @ dec.vectors
    assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
    resid = np.max(np.linalg.norm(m @ dec.vectors - dec.vectors * dec.eigenvalues, axis=0))
    assert resid <= 1e-10 * (1.0 + nx.norm_inf(m))
    completeness = dec.vectors @ dec.vectors.conj().T - np.eye(dim)
    assert np.max(np.sum(np.abs(completeness), axis=1)) <= 1e-10


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 8))
def test_eigenvalues_invariant_under_permutation(seed, dim):
    rng = np.random.default_rng(seed)
    m = random_hermitian(seed, dim)
    perm = rng.permutation(dim)
    p = np.eye(dim)[perm]
    conjugated = p @ m @ p.T
    lam = nx.hermitian_eigen(m).eigenvalues
    lam_p = nx.hermitian_eigen(conjugated).eigenvalues
    np.testing.assert_allclose(lam, lam_p, atol=1e-9)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 10))
def test_imaginary_hermitian_spectrum_negation_symmetric(seed, dim):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.normal(size=(dim, dim)), 1)
    m = 1j * (upper - upper.T)
    lam = nx.hermitian_eigen(m).eigenvalues
    np.testing.assert_allclose(np.sort(lam), np.sort(-lam), atol=1e-10)


def test_degenerate_spectrum_still_orthonormal():
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    m = q @ np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 5.0]) @ q.conj().T
    m = (m + m.conj().T) / 2
    dec = nx.hermitian_eigen(m)
    np.testing.assert_allclose(dec.eigenvalues, [1, 1, 1, 2, 2, 5], atol=1e-10)
    gram = dec.vectors.conj().T @ dec.vectors
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-10


@pytest.mark.parametrize("mode", ["finite", "periodic"])
@pytest.mark.parametrize("rounds", [5, 16, 24, 37, 40, 64, 65, 128])
def test_hermitian_eigen_precorrelation_matches_eigvalsh(rounds, mode):
    # eigvalsh is a test oracle only; the rounds cover the N at which the
    # former sweep order nearly stalled and both parities of the dimension

    pc = build_operators(GameSpace(rounds, mode=mode)).precorrelation
    dec = nx.hermitian_eigen(pc)
    np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(pc), atol=1e-9)


def test_hermitian_eigen_zero_matrix_needs_no_sweep():
    dec = nx.hermitian_eigen(np.zeros((3, 3)))
    np.testing.assert_array_equal(dec.eigenvalues, np.zeros(3))
    np.testing.assert_array_equal(dec.vectors, np.eye(3))


@pytest.mark.parametrize("scale", [1e160, 1e300, 1e-170])
def test_hermitian_eigen_extreme_scales_match_eigvalsh(scale):
    # squares of entries near 1e160 overflow and near 1e-170 underflow;
    # the solver sweeps and validates on an exactly rescaled copy.  The last
    # input overflows if folded as m + m^H before that rescaling.

    near_max = np.array([[1e308, 1e307], [1e307, -1e308]])
    pc = build_operators(GameSpace(3)).precorrelation
    for m in (scale * pc, scale * random_hermitian(11, 7), near_max):
        dec = nx.hermitian_eigen(m)
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(dec.eigenvalues - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_shape_errors_are_input_errors():
    with pytest.raises(InputError, match="square matrix"):
        nx.as_matrix(np.zeros((2, 3)))
    with pytest.raises(InputError, match="dimension mismatch"):
        nx.commutator(np.eye(2), np.eye(3))


def test_failed_validation_names_its_measures_and_fails_the_cli(monkeypatch, capsys):
    # vectors 1e-6 too long miss the orthonormality and completeness tolerance
    fix_phase = nx._fix_phase
    monkeypatch.setattr(nx, "_fix_phase", lambda vec: fix_phase(vec) * (1.0 + 1e-6))
    with pytest.raises(ConvergenceError) as info:
        nx.hermitian_eigen(random_hermitian(11, 6))
    for measure in ("orthonormality", "residual", "bound", "completeness"):
        assert measure in str(info.value)
    assert run_cli(["spectrum", "--rounds", "3"]) == 1
    assert capsys.readouterr().out == ""


def assert_eigenpairs_match_eigvalsh(m, dec):
    # eigvalsh is a test oracle only; the bounds are those of the invariants test
    dim = m.shape[0]
    np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(m), rtol=0, atol=1e-9)
    gram = dec.vectors.conj().T @ dec.vectors
    assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
    resid = np.max(np.linalg.norm(m @ dec.vectors - dec.vectors * dec.eigenvalues, axis=0))
    assert resid <= 1e-10 * (1.0 + nx.norm_inf(m))
    completeness = dec.vectors @ dec.vectors.conj().T - np.eye(dim)
    assert np.max(np.sum(np.abs(completeness), axis=1)) <= 1e-10


def random_tridiagonal(rng, dim):
    """Complex Hermitian tridiagonal matrix with random diagonal and couplings."""
    couplings = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
    return np.diag(rng.normal(size=dim)) + np.diag(couplings, -1) + np.diag(couplings.conj(), 1)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), dim=st.integers(1, 16))
def test_hermitian_eigen_tridiagonal_inputs(seed, dim):
    m = random_tridiagonal(np.random.default_rng(seed), dim)
    assert_eigenpairs_match_eigvalsh(m, nx.hermitian_eigen(m))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 16), data=st.data())
def test_hermitian_eigen_tridiagonal_with_an_exact_split(seed, dim, data):
    m = random_tridiagonal(np.random.default_rng(seed), dim)
    k = data.draw(st.integers(0, dim - 2))
    m[k + 1, k] = m[k, k + 1] = 0.0
    dec = nx.hermitian_eigen(m)
    assert_eigenpairs_match_eigvalsh(m, dec)
    # each eigenvector lives on one side of the split
    top = np.linalg.norm(dec.vectors[: k + 1], axis=0)
    bottom = np.linalg.norm(dec.vectors[k + 1 :], axis=0)
    assert np.all(np.minimum(top, bottom) <= 1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 10**6),
    dim=st.integers(1, 16),
    values=st.lists(st.sampled_from([-1.0, 0.0, 2.0]), min_size=1, max_size=3),
)
def test_hermitian_eigen_degenerate_inputs(seed, dim, values):
    rng = np.random.default_rng(seed)
    identity = np.eye(dim) * values[0]
    repeated = np.diag(rng.choice(values, size=dim)).astype(complex)
    # a constant diagonal with constant couplings: every diagonal entry repeated
    toeplitz = values[0] * np.eye(dim) + np.eye(dim, k=1) + np.eye(dim, k=-1)
    for m in (identity, repeated, toeplitz):
        assert_eigenpairs_match_eigvalsh(m, nx.hermitian_eigen(m))
    dec = nx.hermitian_eigen(identity)
    np.testing.assert_array_equal(dec.vectors, np.eye(dim))


def test_hermitian_eigen_wilkinson_w21_plus():
    # W21+: diagonal |10 - k|, unit couplings; its top eigenvalues pair up to
    # about 1e-14, yet their eigenvectors stay orthogonal
    w = np.diag(np.abs(np.arange(-10.0, 11.0))) + np.eye(21, k=1) + np.eye(21, k=-1)
    dec = nx.hermitian_eigen(w)
    assert_eigenpairs_match_eigvalsh(w, dec)
    lam = dec.eigenvalues
    assert 0 < lam[-1] - lam[-2] <= 1e-13
    assert abs(lam[-1] - 10.746194182903393) <= 1e-13


def test_householder_passes_tridiagonal_input_through_with_phases_only():
    m = random_tridiagonal(np.random.default_rng(3), 9)
    diagonal, couplings, q = nx._householder_tridiagonal(m)
    np.testing.assert_array_equal(diagonal, np.diag(m).real)
    np.testing.assert_array_equal(couplings, np.abs(np.diag(m, -1)))
    np.testing.assert_array_equal(q, np.diag(np.diag(q)))
    np.testing.assert_allclose(np.abs(np.diag(q)), 1.0, rtol=0, atol=1e-15)


def test_householder_reduces_a_full_matrix_to_its_tridiagonal_form():
    m = random_hermitian(13, 8)
    diagonal, couplings, q = nx._householder_tridiagonal(m)
    t = np.diag(diagonal) + np.diag(couplings, 1) + np.diag(couplings, -1)
    np.testing.assert_allclose(q.conj().T @ m @ q, t, rtol=0, atol=1e-13)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(8), rtol=0, atol=1e-14)


def test_ql_iteration_cap_is_a_convergence_error(monkeypatch):
    monkeypatch.setattr(nx, "_MAX_QL_ITERATIONS", 0)
    with pytest.raises(ConvergenceError, match="QL iteration did not converge") as info:
        nx.hermitian_eigen(random_tridiagonal(np.random.default_rng(1), 5))
    assert info.value.residual > 0


@pytest.mark.parametrize("tiny", [1e-170, 1e-300, 1e-310, 5e-324])
def test_hermitian_eigen_tiny_entries_below_the_subdiagonal(tiny):
    # reflecting a column of tiny or subnormal entries must neither underflow
    # its norm nor overflow a phase to nan
    t = tiny
    for m in (
        np.array([[1, t, 1j * t, t], [t, 2, 0, 0], [-1j * t, 0, 3, 0], [t, 0, 0, 0.5]]),
        np.array([[1e-300, t, 1j * t], [t, 0, 0], [-1j * t, 0, 0]]),
    ):
        dec = nx.hermitian_eigen(m)
        ref = np.linalg.eigvalsh(m)
        assert np.max(np.abs(dec.eigenvalues - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_failed_validation_catches_nan_vectors(monkeypatch):
    # every comparison with nan is false, so the check must fail unless all pass
    monkeypatch.setattr(nx, "_fix_phase", lambda vec: vec * np.nan)
    with pytest.raises(ConvergenceError, match="orthonormality nan"):
        nx.hermitian_eigen(random_hermitian(11, 4))
