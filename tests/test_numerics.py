import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantumtoss import numerics as nx
from quantumtoss.errors import InputError
from quantumtoss.gamespace import GameSpace, build_ladder, build_number, build_payoffs

from oracles import eigenvalues_oracle, eigenvector_oracle

SQRT_HALF = math.sqrt(0.5)


def random_hermitian(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def test_multiply_identity():
    eye = np.eye(2, dtype=complex)
    np.testing.assert_array_equal(nx.multiply(eye, eye), eye)


def test_multiply_rank_one_ladder():
    up = np.array([[0, 1], [0, 0]], dtype=complex)
    down = np.array([[0, 0], [1, 0]], dtype=complex)
    np.testing.assert_array_equal(nx.multiply(up, down), np.diag([1.0, 0.0]))


def test_multiply_raise_times_lower_is_round_counter():
    a_plus, a_minus = build_ladder(GameSpace(2))
    np.testing.assert_allclose(nx.multiply(a_plus, a_minus), np.diag([0.0, 1.0, 2.0]), atol=1e-15)


def test_multiply_dimension_mismatch():
    with pytest.raises(InputError):
        nx.multiply(np.eye(2), np.eye(3))


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
    gs = GameSpace(3)
    state = np.zeros(4, dtype=complex)
    state[0] = 1.0
    assert nx.expectation(state, build_number(gs)) == 0


def test_expectation_payoff_vanishes_in_round_states():
    gs = GameSpace(4)
    pi1, _ = build_payoffs(gs)
    for n in range(5):
        state = np.zeros(5, dtype=complex)
        state[n] = 1.0
        assert abs(nx.expectation(state, pi1)) <= 1e-15


def test_expectation_ground_state_payoff_square():
    gs = GameSpace(4)
    pi1, _ = build_payoffs(gs)
    state = np.zeros(5, dtype=complex)
    state[0] = 1.0
    value = nx.expectation(state, pi1 @ pi1)
    assert value.real == pytest.approx(0.5, abs=1e-14)
    assert abs(value.imag) <= 1e-14


def test_expectation_rejects_unnormalized_state():
    with pytest.raises(InputError):
        nx.expectation(np.array([1.0, 1.0]), np.eye(2))


def test_hermitian_eigen_diagonal():
    dec = nx.hermitian_eigen(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)


def test_hermitian_eigen_precorrelation_dim3():
    from quantumtoss.gamespace import build_precorrelation

    pc = build_precorrelation(GameSpace(2))
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


def test_input_validation_rejects_nan():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InputError):
        nx.as_matrix(bad)
    with pytest.raises(InputError):
        nx.as_state(np.array([np.inf, 0.0]))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10**6), dim=st.integers(1, 8))
def test_commutator_antisymmetry(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    lhs = nx.commutator(a, b)
    rhs = -nx.commutator(b, a)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


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
    from quantumtoss.gamespace import build_precorrelation

    pc = build_precorrelation(GameSpace(rounds, mode=mode))
    dec = nx.hermitian_eigen(pc)
    np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(pc), atol=1e-9)
    assert 1 <= dec.sweeps <= 12


def test_hermitian_eigen_zero_matrix_needs_no_sweep():
    dec = nx.hermitian_eigen(np.zeros((3, 3)))
    np.testing.assert_array_equal(dec.eigenvalues, np.zeros(3))
    np.testing.assert_array_equal(dec.vectors, np.eye(3))
    assert dec.sweeps == 0


def test_round_robin_sweep_meets_every_pair_once():
    import itertools

    for n in (1, 2, 5, 16, 37):
        steps = nx._round_robin(n)
        pairs = [(int(p), int(q)) for ps, qs in steps for p, q in zip(ps, qs)]
        assert sorted(pairs) == list(itertools.combinations(range(n), 2))
        for ps, qs in steps:  # rotations of one step touch disjoint indices
            assert len(set(ps.tolist()) | set(qs.tolist())) == 2 * len(ps)
