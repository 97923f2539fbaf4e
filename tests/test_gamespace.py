import math
import warnings

import numpy as np
import pytest

from quantumtoss.errors import InputError
from quantumtoss.gamespace import (
    GameSpace,
    audit_commutators,
    build_ladder,
    build_operators,
    ladder_commutator_diagonal,
    number_state,
    payoff_variance,
    unit_trace_diagonal,
)
from quantumtoss.numerics import adjoint, hermitian_deviation

SAMPLE_DIMS = (2, 3, 4, 5, 8, 16, 33, 64)


def test_gamespace_validation():
    with pytest.raises(InputError):
        GameSpace(-1)
    with pytest.raises(InputError):
        GameSpace(0, mode="periodic")
    with pytest.raises(InputError):
        GameSpace(2, mode="circular")
    with pytest.raises(InputError):
        GameSpace(2, kappa1=0.0)
    with pytest.raises(InputError):
        GameSpace(2, kappa2=-1.0)
    assert GameSpace(4).dim == 5


def test_ladder_finite_entries():
    a_plus, a_minus = build_ladder(GameSpace(2))
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 0] = 1.0
    expected[2, 1] = math.sqrt(2)
    np.testing.assert_array_equal(a_plus, expected)
    np.testing.assert_array_equal(a_minus, expected.conj().T)
    assert np.all(a_plus[:, 2] == 0)  # raising the last round state annihilates


def test_ladder_periodic_wrap_entry():
    a_plus, _ = build_ladder(GameSpace(2, mode="periodic"))
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 0] = 1.0
    expected[2, 1] = math.sqrt(2)
    expected[0, 2] = 1.0
    np.testing.assert_array_equal(a_plus, expected)


def test_ladder_single_state():
    a_plus, a_minus = build_ladder(GameSpace(0))
    np.testing.assert_array_equal(a_plus, np.zeros((1, 1)))
    np.testing.assert_array_equal(a_minus, np.zeros((1, 1)))


def test_number_finite_counts_rounds():
    np.testing.assert_allclose(build_operators(GameSpace(3)).number, np.diag([0.0, 1, 2, 3]), atol=1e-15)
    np.testing.assert_array_equal(build_operators(GameSpace(0)).number, np.zeros((1, 1)))


def test_number_periodic_wrap_shifts_ground_count():
    np.testing.assert_allclose(
        build_operators(GameSpace(2, mode="periodic")).number, np.diag([1.0, 1.0, 2.0]), atol=1e-15
    )


def test_payoff_matrices_dim2():
    ops = build_operators(GameSpace(1))
    pi1, pi2 = ops.pi1, ops.pi2
    s = math.sqrt(0.5)
    np.testing.assert_allclose(pi1, np.array([[0, s], [s, 0]]), atol=1e-15)
    np.testing.assert_allclose(pi2, np.array([[0, 1j * s], [-1j * s, 0]]), atol=1e-15)


def test_payoff_scaling_linear_in_kappa():
    pi1_unit = build_operators(GameSpace(1)).pi1
    pi1_scaled = build_operators(GameSpace(1, kappa1=3.0)).pi1
    np.testing.assert_allclose(pi1_scaled, 3.0 * pi1_unit, atol=1e-15)


def test_precorrelation_dim2_vanishes():
    np.testing.assert_allclose(build_operators(GameSpace(1)).precorrelation, np.zeros((2, 2)), atol=1e-15)


def test_precorrelation_dim3_entries():
    # (pi1 pi2 + pi2 pi1)/2 = -(i/2)(raise^2 - lower^2); <2|raise^2|0> = sqrt(2)
    pc = build_operators(GameSpace(2)).precorrelation
    expected = np.zeros((3, 3), dtype=complex)
    expected[2, 0] = -1j / math.sqrt(2)
    expected[0, 2] = 1j / math.sqrt(2)
    np.testing.assert_allclose(pc, expected, atol=1e-15)


def test_precorrelation_odd_row_vanishes_dim3():
    pc = build_operators(GameSpace(2)).precorrelation
    np.testing.assert_array_equal(pc[1, :], np.zeros(3))


def test_precorrelation_couples_only_two_apart():
    for dim in SAMPLE_DIMS:
        pc = build_operators(GameSpace(dim - 1)).precorrelation
        for m in range(dim):
            for n in range(dim):
                if abs(m - n) != 2:
                    assert abs(pc[m, n]) <= 1e-15, (m, n)


def test_operator_set_consistency():
    for dim in SAMPLE_DIMS:
        for mode in ("finite", "periodic"):
            ops = build_operators(GameSpace(dim - 1, mode=mode, kappa1=0.7, kappa2=2.3))
            np.testing.assert_array_equal(ops.a_minus, adjoint(ops.a_plus))
            np.testing.assert_array_equal(ops.number, ops.a_plus @ ops.a_minus)
            assert hermitian_deviation(ops.pi1) <= 1e-12
            assert hermitian_deviation(ops.pi2) <= 1e-12
            assert hermitian_deviation(ops.precorrelation) <= 1e-12


def test_precorrelation_entries_purely_imaginary():
    for dim in (3, 6, 11):
        for mode in ("finite", "periodic"):
            pc = build_operators(GameSpace(dim - 1, mode=mode)).precorrelation
            assert np.max(np.abs(pc.real)) <= 1e-14


def test_ladder_commutator_closed_forms():
    for dim in SAMPLE_DIMS:
        rounds = dim - 1
        # the stored sqrt entries alone carry ~2u*(2N+1) of deviation, so the
        # flat 1e-14 bound is only meaningful up to N = 32
        tol = 1e-14 if rounds <= 32 else 1e-14 * rounds
        audit = audit_commutators(GameSpace(rounds))
        expected = np.diag(ladder_commutator_diagonal(GameSpace(rounds)))
        np.testing.assert_allclose(audit.ladder_commutator, expected, atol=tol)
        assert abs(audit.ladder_trace) <= 1e-10

        audit_p = audit_commutators(GameSpace(rounds, mode="periodic"))
        expected_p = np.diag(ladder_commutator_diagonal(GameSpace(rounds, mode="periodic")))
        np.testing.assert_allclose(audit_p.ladder_commutator, expected_p, atol=tol)
        assert abs(audit_p.ladder_trace) <= 1e-10


def test_audit_unit_trace_variant_misses_by_one():
    # the trace-1 diagonal cannot be a commutator; the audit must show the gap
    audit = audit_commutators(GameSpace(9))
    assert audit.pattern_max_deviation["trace_zero"] <= 1e-14
    assert audit.pattern_max_deviation["unit_trace"] == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(unit_trace_diagonal(GameSpace(9)))) == pytest.approx(1.0)


def test_audit_interior_payoff_commutator():
    audit = audit_commutators(GameSpace(9))
    assert audit.interior_max_deviation <= 1e-14
    assert audit.payoff_sign == -1


def test_audit_periodic_interior_excludes_zero_sector():
    # periodic interior is 1 .. N-2: |0> commutes and must not count
    for rounds in (2, 3, 4, 9, 16, 40):
        for kappa1, kappa2 in ((1.0, 1.0), (2.5, 0.3), (1e3, 1e-2)):
            audit = audit_commutators(GameSpace(rounds, "periodic", kappa1, kappa2))
            assert audit.interior_max_deviation <= 1e-12 * kappa1 * kappa2


def test_audit_periodic_pattern_exact():
    audit = audit_commutators(GameSpace(2, mode="periodic"))
    np.testing.assert_allclose(
        audit.ladder_commutator, np.diag([0.0, 1.0, -1.0]), atol=1e-14
    )
    assert audit.pattern_max_deviation["wrap"] <= 1e-14


def test_audit_periodic_zero_sector_commutes():
    audit = audit_commutators(GameSpace(4, mode="periodic"))
    assert abs(audit.zero_sector_value) <= 1e-14


def test_payoff_variance_interior_values():
    pv = payoff_variance(GameSpace(5), 0, 1)
    assert pv.value == pytest.approx(0.5, rel=1e-14)
    assert pv.interior

    pv = payoff_variance(GameSpace(5, kappa2=2.0), 3, 2)
    assert pv.value == pytest.approx(14.0, rel=1e-13)
    assert pv.interior


def test_payoff_variance_boundary_flagged():
    pv = payoff_variance(GameSpace(2), 2, 1)
    assert pv.value == pytest.approx(1.0, rel=1e-13)
    assert not pv.interior


def test_payoff_variance_interior_law_all_kappas():
    for kappa in (0.5, 1.0, 2.0, 7.3):
        for mode in ("finite", "periodic"):
            gs = GameSpace(6, mode=mode, kappa1=kappa, kappa2=kappa)
            lo = 0 if mode == "finite" else 1
            for n in range(lo, 6):
                for player in (1, 2):
                    pv = payoff_variance(gs, n, player)
                    assert pv.interior
                    assert pv.value == pytest.approx((n + 0.5) * kappa**2, rel=1e-12)


def test_payoff_variance_range_check():
    with pytest.raises(InputError):
        payoff_variance(GameSpace(3), 4, 1)
    with pytest.raises(InputError):
        payoff_variance(GameSpace(3), -1, 2)
    with pytest.raises(InputError):
        payoff_variance(GameSpace(3), 1, 3)


def test_number_state_basics():
    gs = GameSpace(3)
    state = number_state(gs, 0)
    np.testing.assert_array_equal(state, np.array([1, 0, 0, 0], dtype=complex))
    assert np.linalg.norm(number_state(gs, 2)) == 1.0
    with pytest.raises(InputError):
        number_state(gs, 4)


def test_lowering_annihilates_ground_state_finite():
    gs = GameSpace(3)
    _, a_minus = build_ladder(gs)
    np.testing.assert_array_equal(a_minus @ number_state(gs, 0), np.zeros(4))


def test_builders_return_the_operator_set_fields():
    for mode in ("finite", "periodic"):
        gs = GameSpace(7, mode=mode, kappa1=0.7, kappa2=2.3)
        ops = build_operators(gs)
        np.testing.assert_array_equal(build_ladder(gs)[0], ops.a_plus)
        np.testing.assert_array_equal(build_operators(gs).number, ops.number)
        np.testing.assert_array_equal(build_operators(gs).pi2, ops.pi2)
        np.testing.assert_array_equal(build_operators(gs).precorrelation, ops.precorrelation)


def test_kappa_overflow_is_input_error_naming_both_kappas():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported, not warned about
        with pytest.raises(InputError, match=r"kappa1 = 1\.000e\+200, kappa2 = 1\.000e\+200"):
            build_operators(GameSpace(3, kappa1=1e200, kappa2=1e200))
        # operators finite, but the split products of the commutator overflow
        gs = GameSpace(10, kappa1=1e300, kappa2=1e-300)
        assert np.all(np.isfinite(build_operators(gs).pi1))
        with pytest.raises(InputError, match="kappa1 = 1.000e\\+300.*commutator"):
            audit_commutators(gs)
    audit = audit_commutators(GameSpace(3, kappa1=1e300, kappa2=1e-300))
    assert np.all(np.isfinite(audit.payoff_commutator))


def test_payoff_variance_kappa_range():
    gs = GameSpace(5, kappa1=1e150, kappa2=1e170)  # kappa2 alone would overflow PC
    assert payoff_variance(gs, 3, 1).value == pytest.approx(3.5e300, rel=1e-12)
    with pytest.raises(InputError, match=r"kappa2 = 1\.000e\+170"):
        payoff_variance(gs, 3, 2)
