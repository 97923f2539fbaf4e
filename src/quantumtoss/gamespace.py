"""Arbiter and pay-off operators of the two-player round game.

The game lives on the span of round-number states |0> ... |N> (dimension
N + 1).  The raising matrix either annihilates the last round state
("finite" mode) or wraps it back onto |0> ("periodic" mode); everything
else — the round counter, both pay-off operators and their symmetrized
product — is built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .numerics import adjoint, commutator, expectation

MODES = ("finite", "periodic")


@dataclass(frozen=True)
class GameSpace:
    """Game configuration: maximum round index, boundary mode, pay-off units.

    ``rounds_max`` is the largest round index N, so the state space has
    dimension N + 1.  ``kappa1``/``kappa2`` are the currency-per-round scales
    of the two players.  Periodic mode needs at least two round states.
    """

    rounds_max: int
    mode: str = "finite"
    kappa1: float = 1.0
    kappa2: float = 1.0

    def __post_init__(self):
        if isinstance(self.rounds_max, bool) or not isinstance(
            self.rounds_max, (int, np.integer)
        ):
            raise InputError("rounds_max must be an integer")
        if self.rounds_max < 0:
            raise InputError("rounds_max must be non-negative")
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "periodic" and self.rounds_max < 1:
            raise InputError("periodic mode is degenerate with a single state")
        for name, value in (("kappa1", self.kappa1), ("kappa2", self.kappa2)):
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise InputError(f"{name} must be a positive finite number")

    @property
    def dim(self) -> int:
        return self.rounds_max + 1


def build_ladder(gs: GameSpace) -> tuple[np.ndarray, np.ndarray]:
    """Raising and lowering matrices (a_plus, a_minus = a_plus^dagger).

    <n+1| a_plus |n> = sqrt(n+1).  In finite mode the last column is zero
    (raising the final round state annihilates it — not the same as mapping
    it to |0>); in periodic mode a_plus[0, N] = 1, the unique wrap weight
    whose ladder commutator is diag(0, 1, ..., 1, 1-N).
    """
    a_plus = np.diag(np.sqrt(np.arange(1, gs.dim, dtype=float)), -1).astype(complex)
    if gs.mode == "periodic":
        a_plus[0, gs.rounds_max] = 1.0
    return a_plus, adjoint(a_plus)


def _require_finite(gs: GameSpace, what: str, *arrays) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise InputError(
            f"kappa1 = {gs.kappa1:.3e}, kappa2 = {gs.kappa2:.3e} overflow the {what} "
            f"at rounds {gs.rounds_max}"
        )


@dataclass(frozen=True)
class OperatorSet:
    """All operators of one game space, built consistently from its ladder."""

    gamespace: GameSpace
    a_plus: np.ndarray
    a_minus: np.ndarray
    number: np.ndarray
    pi1: np.ndarray
    pi2: np.ndarray
    precorrelation: np.ndarray


def build_operators(gs: GameSpace) -> OperatorSet:
    """Ladder, round counter, pay-offs and their symmetrized product.

    number = a_plus a_minus is diag(0, 1, ..., N), or diag(1, 1, 2, ..., N)
    periodic (lowering |0> lands on |N>).  pi1 = kappa1 (a_plus + a_minus) /
    sqrt(2) has real weights, pi2 = -i kappa2 (a_plus - a_minus) / sqrt(2)
    imaginary ones; precorrelation = (pi1 pi2 + pi2 pi1) / 2 is Hermitian,
    purely imaginary, and in finite mode couples only states two apart.  A
    kappa scaling that leaves any entry non-finite is an InputError.
    """
    a_plus, a_minus = build_ladder(gs)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        pi1 = gs.kappa1 * (a_plus + a_minus) / math.sqrt(2.0)
        pi2 = -1j * gs.kappa2 * (a_plus - a_minus) / math.sqrt(2.0)
        precorrelation = 0.5 * (pi1 @ pi2 + pi2 @ pi1)
    _require_finite(gs, "pay-off operators", pi1, pi2, precorrelation)
    return OperatorSet(
        gamespace=gs,
        a_plus=a_plus,
        a_minus=a_minus,
        number=a_plus @ a_minus,
        pi1=pi1,
        pi2=pi2,
        precorrelation=precorrelation,
    )


def ladder_commutator_diagonal(gs: GameSpace) -> np.ndarray:
    """Closed form of diag([a_minus, a_plus]) for the mode.

    finite: (1, ..., 1, -N); periodic: (0, 1, ..., 1, 1-N).  Both are
    traceless, as any finite-dimensional commutator must be.
    """
    n = gs.rounds_max
    diag = np.ones(gs.dim)
    if gs.mode == "finite":
        diag[n] = -float(n)
    else:
        diag[0] = 0.0
        diag[n] = 1.0 - float(n)
    return diag


def unit_trace_diagonal(gs: GameSpace) -> np.ndarray:
    """The trace-1 truncation variant (1, ..., 1, 1-N).

    Quoted for finite truncations, but no commutator can realize it: its
    trace is 1, not 0.  The audit reports the deviation from it alongside
    the trace-free form.
    """
    diag = np.ones(gs.dim)
    diag[gs.rounds_max] = 1.0 - float(gs.rounds_max)
    return diag


@dataclass(frozen=True)
class CommutatorAudit:
    """Full commutators of one game space plus their pattern deviations.

    ``pattern_max_deviation`` maps each candidate closed form of
    [a_minus, a_plus] to its worst entry deviation; ``interior_max_deviation``
    measures [pi1, pi2] against -i kappa1 kappa2 I on the interior round
    indices, 0 .. N-2 in finite mode and 1 .. N-2 in periodic mode (|0>
    commutes there); ``payoff_sign`` is the computed sign s in
    [pi1, pi2] = s * i kappa1 kappa2 I there (-1 under this matrix
    convention); ``zero_sector_value`` is <0| [pi1, pi2] |0>.
    """

    gamespace: GameSpace
    ladder_commutator: np.ndarray
    payoff_commutator: np.ndarray
    ladder_trace: complex
    pattern_entry_deviation: dict[str, np.ndarray]
    pattern_max_deviation: dict[str, float]
    interior_max_deviation: float
    payoff_sign: int
    zero_sector_value: complex


def audit_commutators(gs: GameSpace) -> CommutatorAudit:
    ops = build_operators(gs)
    ladder_comm = commutator(ops.a_minus, ops.a_plus)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        payoff_comm = commutator(ops.pi1, ops.pi2)
    _require_finite(gs, "pay-off commutator", payoff_comm)

    if gs.mode == "finite":
        candidates = {
            "trace_zero": ladder_commutator_diagonal(gs),
            "unit_trace": unit_trace_diagonal(gs),
        }
    else:
        candidates = {"wrap": ladder_commutator_diagonal(gs)}
    entry_dev = {
        name: np.abs(ladder_comm - np.diag(diag)) for name, diag in candidates.items()
    }
    max_dev = {name: float(np.max(dev)) for name, dev in entry_dev.items()}

    # interior: 0 .. N-2 in finite mode, 1 .. N-2 in periodic mode, where
    # the |0> sector commutes
    lo = 0 if gs.mode == "finite" else 1
    hi = max(gs.rounds_max - 1, lo)
    if hi > lo:
        block = payoff_comm[lo:hi, lo:hi]
        target = -1j * gs.kappa1 * gs.kappa2 * np.eye(hi - lo)
        interior_dev = float(np.max(np.abs(block - target)))
    else:
        interior_dev = 0.0

    probe = payoff_comm[lo, lo].imag if lo < gs.rounds_max else 0.0  # first interior state
    payoff_sign = int(np.sign(probe))

    return CommutatorAudit(
        gamespace=gs,
        ladder_commutator=ladder_comm,
        payoff_commutator=payoff_comm,
        ladder_trace=complex(np.trace(ladder_comm)),
        pattern_entry_deviation=entry_dev,
        pattern_max_deviation=max_dev,
        interior_max_deviation=interior_dev,
        payoff_sign=payoff_sign,
        zero_sector_value=complex(payoff_comm[0, 0]),
    )


@dataclass(frozen=True)
class PayoffVariance:
    """<n| pi_j^2 |n> together with whether |n> is an interior state."""

    value: float
    interior: bool


def payoff_variance(gs: GameSpace, n: int, player: int) -> PayoffVariance:
    """Mean-squared pay-off of one player in the round state |n>.

    Equals (n + 1/2) kappa_j^2 whenever |n> is interior (finite mode:
    n <= N-1; periodic mode: 1 <= n <= N-1); boundary states are returned
    as computed with interior=False.  Computed at kappa = 1 and scaled by
    kappa_j^2, so the other player's kappa does not enter; InputError if
    the scaling overflows.
    """
    if player not in (1, 2):
        raise InputError(f"player must be 1 or 2, got {player!r}")
    state = number_state(gs, n)  # validates n
    kappa = gs.kappa1 if player == 1 else gs.kappa2
    ops = build_operators(GameSpace(gs.rounds_max, gs.mode))
    pi = ops.pi1 if player == 1 else ops.pi2
    value = kappa * kappa * expectation(state, pi @ pi).real
    if not math.isfinite(value):
        raise InputError(f"kappa{player} = {kappa:.3e} overflows the mean-squared pay-off")
    interior = n < gs.rounds_max and (n >= 1 or gs.mode == "finite")
    return PayoffVariance(value=float(value), interior=interior)


def number_state(gs: GameSpace, n: int) -> np.ndarray:
    """Round-number basis vector e_n."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise InputError("round index must be an integer")
    if not 0 <= n <= gs.rounds_max:
        raise InputError(f"round index {n} outside 0..{gs.rounds_max}")
    state = np.zeros(gs.dim, dtype=complex)
    state[n] = 1.0
    return state
