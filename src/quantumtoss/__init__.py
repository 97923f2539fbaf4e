"""Two-player non-commuting gambling game: operators, spectra, densities.

The game space is the span of round-number states |0> ... |N>; the pay-off
operators of the two players are canonically conjugate, and superpositions
across rounds correlate the players' random earnings.  This package builds
the operator algebra in both boundary modes, diagonalizes the symmetrized
pay-off product, and carries out the wave-picture analysis of per-round
densities against the classical random walk.
"""

from .correlation import (
    CorrelationReport,
    CorrelationRow,
    correlation_spectrum,
    correlation_value,
    parity_blocks,
    sign_classification,
)
from .errors import ConvergenceError, InputError, StructureError
from .gamespace import (
    CommutatorAudit,
    GameSpace,
    OperatorSet,
    audit_commutators,
    build_ladder,
    build_operators,
    number_state,
    payoff_variance,
)
from .numerics import (
    SpectralDecomposition,
    adjoint,
    commutator,
    expectation,
    hermitian_eigen,
)
from .roundwaves import (
    ClassicalMixture,
    ComparisonReport,
    DensityGrid,
    DivergenceReport,
    PeakSet,
    classical_mixture,
    classical_mixture_density,
    compare_quantum_classical,
    correlation_eigenfunction,
    density_grid,
    density_peaks,
    divergence_scan,
    eigenfunction_residual,
    hermite,
    hermite_zeros,
    psi,
    schrodinger_residual,
)

__version__ = "0.1.0"
