"""Two-player non-commuting gambling game: operators, spectra, densities.

The game space is the span of round-number states |0> ... |N>; the pay-off
operators of the two players are canonically conjugate, and superpositions
across rounds correlate the players' random earnings.  This package builds
the operator algebra in both boundary modes, diagonalizes the symmetrized
pay-off product, and carries out the wave-picture analysis of per-round
densities against the classical random walk.

The exported names load their module on first use (PEP 562), so importing
the package loads no numpy: ``python -m quantumtoss`` runs this file before
``__main__`` and must set up OpenBLAS before numpy starts it.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "CorrelationReport": "correlation",
    "CorrelationRow": "correlation",
    "correlation_spectrum": "correlation",
    "ConvergenceError": "errors",
    "InputError": "errors",
    "CommutatorAudit": "gamespace",
    "GameSpace": "gamespace",
    "OperatorSet": "gamespace",
    "audit_commutators": "gamespace",
    "build_ladder": "gamespace",
    "build_operators": "gamespace",
    "payoff_variance": "gamespace",
    "SpectralDecomposition": "numerics",
    "adjoint": "numerics",
    "commutator": "numerics",
    "hermitian_eigen": "numerics",
    "ComparisonReport": "roundwaves",
    "DivergenceReport": "roundwaves",
    "PeakSet": "roundwaves",
    "classical_mixture_density": "roundwaves",
    "compare_quantum_classical": "roundwaves",
    "correlation_eigenfunction": "roundwaves",
    "density_peaks": "roundwaves",
    "divergence_scan": "roundwaves",
    "hermite_zeros": "roundwaves",
    "psi": "roundwaves",
}
__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
