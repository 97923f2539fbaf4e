"""Exception types shared across the package."""


class InputError(ValueError):
    """An argument violates an operation's contract (rejected input)."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
