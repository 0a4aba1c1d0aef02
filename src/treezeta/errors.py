"""Exception types shared across the package."""


class DomainError(ValueError):
    """An input violates a documented precondition."""


class CutViolationError(DomainError):
    """Evaluation point too close to the spectral cut of a branch function."""


class PoleError(DomainError):
    """Evaluation point at or too close to a pole."""


class NonConvergedError(RuntimeError):
    """A numerical routine exhausted its budget before meeting tolerance.

    The best available estimate, when one exists, is attached as ``best``.
    """

    def __init__(self, message, best=None, est_error=None):
        super().__init__(message)
        self.best = best
        self.est_error = est_error


class ConsistencyError(RuntimeError):
    """An internal exactness invariant failed; signals an implementation bug."""


class OutOfRangeError(DomainError):
    """A result, or an intermediate it needs, lies outside the double-precision range."""
