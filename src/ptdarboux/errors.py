"""Error types shared across the package."""

__all__ = ["DomainError", "ParameterError", "ConvergenceError", "EvaluationError"]


class DomainError(ValueError):
    """Coordinate lies outside the interval on which the quantity is defined."""


class ParameterError(ValueError):
    """Parameter combination violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge (internal error)."""


class EvaluationError(ValueError):
    """An integrand produced a non-finite value."""
