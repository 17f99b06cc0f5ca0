"""Error types shared across the package."""


class DomainError(ValueError):
    """Coordinate lies outside the interval on which the quantity is defined."""


class ParameterError(ValueError):
    """Parameter combination violates a documented precondition."""


class StabilityError(ValueError):
    """Evaluation refused too close to a removable singularity.

    Raised by identity_sides within closed_form.WALL_MARGIN of a wall,
    where its right-hand side divides by sin^2(t); the polynomial left-hand
    side remains valid there and should be used instead.
    """


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge (internal error)."""


class EvaluationError(ValueError):
    """An integrand produced a non-finite value."""
