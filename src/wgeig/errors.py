"""Exception types shared across the solver stack."""


class WgeigError(Exception):
    """Base class for all package errors."""


class CapacityError(WgeigError):
    """Mesh level beyond the supported range."""


class LevelOrderError(WgeigError):
    """Fine mesh must be at least as deep as the coarse mesh."""


class DegreeTooLowError(WgeigError):
    """Polynomial degree below the minimum required by the problem kind."""


class ConfigError(WgeigError):
    """Invalid run configuration."""


class FactorizationFailureError(WgeigError):
    """Sparse factorization failed (matrix singular or not positive definite)."""


class NoConvergenceError(WgeigError):
    """Eigensolver did not reach the tolerance.

    ``iterations`` counts the operator applications made before stopping.
    """

    def __init__(self, iterations: int, worst_residual: float):
        super().__init__(
            f"eigensolver did not converge within {iterations} operator applications "
            f"(worst relative residual {worst_residual:.3e})"
        )
        self.iterations = iterations
        self.worst_residual = worst_residual


class NearSingularError(WgeigError):
    """Shifted matrix is numerically singular: the shift hit the fine spectrum.

    When the factorization was still usable, `solution` holds the best-effort
    amplified solve, which remains a valid inverse-iteration direction even
    though the residual postcondition is unattainable.
    """

    def __init__(self, shift: float, pivot_ratio=None, residual=None, solution=None):
        detail = f"shifted system with shift {shift!r} is numerically singular"
        if pivot_ratio is not None:
            detail += f" (pivot ratio {pivot_ratio:.3e})"
        if residual is not None:
            detail += f" (relative residual {residual:.3e})"
        super().__init__(detail)
        self.shift = shift
        self.pivot_ratio = pivot_ratio
        self.residual = residual
        self.solution = solution


class ZeroMassError(WgeigError):
    """Vector has a numerically zero mass-form norm."""


class EmptyClusterError(WgeigError):
    """No exact generators supplied for an eigenfunction error."""


class NonPositiveError(WgeigError):
    """Rate fit requires strictly positive error values."""
