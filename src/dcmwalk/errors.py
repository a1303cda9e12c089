"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation-type failures exit 2,
numerical failures exit 3, capacity failures exit 4.
"""


class DcmWalkError(Exception):
    """Base class for all package errors."""


class ValidationError(DcmWalkError):
    """Malformed or inconsistent input data."""


class BalanceError(ValidationError):
    """Head and tail totals of a bi-degree sequence do not match."""

    def __init__(self, head_total: int, tail_total: int):
        self.head_total = head_total
        self.tail_total = tail_total
        self.deficit = head_total - tail_total
        super().__init__(
            f"unbalanced sequence: sum(d_in)={head_total} != sum(d_out)={tail_total} "
            f"(deficit {self.deficit})"
        )


class RealizationError(ValidationError):
    """A distribution cannot be realized as a balanced integer sequence."""


class DegenerateError(ValidationError):
    """An operation was applied in a regime where it is undefined."""


class ConfigError(ValidationError):
    """Invalid experiment configuration."""


class NumericalError(DcmWalkError):
    """An iterative numerical procedure failed to converge."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)


class NonUniqueError(NumericalError):
    """The sampled graph has no attractive SCC, hence no unique stationary law."""

    def __init__(self, message: str = "no attractive strongly connected component"):
        super().__init__(message)


class TruncationError(NumericalError):
    """A weight computation was requested past a truncated generation."""

    def __init__(self, message: str = "tree truncated before requested generation"):
        super().__init__(message)


class CensoredError(NumericalError):
    """Every Monte Carlo replicate hit the step cap."""

    def __init__(self, message: str = "all walk replicates censored at the step cap"):
        super().__init__(message)


class UnreachableError(ValidationError, CensoredError):
    """No path from the start reaches the walk target, so every replicate
    would be censored at any step cap: rejected up front (exit 2)."""


class CapacityError(DcmWalkError):
    """An exact enumeration would exceed its size budget."""
