"""Exception types shared across the package, and the finiteness check of input values."""

import numpy as np


class DomainError(ValueError):
    """A parameter or input lies outside its physical/contractual domain."""


class ConditioningError(ArithmeticError):
    """A computation became numerically ill-conditioned (e.g. near-singular covariance)."""


def _require_finite(**fields) -> None:
    """DomainError naming the first field whose value (a number, an array or None) has a NaN or infinite entry."""
    for name, value in fields.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise DomainError(f"{name} must be finite")
