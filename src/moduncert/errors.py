"""Error types and the tolerance check shared across the package."""

import math


class DimensionMismatch(ValueError):
    """Operands live over different point sets / module ranks."""


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


def check_tolerance(name: str, value: float) -> None:
    """Raise ValueError unless value is a finite number >= 0."""
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
