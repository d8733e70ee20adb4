"""Error types and the argument checks shared across the package."""

import math
import numbers


class DimensionMismatch(ValueError):
    """Operands live over different point sets / module ranks."""


class PreconditionError(ValueError):
    """A documented operation precondition does not hold."""


def is_number(value) -> bool:
    """True for an int or a float, but not for a bool (JSON's true and false)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_tolerance(name: str, value: float) -> None:
    """Raise ValueError unless value is a finite real number >= 0."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def check_count(name: str, value: int, low: int) -> None:
    """Raise ValueError unless value is an integer >= low (JSON's true and false are not)."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
