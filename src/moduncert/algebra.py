"""The commutative unital C*-algebra C(X) on a finite point set X of size d.

Elements are d-tuples of complex numbers with pointwise arithmetic, the
sup-norm, and the usual order (a >= 0 iff every value is a nonnegative
real).  By Gelfand duality this realizes every finite-dimensional
commutative unital C*-algebra, so nothing here is an approximation.

No functional calculus is provided: the entropy layer takes its
logarithms (with the 0 ln 0 = 0 convention) on the weights directly.
Elements are immutable, and +, - and * on them return new elements.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, check_count, check_tolerance

# Absolute tolerance for positivity / order checks on floating-point data.
POSITIVITY_TOL = 1e-9


@dataclass(frozen=True)
class AlgebraElement:
    """One element of C(X): the value at point t of X is ``values[t]``."""

    values: np.ndarray
    # NumPy defers to these operators, so an array operand is refused, not mapped over
    __array_ufunc__ = None

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"values must be a nonempty 1-d sequence, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _check_same_d(self, other)
        return AlgebraElement(self.values + other.values)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _check_same_d(self, other)
        return AlgebraElement(self.values - other.values)

    def __mul__(self, other) -> "AlgebraElement":
        """Pointwise product with an element, commutative by construction, or a number."""
        if isinstance(other, AlgebraElement):
            _check_same_d(self, other)
            return AlgebraElement(self.values * other.values)
        if not isinstance(other, numbers.Number):
            return NotImplemented
        return AlgebraElement(self.values * complex(other))

    __rmul__ = __mul__

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(-self.values)


def _check_same_d(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.d != b.d:
        raise DimensionMismatch(f"algebra elements live on different point sets: d={a.d} vs d={b.d}")


def identity(d: int) -> AlgebraElement:
    """The unit of C(X): the constant function 1."""
    check_count("d", d, 1)
    return AlgebraElement(np.ones(d, dtype=np.complex128))


def zero(d: int) -> AlgebraElement:
    """The zero element."""
    check_count("d", d, 1)
    return AlgebraElement(np.zeros(d, dtype=np.complex128))


def involution(a: AlgebraElement) -> AlgebraElement:
    """The *-operation: pointwise complex conjugation."""
    return AlgebraElement(np.conj(a.values))


def norm(a: AlgebraElement) -> float:
    """Sup-norm: max modulus over the d points.  Satisfies ||a* a|| = ||a||^2."""
    return float(np.max(np.abs(a.values)))


def is_positive(a: AlgebraElement, tol: float = POSITIVITY_TOL) -> bool:
    """True iff every value is, within tol, a nonnegative real."""
    check_tolerance("tol", tol)
    v = a.values
    return bool(np.all(np.abs(v.imag) <= tol) and np.all(v.real >= -tol))


def order_geq(a: AlgebraElement, b: AlgebraElement, tol: float = POSITIVITY_TOL) -> bool:
    """The C*-order: a >= b iff a - b is positive."""
    return is_positive(a - b, tol)
