"""Modular Shannon entropy, coherence, and the closed-form uncertainty bounds.

For a Parseval frame {tau_j} and a unit-inner-product vector x, the
fiber-t coefficient weights a_j(t) = |<x, tau_j>(t)|^2 form a
probability vector, and the entropy is the C(X)-valued function

    S(x)(t) = - sum_j a_j(t) ln a_j(t),

with the continuity convention a ln a := 0 at a = 0.  At d = 1 this is
the ordinary Shannon entropy of the measurement distribution.  The
in_domain flag preserves the strict reading in which no coefficient may
vanish; the continuous extension is what makes boundary infima of the
uncertainty functional reachable.

Bounds: for coherence mu = max_{j,k} ||<tau_j, omega_k>||, the Deutsch
bound is -2 ln((1 + mu)/2) and the Maassen-Uffink (Kraus) bound is
-2 ln mu.  Natural logarithms throughout; every inequality here is
base-invariant as long as entropy and bound agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .algebra import AlgebraElement, norm
from .errors import DimensionMismatch, PreconditionError
from .frames import Frame, has_unit_inner_products
from .module_space import ModuleVector, UNIT_TOL, inner, is_unit_inner, module_norm

# Weights at or below this count as zero for the a*ln(a) := 0 convention.
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class EntropyValue:
    """A-valued entropy plus domain-membership bookkeeping.

    ``in_domain`` is True iff every coefficient weight, in every fiber,
    stays above the zero tolerance (the strict domain of the entropy);
    ``zero_coefficient_count`` counts the (j, fiber) pairs at or below it.
    """

    value: AlgebraElement
    in_domain: bool
    zero_coefficient_count: int


def _xlogx(w: np.ndarray, zero_tol: float) -> np.ndarray:
    """w * ln(w) evaluated directly, 0 at w <= zero_tol."""
    safe = np.where(w > zero_tol, w, 1.0)
    return np.where(w > zero_tol, safe * np.log(safe), 0.0)


def batch_coefficient_weights(analysis: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Coefficient weights |<x, tau_j>(t)|^2 for a batch of vectors.

    ``analysis`` is a frame's (d, m, n) cache and ``xs`` is (batch, n, d);
    the result has shape (batch, m, d), C-contiguous.  One matrix-vector
    product per (vector, fiber), so a vector's weights do not depend on
    what else is in the batch.
    """
    coeffs = np.matmul(analysis, xs.transpose(0, 2, 1)[..., np.newaxis])[..., 0]  # (batch, d, m)
    return np.ascontiguousarray((np.abs(coeffs) ** 2).transpose(0, 2, 1))


def batch_entropy_values(analysis: np.ndarray, xs: np.ndarray,
                         zero_tol: float = ZERO_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Entropy values (batch, d) and zero-coefficient counts (batch,).

    Summation runs in a fixed order (ascending j within each fiber), so
    results do not depend on how callers schedule the batch.
    """
    w = batch_coefficient_weights(analysis, xs)
    values = -np.sum(_xlogx(w, zero_tol), axis=1)
    zeros = np.sum(w <= zero_tol, axis=(1, 2))
    return values, zeros


def entropy(frame: Frame, x: ModuleVector, zero_tol: float = ZERO_TOL, *,
            unit_tol: float = UNIT_TOL, strict_unit_frame: bool = False) -> EntropyValue:
    """Modular Shannon entropy of x with respect to a Parseval frame.

    Preconditions: x has unit inner product and the frame is Parseval
    (at its construction tolerance); both raise PreconditionError.
    ``strict_unit_frame`` additionally rejects frames whose vectors do
    not all have unit inner product -- the strict reading under which
    the entropy was originally defined.  In rank n that forces m = n
    (fiberwise orthonormal bases), so the default accepts every
    Parseval frame, the way the classical Parseval-frame entropy does.
    """
    if zero_tol < 0:
        raise ValueError(f"zero_tol must be >= 0, got {zero_tol}")
    if (x.n, x.d) != (frame.n, frame.d):
        raise DimensionMismatch(
            f"vector shape (n={x.n}, d={x.d}) does not match frame (n={frame.n}, d={frame.d})"
        )
    if not frame.parseval:
        raise PreconditionError(
            f"entropy needs a Parseval frame (identity violated beyond tol={frame.parseval_tol:g})"
        )
    if not is_unit_inner(x, unit_tol):
        raise PreconditionError("entropy needs a unit inner product vector")
    if strict_unit_frame and not has_unit_inner_products(frame):
        raise PreconditionError(
            "strict mode: frame vectors must all have unit inner product"
        )
    values, zeros = batch_entropy_values(frame.analysis, x.entries[np.newaxis], zero_tol)
    count = int(zeros[0])
    return EntropyValue(
        value=AlgebraElement(values[0].astype(np.complex128)),
        in_domain=(count == 0),
        zero_coefficient_count=count,
    )


def cross_inner_norms(frame_a: Frame, frame_b: Frame) -> np.ndarray:
    """Matrix of ||<tau_j, omega_k>|| over all pairs, shape (m_a, m_b)."""
    if (frame_a.n, frame_a.d) != (frame_b.n, frame_b.d):
        raise DimensionMismatch(
            f"frames have mismatched shapes: (n={frame_a.n}, d={frame_a.d})"
            f" vs (n={frame_b.n}, d={frame_b.d})"
        )
    # <tau_j, omega_k>(t) = sum_i conj(Aa[t,j,i]) Ab[t,k,i]
    gram = np.einsum("tji,tki->tjk", np.conj(frame_a.analysis), frame_b.analysis)
    return np.max(np.abs(gram), axis=0)


def coherence(frame_a: Frame, frame_b: Frame) -> float:
    """max over (j, k) of ||<tau_j, omega_k>||; exhaustive, no pruning."""
    return float(np.max(cross_inner_norms(frame_a, frame_b)))


def deutsch_bound(mu: float) -> float:
    """-2 ln((1 + mu)/2) for coherence mu in [0, 1]."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"deutsch_bound needs 0 <= mu <= 1, got {mu}")
    return -2.0 * math.log((1.0 + mu) / 2.0)


def mu_bound(mu: float) -> float:
    """-2 ln(mu) for coherence mu in (0, 1]: the sharper Kraus-type bound."""
    if not 0.0 < mu <= 1.0:
        raise ValueError(f"mu_bound needs 0 < mu <= 1, got {mu}")
    return -2.0 * math.log(mu)


class BuzanoResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def buzano_check(x: ModuleVector, y: ModuleVector, z: ModuleVector,
                 tol: float = 1e-10) -> BuzanoResult:
    """Evaluate ||<x,z><z,y>|| <= (||x|| ||y|| + ||<x,y>||) / 2 for unit z.

    Returns both sides and whether the inequality holds with slack tol.
    """
    if not is_unit_inner(z):
        raise PreconditionError("buzano_check needs <z, z> = 1")
    lhs = norm(inner(x, z) * inner(z, y))
    rhs = 0.5 * (module_norm(x) * module_norm(y) + norm(inner(x, y)))
    return BuzanoResult(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + tol))


def fiber_entropy_sum(mats: Sequence[np.ndarray], v: np.ndarray,
                      zero_tol: float = ZERO_TOL) -> float:
    """Entropy sum at one fiber: v in C^n against per-frame analysis matrices."""
    total = 0.0
    for mat in mats:
        w = np.abs(mat @ v) ** 2
        total -= float(np.sum(_xlogx(w, zero_tol)))
    return total


def fiber_entropy_sum_grad(mats: Sequence[np.ndarray], v: np.ndarray,
                           zero_tol: float = ZERO_TOL) -> tuple[float, np.ndarray, float]:
    """Value, Euclidean gradient, and smallest weight at one fiber.

    The gradient is with respect to the real and imaginary parts of v,
    packed as the complex vector g with df = Re(g^H dv):

        g = -2 A^H ((ln w + 1) * c),   c = A v,  w = |c|^2,

    with the terms of vanished weights dropped, matching the continuous
    extension of the objective.  The smallest weight lets callers detect
    the stiff near-boundary regime.
    """
    total = 0.0
    grad = np.zeros_like(v)
    min_w = np.inf
    for mat in mats:
        c = mat @ v
        w = np.abs(c) ** 2
        min_w = min(min_w, float(np.min(w)))
        total -= float(np.sum(_xlogx(w, zero_tol)))
        live = w > zero_tol
        coeff = np.where(live, np.log(np.where(live, w, 1.0)) + 1.0, 0.0)
        grad -= 2.0 * (np.conj(mat.T) @ (coeff * c))
    return total, grad, min_w


def project_tangent(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project a gradient onto the tangent space of the unit sphere at v."""
    return g - np.real(np.vdot(v, g)) * v
