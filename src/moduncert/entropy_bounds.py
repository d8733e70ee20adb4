"""Modular Shannon entropy, coherence, and the closed-form uncertainty bounds.

For a Parseval frame {tau_j} and a unit-inner-product vector x, the
fiber-t coefficient weights a_j(t) = |<x, tau_j>(t)|^2 form a
probability vector, and the entropy is the C(X)-valued function

    S(x)(t) = - sum_j a_j(t) ln a_j(t),

with the continuity convention a ln a := 0 at a = 0.  At d = 1 this is
the ordinary Shannon entropy of the measurement distribution.  The
in_domain flag preserves the strict reading in which no coefficient may
vanish; the continuous extension is what makes boundary infima of the
uncertainty functional reachable.  Every evaluation of S, of its
gradient and of its Hessian goes through ``entropy_terms``,
``entropy_gradient`` and ``entropy_hessian``, which take a batch of
(..., n) rows, one fiber of a vector each, against (..., m, n) analysis
matrices.  Stacking two frames' rows into one (m_a + m_b, n) matrix
gives the entropy sum S_A + S_B at that fiber.  A weight counts as zero
at or below ``ZERO_TOL``, which every caller reads at call time.

Bounds: for coherence mu = max_{j,k} ||<tau_j, omega_k>||, the Deutsch
bound is -2 ln((1 + mu)/2) and the Maassen-Uffink (Kraus) bound is
-2 ln mu.  Natural logarithms throughout; every inequality here is
base-invariant as long as entropy and bound agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraElement
from .errors import PreconditionError
from .frames import (
    PARSEVAL_TOL,
    Frame,
    check_pair_shape,
    check_vector_shape,
    has_unit_inner_products,
)
from .module_space import ModuleVector, check_same_shape, is_unit_inner

# Weights at or below this count as zero for the a*ln(a) := 0 convention.
ZERO_TOL = 1e-12
# Slack of the Buzano and proof-chain inequality checks.
INEQUALITY_TOL = 1e-10


@dataclass(frozen=True)
class EntropyValue:
    """A-valued entropy plus domain-membership bookkeeping.

    ``in_domain`` is True iff every coefficient weight, in every fiber,
    stays above ``ZERO_TOL`` (the strict domain of the entropy);
    ``zero_coefficient_count`` counts the (j, fiber) pairs at or below it.
    """

    value: AlgebraElement
    in_domain: bool
    zero_coefficient_count: int


def entropy_terms(analysis: np.ndarray, x: np.ndarray):
    """Coefficients, weights, their logarithms and the entropy of a batch of rows.

    ``analysis`` is (..., m, n) and ``x`` is (..., n); the two batch
    shapes broadcast.  Returns ``(c, w, log_w, s)`` with c = A x,
    w = |c|^2 and log_w = ln w where w > ZERO_TOL and 0 elsewhere (so that
    w ln w := 0 there), each (..., m), and s = -sum_j w_j ln w_j of shape
    (...).  Each row is one matrix-vector product and one contiguous sum,
    so its results do not depend on what else is in the batch.
    """
    c = (analysis @ x[..., np.newaxis])[..., 0]
    w = np.abs(c) ** 2
    log_w = np.log(w, out=np.zeros(w.shape), where=w > ZERO_TOL)
    return c, w, log_w, -np.add.reduce(w * log_w, axis=-1)


def entropy_gradient(analysis: np.ndarray, c: np.ndarray, w: np.ndarray,
                     log_w: np.ndarray) -> np.ndarray:
    """Gradient g = -2 A^H ((ln w + 1) * c) of the entropy at the rows
    behind ``entropy_terms``, reusing their ``log_w``.  g packs the real and
    imaginary parts of x, so ds = Re(g^H dx); vanished weights add no term,
    matching the continuous extension of the entropy."""
    coeff = np.where(w > ZERO_TOL, log_w + 1.0, 0.0)
    return -2.0 * (np.conj(np.swapaxes(analysis, -1, -2)) @ (coeff * c)[..., np.newaxis])[..., 0]


def entropy_hessian(analysis: np.ndarray, c: np.ndarray, w: np.ndarray,
                    log_w: np.ndarray) -> np.ndarray:
    """Real (..., 2n, 2n) Hessian of the entropy in [Re x, Im x] coordinates
    at the rows behind ``entropy_terms``, reusing their terms.  With R_j
    the real 2 x 2n form of row j and r_j = R_j^T [Re c_j, Im c_j], weight j
    adds -2 (ln w_j + 1) R_j^T R_j - (4 / w_j) r_j r_j^T; vanished weights
    add nothing, as in ``entropy_gradient``."""
    live = w > ZERO_TOL
    coeff = np.where(live, -2.0 * (log_w + 1.0), 0.0)[..., np.newaxis]
    inv = np.where(live, 4.0 / np.where(live, w, 1.0), 0.0)[..., np.newaxis]
    # sum_j coeff_j R_j^T R_j is the real form [[Re M, -Im M], [Im M, Re M]] of M = A^H diag(coeff) A
    big = np.conj(np.swapaxes(analysis, -1, -2)) @ (coeff * analysis)
    n = big.shape[-1]
    hess = np.empty(big.shape[:-2] + (2 * n, 2 * n))
    hess[..., :n, :n] = hess[..., n:, n:] = big.real
    hess[..., n:, :n] = big.imag
    np.negative(big.imag, out=hess[..., :n, n:])
    r = np.conj(analysis) * c[..., np.newaxis]       # row j: conj(a_j) c_j, i.e. r_j packed
    r = np.concatenate([r.real, r.imag], axis=-1)    # (..., m, 2n)
    return np.subtract(hess, np.swapaxes(r, -1, -2) @ (inv * r), out=hess)


def entropy(frame: Frame, x: ModuleVector, *, strict_unit_frame: bool = False) -> EntropyValue:
    """Modular Shannon entropy of x with respect to a Parseval frame.

    Preconditions: x has unit inner product and the frame is Parseval
    (at ``PARSEVAL_TOL``); both raise PreconditionError.
    ``strict_unit_frame`` additionally rejects frames whose vectors do
    not all have unit inner product -- the strict reading under which
    the entropy was originally defined.  In rank n that forces m = n
    (fiberwise orthonormal bases), so the default accepts every
    Parseval frame, the way the classical Parseval-frame entropy does.
    """
    check_vector_shape(frame, x)
    if not frame.parseval:
        raise PreconditionError("entropy needs a Parseval frame"
                                f" (identity violated beyond tol={PARSEVAL_TOL:g})")
    if not is_unit_inner(x):
        raise PreconditionError("entropy needs a unit inner product vector")
    if strict_unit_frame and not has_unit_inner_products(frame):
        raise PreconditionError("strict mode: frame vectors must all have unit inner product")
    _c, w, _log_w, s = entropy_terms(frame.analysis, x.entries.T)
    count = int(np.count_nonzero(w <= ZERO_TOL))
    return EntropyValue(
        value=AlgebraElement(s.astype(np.complex128)),
        in_domain=(count == 0),
        zero_coefficient_count=count,
    )


def cross_inner_norms(frame_a: Frame, frame_b: Frame) -> np.ndarray:
    """Matrix of ||<tau_j, omega_k>|| over all pairs, shape (m_a, m_b)."""
    check_pair_shape(frame_a, frame_b)
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


def buzano_sides(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """Buzano's inequality ||<x,z><z,y>|| <= (||x|| ||y|| + ||<x,y>||) / 2,
    which holds for z of unit inner product, on (..., n, d) entries arrays
    x, y and z that broadcast: returns (lhs, rhs, holds), arrays of the
    broadcast batch shape, holds with slack ``INEQUALITY_TOL``."""
    def inner(a, b):            # <a, b>(t), fiberwise as in module_space.inner
        return np.einsum("...it,...it->...t", a, np.conj(b))

    def sup(a):                 # the algebra's sup-norm over the d points
        return np.max(np.abs(a), axis=-1)

    lhs = sup(inner(x, z) * inner(z, y))
    rhs = 0.5 * (np.sqrt(sup(inner(x, x))) * np.sqrt(sup(inner(y, y))) + sup(inner(x, y)))
    return lhs, rhs, lhs <= rhs + INEQUALITY_TOL


def buzano_check(x: ModuleVector, y: ModuleVector, z: ModuleVector) -> BuzanoResult:
    """Evaluate ||<x,z><z,y>|| <= (||x|| ||y|| + ||<x,y>||) / 2 for unit z.

    Returns both sides and whether it holds with slack ``INEQUALITY_TOL``
    (``buzano_sides``).
    """
    if not is_unit_inner(z):
        raise PreconditionError("buzano_check needs <z, z> = 1")
    check_same_shape(x, z)
    check_same_shape(z, y)
    return BuzanoResult(*(a.item() for a in buzano_sides(x.entries, y.entries, z.entries)))


def project_tangent(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g - Re<v, g> v: gradients projected to the unit sphere at (..., n) rows v."""
    return g - np.add.reduce(v.real * g.real + v.imag * g.imag, axis=-1, keepdims=True) * v
