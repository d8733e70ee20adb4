"""Finite Parseval frames for the module C(X)^n.

A frame is a family of m module vectors sharing n and d.  Per fiber t
the family is just m vectors in C^n; stacking the fiber-t analysis
coefficients row-wise gives the analysis matrix A(t) (row j is the
conjugate of tau_j's fiber), and the family is Parseval exactly when
A(t)^H A(t) = I_n in every fiber.  The matrices are the frame: a Frame
stores only the (d, m, n) stack of them, and every quantity (entropy,
coherence, reconstruction, both bounds) is a per-fiber dense product
against it.  The vectors tau_j are derived from it on demand.

Infinite index sets are out of scope: in a rank-n module any Parseval
frame carries finite essential content, so finite families are the
whole story here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, check_count, check_tolerance
from .module_space import UNIT_TOL, ModuleVector, header, pairs_from_json, pairs_to_json

PARSEVAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Frame:
    """Immutable frame given by its per-fiber analysis matrices.

    ``analysis[t]`` is the m x n matrix whose row j is the conjugated
    fiber-t vector of tau_j, so ``analysis[t] @ v`` lists the
    coefficients <v, tau_j>(t).  The frame keeps a read-only copy of the
    array.  ``parseval`` records whether the Parseval identity held at
    ``PARSEVAL_TOL`` when the frame was built.  Equality is identity.
    """

    analysis: np.ndarray
    parseval: bool = field(init=False)

    def __post_init__(self):
        analysis = np.array(self.analysis, dtype=np.complex128, order="C")
        if analysis.ndim != 3 or 0 in analysis.shape:
            raise ValueError(f"analysis must be a nonempty (d, m, n) array, got shape {analysis.shape}")
        d, m, n = analysis.shape
        if m < n:
            raise ValueError(f"m={m} frame vectors cannot be Parseval for rank n={n}; need m >= n")
        analysis.setflags(write=False)
        object.__setattr__(self, "analysis", analysis)
        object.__setattr__(self, "parseval", _parseval_defect(analysis) <= PARSEVAL_TOL)

    @property
    def d(self) -> int:
        return self.analysis.shape[0]

    @property
    def m(self) -> int:
        return self.analysis.shape[1]

    @property
    def n(self) -> int:
        return self.analysis.shape[2]

    @property
    def vectors(self) -> tuple[ModuleVector, ...]:
        """The frame vectors tau_j, each an n x d module vector."""
        return tuple(ModuleVector(e) for e in synthesis(self))


def synthesis(frame: Frame) -> np.ndarray:
    """(m, n, d) array whose [j] is the entries array of tau_j."""
    return np.conj(frame.analysis).transpose(1, 2, 0)


def _parseval_defect(analysis: np.ndarray) -> float:
    """Max-entry distance of A(t)^H A(t) from I_n, worst fiber."""
    n = analysis.shape[2]
    gram = np.einsum("tji,tjk->tik", np.conj(analysis), analysis)
    return float(np.max(np.abs(gram - np.eye(n))))


def is_parseval(frame: Frame, tol: float = PARSEVAL_TOL) -> bool:
    """True iff the per-fiber Parseval identity holds to tol (max-entry norm).

    Equivalent to the reconstruction identity x = sum_j <x, tau_j> tau_j
    for all x; the equivalence is exercised by the test suite rather
    than assumed.
    """
    check_tolerance("tol", tol)
    return _parseval_defect(frame.analysis) <= tol


def check_vector_shape(frame: Frame, x: ModuleVector) -> None:
    """Raise DimensionMismatch unless x has the frame's n and d."""
    if (x.n, x.d) != (frame.n, frame.d):
        raise DimensionMismatch(
            f"vector shape (n={x.n}, d={x.d}) does not match frame (n={frame.n}, d={frame.d})"
        )


def check_pair_shape(frame_a: Frame, frame_b: Frame) -> None:
    """Raise DimensionMismatch unless both frames have the same n and d."""
    if (frame_a.n, frame_a.d) != (frame_b.n, frame_b.d):
        raise DimensionMismatch(
            f"frames have mismatched shapes: (n={frame_a.n}, d={frame_a.d})"
            f" vs (n={frame_b.n}, d={frame_b.d})"
        )


def reconstruct(frame: Frame, x: ModuleVector) -> ModuleVector:
    """sum_j <x, tau_j> tau_j = A^H A x per fiber; equals x (to tolerance) iff Parseval."""
    check_vector_shape(frame, x)
    a = frame.analysis
    out = np.conj(a).transpose(0, 2, 1) @ (a @ x.entries.T[:, :, np.newaxis])   # (d, n, 1)
    return ModuleVector(out[:, :, 0].T)


def has_unit_inner_products(frame: Frame, tol: float = UNIT_TOL) -> bool:
    """True iff <tau_j, tau_j> = 1 for every j."""
    check_tolerance("tol", tol)
    a = frame.analysis
    self_inner = np.sum(a.real ** 2 + a.imag ** 2, axis=2)     # <tau_j, tau_j>(t), (d, m)
    return bool(np.max(np.abs(self_inner - 1.0)) <= tol)


def gen_onb(n: int, d: int, seed: int) -> Frame:
    """Random orthonormal basis per fiber: the m = n case of ``gen_random_parseval``,
    whose n x n polar factor is a Haar-distributed unitary."""
    return gen_random_parseval(n, n, d, seed)


def gen_random_parseval(n: int, m: int, d: int, seed: int) -> Frame:
    """Random Parseval frame: per fiber, the isometry factor of the polar
    decomposition of an m x n complex Gaussian (rows are the frame vectors)."""
    for name, value, low in (("n", n, 1), ("m", m, 1), ("d", d, 1), ("seed", seed, 0)):
        check_count(name, value, low)
    if m < n:
        raise ValueError(f"need m >= n for a Parseval frame, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    rows = np.empty((d, m, n), dtype=np.complex128)
    for t in range(d):
        g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        u, _, vh = np.linalg.svd(g, full_matrices=False)
        rows[t] = u @ vh
    return Frame(np.conj(rows))


def gen_fourier_pair(n: int, d: int) -> tuple[Frame, Frame]:
    """The standard basis and the discrete Fourier basis, replicated per fiber.

    The bases are mutually unbiased in every fiber: all cross inner
    products have modulus 1/sqrt(n).
    """
    check_count("n", n, 1)
    check_count("d", d, 1)
    std = np.eye(n, dtype=np.complex128)
    k, i = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    dft = np.exp(2j * np.pi * k * i / n) / np.sqrt(n)  # row k = omega_k
    return (Frame(np.broadcast_to(np.conj(std), (d, n, n))),
            Frame(np.broadcast_to(np.conj(dft), (d, n, n))))


def restrict_to_fiber(frame: Frame, t: int) -> Frame:
    """The d=1 frame obtained by keeping only fiber t of every vector.

    Restriction preserves the Parseval property fiber by fiber; the
    search machinery leans on this decoupling.
    """
    if not 0 <= t < frame.d:
        raise ValueError(f"fiber index {t} out of range for d={frame.d}")
    return Frame(frame.analysis[t : t + 1])


def to_json(frame: Frame) -> dict:
    """JSON encoding: {"n", "m", "d", "vectors": [ModuleVector...]}."""
    n, d = frame.n, frame.d
    return {
        "n": n,
        "m": frame.m,
        "d": d,
        "vectors": [{"n": n, "d": d, "entries": e} for e in pairs_to_json(synthesis(frame))],
    }


def from_json(data, *, what: str = "frame") -> Frame:
    """Decode and validate the Frame JSON encoding.

    The sizes n, m and d, in the frame's header and in each vector's,
    must be integers >= 1 (``header``); every vector must have the
    frame's n and d, and its entries must be [re, im] number pairs.
    """
    n, m, d = header(data, ("n", "m", "d", "vectors"), what)
    vecs_json = data["vectors"]
    if not isinstance(vecs_json, list) or len(vecs_json) != m:
        raise ValueError(f"{what}: expected m={m} vectors, got {len(vecs_json) if isinstance(vecs_json, list) else type(vecs_json).__name__}")
    for j, vj in enumerate(vecs_json):
        shape = header(vj, ("n", "d", "entries"), f"{what}: vector {j}")
        if shape != (n, d):
            raise DimensionMismatch(
                f"{what}: vector {j} has (n={shape[0]}, d={shape[1]}), header says (n={n}, d={d})"
            )
    entries = pairs_from_json([vj["entries"] for vj in vecs_json], (m, n, d), what)
    return Frame(np.conj(entries).transpose(2, 0, 1))
