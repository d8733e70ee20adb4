"""The Hilbert module E = C(X)^n with its algebra-valued inner product.

A vector is an n x d complex array: column t is the fiber of the vector
at point t of X, an ordinary vector in C^n.  The inner product is taken
fiberwise, conjugate-linear in the second slot, so <a.x, y> = a <x, y>
for a in C(X).  Everything decomposes into independent per-fiber
computations in C^n; that fact is what makes all downstream checks
exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .algebra import AlgebraElement, norm
from .errors import DimensionMismatch, check_count, check_tolerance, is_number

# Tolerance at which a vector counts as having unit inner product.
UNIT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """Element of C(X)^n; ``entries[i, t]`` is coordinate i at point t.

    Equality is identity: entries are arrays, so compare them explicitly.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"entries must be a nonempty n x d array, got shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def d(self) -> int:
        return self.entries.shape[1]

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if not isinstance(other, ModuleVector):
            return NotImplemented
        check_same_shape(self, other)
        return ModuleVector(self.entries + other.entries)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        if not isinstance(other, ModuleVector):
            return NotImplemented
        check_same_shape(self, other)
        return ModuleVector(self.entries - other.entries)

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(-self.entries)


def check_same_shape(x: ModuleVector, y: ModuleVector) -> None:
    if x.entries.shape != y.entries.shape:
        raise DimensionMismatch(
            f"module vectors have mismatched shapes: {x.entries.shape} vs {y.entries.shape}"
        )


def inner(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """The C(X)-valued inner product, fiberwise <x(t), y(t)> in C^n.

    Conjugation sits on the second slot, so the product is C(X)-linear
    in the first slot and <x, y> = <y, x>*.
    """
    check_same_shape(x, y)
    return AlgebraElement(np.sum(x.entries * np.conj(y.entries), axis=0))


def scale(a: AlgebraElement, x: ModuleVector) -> ModuleVector:
    """The module action: (a.x)(t) = a(t) x(t)."""
    if a.d != x.d:
        raise DimensionMismatch(f"algebra element has d={a.d} but vector has d={x.d}")
    return ModuleVector(a.values[np.newaxis, :] * x.entries)


def module_norm(x: ModuleVector) -> float:
    """||x|| = sqrt(||<x, x>||), the max over fibers of the Euclidean norm."""
    return float(np.sqrt(norm(inner(x, x))))


def is_unit_inner(x: ModuleVector, tol: float = UNIT_TOL) -> bool:
    """True iff <x, x> = 1 in C(X), i.e. every fiber is on the unit sphere."""
    check_tolerance("tol", tol)
    gram = np.sum(np.abs(x.entries) ** 2, axis=0)
    return bool(np.max(np.abs(gram - 1.0)) <= tol)


def random_unit_vector(n: int, d: int, seed: int) -> ModuleVector:
    """Sample each fiber independently uniform on the unit sphere of C^n.

    Complex-Gaussian then normalize; deterministic given the seed, an
    integer >= 0.
    """
    check_count("n", n, 1)
    check_count("d", d, 1)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    z /= np.sqrt(np.sum(np.abs(z) ** 2, axis=0, keepdims=True))
    return ModuleVector(z)


def unit_vector_stream(n: int, d: int, seed: int, start: int, count: int) -> np.ndarray:
    """Units start, ..., start+count-1 of the counter-based stream keyed by seed.

    The stream is ``Philox(key=seed)``.  Unit u owns the K = 4*ceil(2nd/4)
    uniforms at counter offset u*K/4; its vector is Box-Muller on the first
    2nd of them, normalized per fiber.  Every unit consumes the same
    number of draws, so a batch is one generator call and unit i replays
    alone as ``unit_vector_stream(n, d, seed, i, 1)[0]``, bitwise equal.
    Returns a (count, n, d) complex array; each [u] is an ``entries`` array.
    """
    for name, value, low in (("n", n, 1), ("d", d, 1), ("start", start, 0), ("count", count, 0)):
        check_count(name, value, low)
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 2 ** 64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    nd = n * d
    k = 4 * -(-2 * nd // 4)
    bits = np.random.Philox(key=int(seed))
    bits.advance(int(start) * k // 4)        # advance() refuses NumPy integers
    u = np.random.Generator(bits).random((count, k))
    radius = np.sqrt(-2.0 * np.log1p(-u[:, :nd]))        # log(1 - u), finite on [0, 1)
    z = (radius * np.exp(2j * np.pi * u[:, nd:2 * nd])).reshape(count, n, d)
    z /= np.sqrt(np.sum(z.real ** 2 + z.imag ** 2, axis=1, keepdims=True))
    return z


def pairs_to_json(z: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, one per entry of the complex array z."""
    return np.stack([z.real, z.imag], axis=-1).tolist()


def pairs_from_json(block, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Complex array of the given shape from nested lists of [re, im] number pairs.

    ``shape`` is (n, d) for one vector's entries, or (m, n, d) for the
    entries of m vectors.  Well-formed input is decoded by one
    ``np.asarray`` call, one finiteness check and one scan of the number
    types, since NumPy reads JSON's true and false as 1 and 0.  Anything
    else, JSON's NaN and Infinity among it, is walked by ``_check_pairs``,
    which raises a ValueError naming the vector, row and fiber at fault.
    """
    try:
        arr = np.asarray(block)
    except (ValueError, TypeError, OverflowError):      # ragged nesting
        arr = None
    if (arr is None or arr.shape != (*shape, 2) or arr.dtype.kind not in "iuf"
            or not np.isfinite(arr).all() or _holds_bool(block, len(shape))):
        _check_pairs(block, shape, what)
        arr = np.array(block, dtype=np.float64)         # valid, but ints beyond int64
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]


def _holds_bool(block, depth: int) -> bool:
    """Whether a [re, im] pair ``depth`` list levels down in block holds a bool."""
    for _ in range(depth - 1):
        block = chain.from_iterable(block)
    return any(type(re) is bool or type(im) is bool for re, im in block)


def _check_pairs(block, shape: tuple[int, ...], what: str) -> None:
    def size(x):
        return len(x) if isinstance(x, list) else type(x).__name__

    if len(shape) == 3:
        for j, rows in enumerate(block):
            _check_pairs(rows, shape[1:], f"{what}: vector {j}")
        return
    n, d = shape
    if not isinstance(block, list) or len(block) != n:
        raise ValueError(f"{what}: entries must be an array of n={n} rows, got {size(block)}")
    for i, row in enumerate(block):
        if not isinstance(row, list) or len(row) != d:
            raise ValueError(f"{what}: row {i} must hold d={d} fibers, got {size(row)}")
        for t, pair in enumerate(row):
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(is_number(u) for u in pair)):
                raise ValueError(f"{what}: row {i}, fiber {t} is not a [re, im] pair: {pair!r}")
            try:
                if not all(map(math.isfinite, pair)):
                    raise ValueError(f"{what}: row {i}, fiber {t} is not finite: {pair!r}")
            except OverflowError:
                raise ValueError(f"{what}: row {i}, fiber {t} is beyond float range") from None


def header(data, keys: tuple[str, ...], what: str) -> tuple[int, ...]:
    """The sizes in a JSON object with the fields ``keys``, checked.

    Every field but the last, which holds the payload, is a size: an
    integer >= 1 by ``check_count``, so JSON's true and false and floats
    such as 2.0 are refused.  Raises a ValueError naming ``what`` and the
    field at fault.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected an object with {', '.join(keys)}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what}: missing field {key!r}")
    sizes = []
    try:
        for key in keys[:-1]:
            size = data[key]
            check_count(key, size, 1)
            sizes.append(size)
    except ValueError as e:
        raise ValueError(f"{what}: {e}") from None
    return tuple(sizes)


def to_json(x: ModuleVector) -> dict:
    """JSON encoding: {"n": .., "d": .., "entries": n x d array of [re, im]}."""
    return {"n": x.n, "d": x.d, "entries": pairs_to_json(x.entries)}


def from_json(data, *, what: str = "module vector") -> ModuleVector:
    """Decode and validate the ModuleVector JSON encoding.

    The sizes n and d must be integers >= 1 (``header``), and the entries
    an n x d array of [re, im] number pairs (``pairs_from_json``).
    """
    n, d = header(data, ("n", "d", "entries"), what)
    return ModuleVector(pairs_from_json(data["entries"], (n, d), what))
