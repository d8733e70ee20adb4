"""Benchmark inputs and the reference values the per-op checks compare against.

Frames are drawn with the benchmark's own NumPy code, not moduncert's
generators, so the inputs stay the same when the program changes, and
the references (coherence, bound, content digest) are computed here
independently of the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def random_parseval(rng: np.random.Generator, n: int, m: int, d: int) -> np.ndarray:
    """Per-fiber m x n isometries (polar factor of a complex Gaussian).

    Shape (d, m, n); row j of ``mats[t]`` is frame vector j at fiber t.
    """
    g = rng.standard_normal((d, m, n)) + 1j * rng.standard_normal((d, m, n))
    u, _, vh = np.linalg.svd(g, full_matrices=False)
    return u @ vh


def fourier_pair(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard and discrete Fourier bases in every fiber (mutually unbiased)."""
    k, i = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    dft = np.exp(2j * np.pi * k * i / n) / np.sqrt(n)
    std = np.eye(n, dtype=np.complex128)
    return (np.repeat(std[np.newaxis], d, axis=0), np.repeat(dft[np.newaxis], d, axis=0))


def frame_doc(mats: np.ndarray) -> dict:
    """The frame JSON body that ``moduncert gen`` writes, complex as [re, im]."""
    d, m, n = mats.shape
    entries = mats.transpose(1, 2, 0)                       # (m, n, d)
    pairs = np.stack([entries.real, entries.imag], axis=-1).tolist()
    return {"n": n, "m": m, "d": d,
            "vectors": [{"n": n, "d": d, "entries": v} for v in pairs]}


def _canonical(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode()


def coherence(mats_a: np.ndarray, mats_b: np.ndarray) -> float:
    """max over (j, k, t) of |<tau_j, omega_k>(t)|, from the synthesis rows."""
    gram = mats_a @ np.conj(mats_b).transpose(0, 2, 1)
    return float(np.max(np.abs(gram)))


def closed_form_bound(bound: str, mu: float) -> float:
    """-2 ln((1 + mu)/2) for the two-basis bound, -2 ln mu for the coherence bound."""
    return -2.0 * math.log((1.0 + mu) / 2.0) if bound == "deutsch" else -2.0 * math.log(mu)


@dataclass(frozen=True)
class Pair:
    """One frame pair on disk with its independently computed references."""

    path_a: Path
    path_b: Path
    digest: str
    bound_value: float


def write_pair(mats_a: np.ndarray, mats_b: np.ndarray, directory: Path, stem: str,
               bound: str) -> Pair:
    """Write both frames in canonical JSON (sorted keys, no whitespace).

    The program's digest hashes exactly these bytes, so the expected
    digest needs no second encoding.
    """
    texts = (_canonical(frame_doc(mats_a)), _canonical(frame_doc(mats_b)))
    paths = (directory / f"{stem}_a.json", directory / f"{stem}_b.json")
    for text, path in zip(texts, paths):
        path.write_bytes(text)
    digest = "sha256:" + hashlib.sha256(texts[0] + texts[1]).hexdigest()
    return Pair(paths[0], paths[1], digest,
                closed_form_bound(bound, coherence(mats_a, mats_b)))
