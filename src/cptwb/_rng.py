"""Seeded random sampling helpers (Haar unitaries, states, channels).

Every stream is derived from ``numpy.random.default_rng``; multistart code
derives per-restart generators from ``(seed, restart_index)`` so results do
not depend on scheduling order.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger

__all__ = [
    "rng_from",
    "haar_unitary",
    "haar_isometry",
    "random_pure_state",
    "random_density",
]


def rng_from(seed, index: int | None = None) -> np.random.Generator:
    """Generator for ``seed``, or the sub-stream ``(seed, index)``."""
    if index is None:
        return np.random.default_rng(seed)
    return np.random.default_rng((seed, index))


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d×d unitary (QR of a Ginibre matrix, phases fixed)."""
    return haar_isometry(d, d, rng)


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed isometry with ``rows >= cols`` (V†V = I)."""
    if rows < cols:
        raise ValueError("isometry needs rows >= cols")
    q, r = np.linalg.qr(_ginibre(rng, rows, cols))
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector in C^d."""
    v = _ginibre(rng, d, 1)[:, 0]
    return v / np.linalg.norm(v)


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix (normalized Wishart of the given rank)."""
    r = d if rank is None else rank
    g = _ginibre(rng, d, r)
    m = g @ dagger(g)
    return m / np.trace(m).real

