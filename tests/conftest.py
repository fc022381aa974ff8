"""Shared random-matrix generators and document helpers for the test suite."""

from __future__ import annotations

import json

import numpy as np
from scipy.linalg import expm

from hamlink import jmat


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(scale=scale, size=(n, n))
    return 0.5 * (m + m.T)


def random_symplectic(rng: np.random.Generator, k: int, scale: float = 0.5) -> np.ndarray:
    """Random real symplectic 2k x 2k matrix as the flow of a quadratic form."""
    s = random_symmetric(rng, 2 * k, scale)
    return expm(jmat(k) @ s)


def random_sharp_skew(rng: np.random.Generator, k: int, scale: float = 1.0) -> np.ndarray:
    """Random J-skew 2k x 2k matrix, built as -J times a symmetric matrix."""
    return -jmat(k) @ random_symmetric(rng, 2 * k, scale)


def random_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_coupling_of_rank(
    rng: np.random.Generator, n_a: int, n_b: int, rank: int, scale: float = 1.0
) -> np.ndarray:
    """Random 2n_a x 2n_b matrix of exact rank `rank`."""
    if rank == 0:
        return np.zeros((2 * n_a, 2 * n_b))
    left = rng.normal(scale=scale, size=(2 * n_a, rank))
    right = rng.normal(size=(rank, 2 * n_b))
    return left @ right


# A placeholder for a JSON integer of 5000 digits, more than the 4300 that
# Python converts by default.  json.dumps cannot write such an integer, so a
# document carries LONG and with_long_integer puts the digits in its text.
LONG = "<5000 digits>"


def with_long_integer(text: str) -> str:
    return text.replace(json.dumps(LONG), "9" * 5000)
