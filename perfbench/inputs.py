"""Seeded inputs: random X states built from their 2x2 sector blocks."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import reference as ref

# An unphysical state has one block eigenvalue at -10**U(lo, hi).
NEG_EXPONENTS = (-5.0, -3.0)


@dataclass(frozen=True)
class StateInput:
    n: int
    frame: str
    d: tuple[float, ...]
    a: tuple[float, ...]
    physical: bool

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        return ref.x_entries(self.n, self.d, self.a)


def random_state(rng: np.random.Generator, n: int, frame: str,
                 physical: bool = True) -> StateInput:
    """Random 2x2 PSD sector blocks; an unphysical state gets one negative
    block eigenvalue well past the validity tolerance."""
    size = 1 << n
    half = size // 2
    lam = rng.uniform(0.0, 1.0, size=(half, 2))
    lam /= lam.sum()
    if not physical:
        s = int(rng.integers(half))
        neg = 10.0 ** rng.uniform(*NEG_EXPONENTS)
        lam[s, 1] += lam[s, 0] + neg
        lam[s, 0] = -neg
    theta = rng.uniform(0.0, np.pi / 2, size=half)
    phi = rng.uniform(0.0, 2 * np.pi, size=half)
    c, s_ = np.cos(theta), np.sin(theta)
    # block = V diag(l0, l1) V^dag with V = [[c, -e^{-i phi} s], [e^{i phi} s, c]]
    p = lam[:, 0] * c * c + lam[:, 1] * s_ * s_
    q = lam[:, 0] * s_ * s_ + lam[:, 1] * c * c
    off = (lam[:, 0] - lam[:, 1]) * c * s_ * np.exp(1j * phi)   # block[1, 0]
    lo = np.arange(half)
    hi = (size - 1) ^ lo
    diag = np.empty(size)
    anti = np.empty(size, dtype=complex)
    diag[lo], diag[hi] = p, q
    anti[lo], anti[hi] = off, off.conj()
    d, a = ref.params_from_entries(n, diag, anti)
    d[0] = 1.0
    return StateInput(n, frame, tuple(float(v) for v in d),
                      tuple(float(v) for v in a), physical)


def digest(items) -> str:
    """Short sha256 over the generated inputs, printed so runs can be compared."""
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]
