"""Independent reference values for the benchmark's output checks.

Nothing here imports xstates.  An n-qubit X state in the Z frame is held as
two length-2**n arrays: ``diag[b] = rho[b, b]`` and ``anti[b] = rho[~b, b]``.
Both are Walsh-Hadamard transforms of the parameters, and the spectrum is the
union of the 2x2 sector blocks on {b, ~b}.  Other frames are the Z-frame
matrix conjugated by a single-qubit unitary on every qubit.
"""

from __future__ import annotations

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"X": SX, "Y": SY, "Z": SZ}

# README "Conventions": the image of each axis under the named frames.
FRAME_IMAGES = {
    "Z": {"X": (1, "X"), "Y": (1, "Y"), "Z": (1, "Z")},
    "X": {"X": (-1, "Y"), "Y": (-1, "Z"), "Z": (1, "X")},
    "Y": {"X": (1, "Z"), "Y": (1, "X"), "Z": (1, "Y")},
}


def _frame_unitary(images: dict) -> np.ndarray:
    """U with U sigma_a U^dag = sign * sigma_image(a), built from eigenvectors."""
    sz, az = images["Z"]
    sx, ax = images["X"]
    tz = sz * PAULI[az]
    _, v = np.linalg.eigh(tz)
    up, down = v[:, 1], v[:, 0]          # +1 and -1 eigenvectors of U Z U^dag
    t = up.conj() @ (sx * PAULI[ax]) @ down
    return np.column_stack([up, down * np.exp(-1j * np.angle(t))])


FRAME_UNITARY = {f: _frame_unitary(img) for f, img in FRAME_IMAGES.items()}


def _popcount(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.int64)
    out = np.zeros_like(x)
    while np.any(x):
        out += x & 1
        x >>= 1
    return out


def _bit_reverse(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    out = np.zeros_like(idx)
    for j in range(n):
        out |= ((idx >> j) & 1) << (n - 1 - j)
    return out


def _fwht(v: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform: out[k] = sum_i v[i] (-1)^|i&k|."""
    out = np.array(v, dtype=complex if np.iscomplexobj(v) else float)
    h = 1
    while h < len(out):
        out = out.reshape(-1, 2, h)
        out = np.stack([out[:, 0] + out[:, 1], out[:, 0] - out[:, 1]], axis=1)
        h *= 2
        out = out.reshape(-1)
    return out


def x_entries(n: int, d, a) -> tuple[np.ndarray, np.ndarray]:
    """Z-frame (diag, anti) of the X state with parameters d, a.

    Qubit j is bit j-1 of a parameter index and the (n-j)-th bit of a basis
    index, hence the bit reversal between the two transforms.
    """
    size = 1 << n
    d = np.asarray(d, dtype=float)
    a = np.asarray(a, dtype=float)
    phase = 1j ** (_popcount(np.arange(size)) % 4)
    rev = _bit_reverse(n)
    diag = _fwht(d)[rev] / size
    anti = _fwht(a * phase)[rev] / size
    return diag, anti


def params_from_entries(n: int, diag, anti) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``x_entries``; a Hermitian X matrix gives real parameters."""
    size = 1 << n
    rev = _bit_reverse(n)
    inv = np.empty(size, dtype=np.int64)
    inv[rev] = np.arange(size)
    d = _fwht(np.asarray(diag)[inv].real)
    phase = 1j ** (_popcount(np.arange(size)) % 4)
    a = (_fwht(np.asarray(anti, dtype=complex)[inv]) / phase).real
    return d, a


def sector_eigenvalues(diag, anti) -> np.ndarray:
    """All 2**n eigenvalues, in closed form from the sector blocks {b, ~b}."""
    size = len(diag)
    lo = np.arange(size // 2)            # b with the top bit clear
    hi = (size - 1) ^ lo
    p, q = diag[lo].real, diag[hi].real
    c = np.abs(anti[lo])
    mid = (p + q) / 2
    rad = np.sqrt(((p - q) / 2) ** 2 + c ** 2)
    return np.concatenate([mid + rad, mid - rad])


def min_eigenvalue(diag, anti) -> float:
    return float(sector_eigenvalues(diag, anti).min())


def negativity_qubit1(diag, anti) -> float:
    """Negativity across qubit 1: the partial transpose permutes ``anti``."""
    size = len(diag)
    top = size >> 1
    pt_anti = anti[np.arange(size) ^ top]
    ev = sector_eigenvalues(diag, pt_anti)
    return float(-ev[ev < 0].sum())


def dense_x(diag, anti) -> np.ndarray:
    size = len(diag)
    rho = np.zeros((size, size), dtype=complex)
    idx = np.arange(size)
    rho[idx, idx] = diag
    rho[(size - 1) ^ idx, idx] = anti
    return rho


def _conjugate(rho: np.ndarray, n: int, u: np.ndarray) -> np.ndarray:
    """U^{(x)n} rho U^{dag (x)n}, one qubit axis at a time."""
    t = rho.reshape((2,) * (2 * n))
    for q in range(n):
        t = np.moveaxis(np.tensordot(u, t, axes=([1], [q])), 0, q)
        t = np.moveaxis(np.tensordot(u.conj(), t, axes=([1], [n + q])), 0, n + q)
    return t.reshape(1 << n, 1 << n)


def to_frame(rho_z: np.ndarray, n: int, frame: str) -> np.ndarray:
    """The Z-frame matrix carried into ``frame``."""
    return rho_z if frame == "Z" else _conjugate(rho_z, n, FRAME_UNITARY[frame])


def from_frame(rho: np.ndarray, n: int, frame: str) -> np.ndarray:
    """Inverse of ``to_frame``."""
    return rho if frame == "Z" else _conjugate(rho, n, FRAME_UNITARY[frame].conj().T)


def ghz_fidelity(rho: np.ndarray) -> float:
    """<GHZ|rho|GHZ> for the Z-basis GHZ vector, read off four entries."""
    last = rho.shape[0] - 1
    return float((rho[0, 0] + rho[last, last] + rho[0, last] + rho[last, 0]).real / 2)


def ghz_fidelity_x(diag, anti) -> float:
    last = len(diag) - 1
    return float((diag[0] + diag[last]).real / 2 + anti[0].real)


def yu_eberly(diag, anti) -> float:
    """Two-qubit concurrence of a Z-frame X state (Yu and Eberly, 2007)."""
    r11, r22, r33, r44 = (float(x.real) for x in diag)
    c14, c23 = abs(anti[0]), abs(anti[1])
    return 2.0 * max(0.0, c14 - np.sqrt(r22 * r33), c23 - np.sqrt(r11 * r44))


def family_residual(rho: np.ndarray, n: int, frame: str) -> float:
    """Max-norm weight of rho outside the frame's X family (trace is 1)."""
    r = from_frame(rho, n, frame).copy()
    idx = np.arange(1 << n)
    r[idx, idx] = 0
    r[((1 << n) - 1) ^ idx, idx] = 0
    return float(np.max(np.abs(to_frame(r, n, frame))))


# ---- channels on X-state entries --------------------------------------------

def evolve_x(n: int, diag, anti, kind: str, s: float, qubits) -> tuple[np.ndarray, np.ndarray]:
    """Apply a standard channel qubit by qubit to a Z-frame X state.

    All three channels keep the X pattern: the anti-diagonal differs from its
    column index on every qubit, so it only rescales; the diagonal mixes
    within each qubit's pair of populations.
    """
    diag = np.array(diag, dtype=complex)
    anti = np.array(anti, dtype=complex)
    idx = np.arange(1 << n)
    for q in qubits:
        bit = 1 << (n - q)
        if kind == "phase_damping":
            anti *= 1 - s
        elif kind == "depolarizing":
            anti *= 1 - s
            diag = (1 - s) * diag + (s / 2) * (diag + diag[idx ^ bit])
        elif kind == "amplitude_damping":
            anti *= np.sqrt(1 - s)
            excited = (idx & bit) != 0
            new = diag.copy()
            new[excited] *= 1 - s
            new[~excited] += s * diag[idx[~excited] | bit]
            diag = new
        else:
            raise ValueError(kind)
    return diag, anti


def apply_kraus(rho: np.ndarray, kraus, qubits, n: int) -> np.ndarray:
    """Kraus map on each listed qubit by a contraction on its tensor axes."""
    for q in qubits:
        t = rho.reshape((2,) * (2 * n))
        out = 0
        for k in kraus:
            r = np.moveaxis(np.tensordot(k, t, axes=([1], [q - 1])), 0, q - 1)
            r = np.moveaxis(np.tensordot(k.conj(), r, axes=([1], [n + q - 1])), 0, n + q - 1)
            out = out + r
        rho = out.reshape(1 << n, 1 << n)
    return rho


def kraus_ops(kind: str, s: float) -> list[np.ndarray]:
    if kind == "amplitude_damping":
        return [np.array([[1, 0], [0, np.sqrt(1 - s)]], dtype=complex),
                np.array([[0, np.sqrt(s)], [0, 0]], dtype=complex)]
    if kind == "phase_damping":
        return [np.sqrt(1 - s) * np.eye(2, dtype=complex),
                np.sqrt(s) * np.diag([1, 0]).astype(complex),
                np.sqrt(s) * np.diag([0, 1]).astype(complex)]
    if kind == "depolarizing":
        return [np.sqrt(1 - 3 * s / 4) * np.eye(2, dtype=complex)] + \
            [np.sqrt(s / 4) * PAULI[a] for a in "XYZ"]
    raise ValueError(kind)
