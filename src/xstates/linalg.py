"""Dense complex matrix kernels shared by the rest of the package.

All matrices are square with power-of-two dimension up to ``MAX_DIM`` =
2**MAX_DENSE_QUBITS (4096, 12 qubits), double precision, row-major.  Qubit 1
is the most significant basis bit and qubit indices are 1-based everywhere.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .pauli import MAX_DENSE_QUBITS

MAX_DIM = 1 << MAX_DENSE_QUBITS

HERMITIAN_TOL = 1e-10

# Largest imaginary part of an expectation tr(M rho) with M Hermitian.
EXPECTATION_IMAG_TOL = 1e-10

# Largest sqrt(dim) * ||rho - fitted||_F at which negativity and concurrence
# of a dense rho use the sector entries of the X/Y-frame X state fitted to
# it.  It bounds their trace-norm distance and the negativity error.
SECTOR_FIT_TOL = 1e-12

# Bytes of one row strip of hermiticity_deviation's temporaries.
_STRIP_BYTES = 1 << 20


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge."""


class ToleranceError(RuntimeError):
    """A computed quantity violated an internal tolerance contract."""


def _as_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """m checked square; float64 and complex128 input is used as given, any
    other dtype is converted to complex."""
    m = np.asarray(m)
    if m.dtype.char not in "dD":    # float64, complex128
        m = m.astype(complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def _check_power_of_two(dim: int, name: str = "dimension") -> None:
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"{name} must be a power of two, got {dim}")


@np.errstate(invalid="ignore")  # inf - inf gives NaN, quietly
def hermiticity_deviation(m: np.ndarray) -> float:
    """Max-norm distance from the Hermitian cone, max |M - M^dag|.

    Compared in strips of rows against the matching strips of columns, so
    the temporaries stay near ``_STRIP_BYTES`` at any size; a NaN or
    infinite entry gives NaN or inf, without a warning.
    """
    m = _as_square(m)
    if not m.size:
        return 0.0
    rows = max(1, _STRIP_BYTES // m[0].nbytes)
    strips = (np.abs(m[i:i + rows] - m[:, i:i + rows].conj().T).max()
              for i in range(0, len(m), rows))
    return float(reduce(np.maximum, strips))


def sector_eigenvalues(diag: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """Spectrum of a Hermitian X matrix from its 2x2 sector blocks.

    ``diag[b] = M[b, b]`` and ``anti[b] = M[b, ~b]`` with ~b the complement of
    b's bits.  The block on {b, ~b} with diagonal p, q and corner c has the
    eigenvalues (p + q)/2 +- hypot((p - q)/2, |c|); they are returned for the
    sectors b < dim/2, all + branches first, then the - branches.
    """
    half = len(diag) >> 1
    p = diag[:half].real
    q = diag[::-1][:half].real
    mid = (p + q) / 2
    rad = np.hypot((p - q) / 2, np.abs(anti[:half]))
    return np.concatenate([mid + rad, mid - rad])


@np.errstate(invalid="ignore")  # inf - inf gives NaN, quietly
def sector_hermiticity_deviation(diag: np.ndarray, anti: np.ndarray) -> float:
    """max |M - M^dag| of the X matrix with these diagonal and anti-diagonal
    entries (see sector_eigenvalues); NaN or inf for non-finite input,
    without a warning."""
    return float(np.max(np.abs(np.concatenate([diag - diag.conj(),
                                               anti - anti[::-1].conj()]))))


def x_matrix_entries(m: np.ndarray) -> "tuple[np.ndarray, np.ndarray] | None":
    """(diag, anti) of an X-shaped matrix, else None.

    X-shaped means every entry off the diagonal and the anti-diagonal is
    exactly zero, as ``materialize`` and ``apply_channel`` leave a Z-frame
    state.  The entries are laid out as for sector_eigenvalues, with the
    diagonal made real after the same Hermiticity check as hermitian_eigen.
    """
    m = _as_square(m)
    diag = m.diagonal()
    anti = m[:, ::-1].diagonal()
    # the two diagonals are disjoint only in even dimension
    if len(m) % 2 or np.count_nonzero(m) != np.count_nonzero(diag) + np.count_nonzero(anti):
        return None
    _require_hermitian(sector_hermiticity_deviation(diag, anti))
    return diag.real, anti


def _require_hermitian(dev: float) -> None:
    if not dev <= HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square power-of-two matrices."""
    a = _as_square(a, "left factor")
    b = _as_square(b, "right factor")
    _check_power_of_two(a.shape[0], "left factor dimension")
    _check_power_of_two(b.shape[0], "right factor dimension")
    if a.shape[0] * b.shape[0] > MAX_DIM:
        raise ValueError(f"product dimension exceeds cap {MAX_DIM}")
    return np.kron(a, b)


def _hermitian_solve(h: np.ndarray, solver):
    """solver(h) for a matrix checked to be Hermitian, with LAPACK's
    LinAlgError raised as ConvergenceError."""
    h = _as_square(h)
    _require_hermitian(hermiticity_deviation(h))
    try:
        return solver(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc


def hermitian_eigen(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns eigenvalues in descending order and the matching orthonormal
    eigenvectors as columns.  Raises ValueError for non-Hermitian input and
    ConvergenceError if the underlying iteration fails.
    """
    w, v = _hermitian_solve(h, np.linalg.eigh)
    return w[::-1].copy(), v[:, ::-1].copy()


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """The eigenvalues of hermitian_eigen, descending, with the same errors,
    computed without eigenvectors."""
    return _hermitian_solve(h, np.linalg.eigvalsh)[::-1]


def partial_trace(rho: np.ndarray, keep: "set[int] | list[int] | tuple[int, ...]",
                  n: int) -> np.ndarray:
    """Trace out all qubits not in ``keep`` (1-based), preserving their order."""
    rho = _as_square(rho, "state")
    dim = 1 << n
    if rho.shape != (dim, dim):
        raise ValueError(f"state dimension {rho.shape[0]} does not match n={n}")
    keep_set = set(keep)
    if not keep_set or not keep_set <= set(range(1, n + 1)):
        raise ValueError(f"keep set must be a nonempty subset of 1..{n}")
    if keep_set == set(range(1, n + 1)):
        raise ValueError("keep set must be a proper subset")
    out = rho
    m = n
    for q in sorted(set(range(1, n + 1)) - keep_set, reverse=True):
        pre = 1 << (q - 1)
        post = 1 << (m - q)
        out = out.reshape(pre, 2, post, pre, 2, post)
        out = np.trace(out, axis1=1, axis2=4)
        m -= 1
        out = out.reshape(1 << m, 1 << m)
    return out


def _state_and_subset(rho: np.ndarray, subset, n: int) -> tuple[np.ndarray, set[int]]:
    """The n-qubit state as a complex matrix and the qubit subset as a set,
    checked to lie in 1..n."""
    rho = _as_square(rho, "state")
    dim = 1 << n
    if rho.shape != (dim, dim):
        raise ValueError(f"state dimension {rho.shape[0]} does not match n={n}")
    subset_set = set(subset)
    if not subset_set <= set(range(1, n + 1)):
        raise ValueError(f"qubit subset must lie in 1..{n}")
    return rho, subset_set


def partial_transpose(rho: np.ndarray, subset: "set[int] | list[int] | tuple[int, ...]",
                      n: int) -> np.ndarray:
    """Transpose the tensor factors of the listed qubits (1-based)."""
    rho, subset_set = _state_and_subset(rho, subset, n)
    dim = 1 << n
    arr = rho.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for q in subset_set:
        i = q - 1
        axes[i], axes[n + i] = axes[n + i], axes[i]
    return arr.transpose(axes).reshape(dim, dim).copy()


def expectation(rho: np.ndarray, m: np.ndarray) -> float:
    """Re tr(M rho) for Hermitian M; asserts the imaginary part is negligible."""
    m = _as_square(m, "observable")
    dev = hermiticity_deviation(m)
    if not dev <= HERMITIAN_TOL:
        raise ValueError(f"observable is not Hermitian (deviation {dev:.3e})")
    return _real_trace(rho, m)


def _real_trace(rho: np.ndarray, m: np.ndarray) -> float:
    """Re tr(M rho) for a square M already known to be Hermitian.

    The value must be finite (a NaN state fails here) and its imaginary part
    negligible.
    """
    rho = _as_square(rho, "state")
    if rho.shape != m.shape:
        raise ValueError("dimension mismatch between state and observable")
    value = complex(np.einsum("ij,ji->", m, rho))
    if not np.isfinite(value):
        raise ValueError(f"expectation {value} is not finite")
    if abs(value.imag) > EXPECTATION_IMAG_TOL:
        raise ToleranceError(f"expectation has imaginary part {value.imag:.3e}")
    return value.real


# ---- dump formats ----------------------------------------------------------

def matrix_to_json(m: np.ndarray) -> dict:
    """Row-major dump {"dim": d, "re": [[...]], "im": [[...]]}."""
    m = _as_square(m)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        dim = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix dump: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError("matrix dump shape does not match declared dim")
    return re + 1j * im


def matrix_to_csv(m: np.ndarray) -> str:
    """CSV rows of alternating re,im cell pairs, one matrix row per line."""
    m = _as_square(m)
    rows = np.stack([m.real, m.imag], axis=-1).reshape(len(m), 2 * len(m)).tolist()
    return "\n".join(",".join(map(repr, row)) for row in rows) + "\n"
