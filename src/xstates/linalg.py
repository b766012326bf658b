"""Dense complex matrix kernels shared by the rest of the package.

All matrices are square with power-of-two dimension up to ``MAX_DIM`` =
2**MAX_DENSE_QUBITS (4096, 12 qubits), double precision, row-major.  Qubit 1
is the most significant basis bit and qubit indices are 1-based everywhere.
"""

from __future__ import annotations

import itertools
import json
from functools import reduce

import numpy as np

from .pauli import MAX_DENSE_QUBITS, is_integer, require_qubit_count

MAX_DIM = 1 << MAX_DENSE_QUBITS

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10           # largest |tr rho - 1| of a state: validate, concurrence

# Largest imaginary part of an expectation tr(M rho) with M Hermitian.
EXPECTATION_IMAG_TOL = 1e-10

# Largest sqrt(dim) * ||rho - fitted||_F at which negativity and concurrence
# of a dense rho use the sector entries of the X/Y-frame X state fitted to
# it.  It bounds their trace-norm distance and the negativity error.
SECTOR_FIT_TOL = 1e-12

# Bytes of one row strip of every dense pass (_strip_rows): the state
# gate, the Hermiticity check, the projections' reductions and the dense
# witness read a matrix a strip at a time, and their temporaries are strips.
_STRIP_BYTES = 1 << 19

_DBL_MAX = float(np.finfo(float).max)

# json's C encoder (no indent): the text of one scalar or key.
_ENCODE = json.JSONEncoder().encode

# json's spellings of the non-finite float reprs
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class ConvergenceError(RuntimeError):
    """Iterative eigensolver failed to converge."""


class ToleranceError(RuntimeError):
    """A computed quantity violated an internal tolerance contract."""


def _as_array(m: np.ndarray) -> np.ndarray:
    """m as an array: float64 and complex128 as given, other dtypes complex."""
    m = np.asarray(m)
    return m if m.dtype.char in "dD" else m.astype(complex)


def _as_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """m checked square, with the dtype rule of _as_array."""
    m = _as_array(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def as_state(rho: np.ndarray, n: int, *, stack: bool = False) -> np.ndarray:
    """rho checked to be an n-qubit state (2**n, 2**n), n in
    1..MAX_DENSE_QUBITS, or with stack=True a stack (..., 2**n, 2**n), under
    _as_array's dtype rule; the one gate of every dense state.

    Every real and imaginary part must be finite and at most DBL_MAX /
    (2 dim) in magnitude, so that no transform, projection or rho psi
    product overflows: a real part of their results sums at most dim
    terms, each +- one such part.  One read: the min and the max of each
    strip of rows (_strip_rows), with no temporary.
    """
    require_qubit_count(n)
    rho = _as_array(rho)
    dim = 1 << n
    if rho.shape[-2:] != (dim, dim) or not (stack or rho.ndim == 2):
        raise ValueError(f"{n}-qubit state must have shape "
                         f"({'..., ' * stack}{dim}, {dim}), got {rho.shape}")
    bound = _DBL_MAX / (2 * dim)
    # a complex rho with contiguous rows is one float view, else two strided ones
    contiguous = rho.dtype.char == "d" or rho.strides[-1] == rho.itemsize
    for part in (rho.view(float),) if contiguous else (rho.real, rho.imag):
        lo = hi = 0.0
        step = _strip_rows(dim, part.nbytes)
        for i in range(0, dim, step):       # NaN propagates through initial
            strip = part[..., i:i + step, :]
            lo, hi = strip.min(initial=lo), strip.max(initial=hi)
        if not (-bound <= lo and hi <= bound):
            if np.isfinite(lo) and np.isfinite(hi):
                raise ValueError(f"state entries above {bound:.3e} in magnitude "
                                 "could overflow")
            raise ValueError("state entries are not finite")
    return rho


def _strip_rows(rows: int, nbytes: int) -> int:
    """Rows per strip of an array of that many rows, of nbytes in all (a
    row spanning every leading axis): the largest power of two, at most
    rows, whose strip holds at most _STRIP_BYTES, or 1.  A power-of-two
    row count splits into whole strips.  rows may be a numpy integer, as
    2**n is for a numpy-integer n."""
    fit = _STRIP_BYTES * int(rows) // (nbytes or 1)
    return min(rows, 1 << ((fit | 1).bit_length() - 1))


def _check_power_of_two(dim: int, name: str = "dimension") -> None:
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"{name} must be a power of two, got {dim}")


@np.errstate(invalid="ignore")  # inf - inf gives NaN, quietly
def hermiticity_deviation(m: np.ndarray) -> float:
    """Max-norm distance from the Hermitian cone, max |M - M^dag|.

    Compared in strips of rows (_strip_rows) against the matching strips of
    columns, so the temporaries stay near ``_STRIP_BYTES`` at any size; a NaN or
    infinite entry gives NaN or inf, without a warning.
    """
    m = _as_square(m)
    if not m.size:
        return 0.0
    rows = _strip_rows(len(m), m.nbytes)
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


def _checked_keep(keep, n: int) -> set[int]:
    """The qubits (1-based) that partial_trace keeps, as a set of ints: a
    nonempty proper subset of 1..n, or ValueError."""
    keep = list(keep)
    if not keep or not all(map(is_integer, keep)) or not set(keep) <= set(range(1, n + 1)):
        raise ValueError(f"keep set must be a nonempty subset of 1..{n}")
    keep_set = set(map(int, keep))
    if keep_set == set(range(1, n + 1)):
        raise ValueError("keep set must be a proper subset")
    return keep_set


def partial_trace(rho: np.ndarray, keep: "set[int] | list[int] | tuple[int, ...]",
                  n: int) -> np.ndarray:
    """Trace out all qubits not in ``keep`` (1-based), preserving their order."""
    rho = as_state(rho, n)
    keep_set = _checked_keep(keep, n)
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


def _checked_qubits(qubits, n: int) -> list:
    """The listed qubits (1-based) as a list of ints, in their order and
    with repeats, checked to be integers (is_integer) in 1..n."""
    qubit_list = list(qubits)
    if not all(map(is_integer, qubit_list)) or not set(qubit_list) <= set(range(1, n + 1)):
        raise ValueError(f"qubit subset must lie in 1..{n}")
    return list(map(int, qubit_list))


def partial_transpose(rho: np.ndarray, subset: "set[int] | list[int] | tuple[int, ...]",
                      n: int) -> np.ndarray:
    """Transpose the tensor factors of the listed qubits (1-based)."""
    rho = as_state(rho, n)
    subset_set = set(_checked_qubits(subset, n))
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
    _require_hermitian(hermiticity_deviation(m))
    rho = _as_square(rho, "state")
    if rho.shape != m.shape:
        raise ValueError("dimension mismatch between state and observable")
    return float(_real_value(np.einsum("ij,ji->", m, rho)))


def _real_value(value) -> np.ndarray:
    """Re of a computed expectation, or of each of an array of them, checked
    finite and with a negligible imaginary part; the first that fails raises."""
    value = np.asarray(value)
    bad = ~np.isfinite(value) | (np.abs(value.imag) > EXPECTATION_IMAG_TOL)
    if bad.any():
        first = complex(value[bad].flat[0])
        if not np.isfinite(first):
            raise ValueError(f"expectation {first} is not finite")
        raise ToleranceError(f"expectation has imaginary part {first.imag:.3e}")
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
        dim = obj["dim"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix dump: {exc}") from exc
    if not is_integer(dim):
        raise ValueError(f"malformed matrix dump: dim must be an integer, got {dim!r}")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError("matrix dump shape does not match declared dim")
    return re + 1j * im


def matrix_to_csv(m: np.ndarray) -> str:
    """CSV rows of alternating re,im cell pairs, one matrix row per line."""
    return matrix_text(*matrix_table(m), "csv")


def matrix_table(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The square matrix m as matrix_text's (table, index): one table entry
    per matrix entry, in row-major order."""
    m = _as_square(m)
    return m.ravel(), np.arange(m.size).reshape(m.shape)


def matrix_text(table: np.ndarray, index: np.ndarray, fmt: str = "json") -> str:
    """The dump of the square matrix table[index], for an integer index
    (dim, dim) into a table of its entries: with fmt "json" the text of
    json_text(matrix_to_json(table[index])), with "csv" matrix_to_csv's.

    Each table value's real and imaginary part is one float.__repr__, in
    json's spelling for "json", and each row of the dump is one join of
    those strings by its row of the index.  So a matrix that its structure
    makes from a few values (model.entry_table) costs one repr per value,
    not one per entry.
    """
    table, index = _as_array(table).ravel(), np.asarray(index)
    parts = [list(map(float.__repr__, part.tolist())) for part in (table.real, table.imag)]
    if fmt == "csv":
        return "\n".join(_joined_rows(list(map(",".join, zip(*parts))), index, ",")) + "\n"
    if fmt != "json":
        raise ValueError(f"matrix dumps are json or csv, got {fmt!r}")
    if not len(index):
        return json_text({"dim": 0, "re": [], "im": []})
    if not np.isfinite(table).all():
        parts = [[_JSON_FLOATS.get(s, s) for s in strings] for strings in parts]
    rows = "\n    ],\n    [\n      "
    re, im = (rows.join(_joined_rows(strings, index, ",\n      ")) for strings in parts)
    return "".join(['{\n  "dim": %d,\n  "re": [\n    [\n      ' % len(index), re,
                    '\n    ]\n  ],\n  "im": [\n    [\n      ', im, "\n    ]\n  ]\n}\n"])


def _joined_rows(strings: list, index: np.ndarray, sep: str) -> list:
    """sep.join of the strings that each row of index picks, a strip of
    index rows (_strip_rows) at a time; no rows for a 0x0 index."""
    strings = np.array(strings, dtype=object)
    step = _strip_rows(len(index), index.nbytes)
    rows = []
    for i in range(0, len(index), max(step, 1)):
        rows += map(sep.join, strings.take(index[i:i + step]).tolist())
    return rows


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2) + "\n"``, the text of every JSON payload.

    dicts, lists and tuples are laid out as json's indent-2 writer lays them
    out; every scalar and key is one call of json's C encoder, and a list of
    only floats, or of only ints, is one join of their reprs, so a matrix
    dump never walks json's pure-Python encoder.  An integer table, a list
    or tuple whose rows are all lists or tuples of the same nonzero number
    of ints (by type, so a bool is not one), is one %d template over all
    its ints, with no call per row.  A key that is not a str raises
    TypeError (json would convert int, float, bool and None keys).
    """
    return _json_value(obj, "\n") + "\n"


def _json_value(obj, newline: str) -> str:
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        sep = "," + inner
        kinds = set(map(type, obj))
        if kinds == {float}:
            body = sep.join(map(float.__repr__, obj))
            if "n" in body:  # only nan and inf have an n: json's spellings
                body = body.replace("nan", "NaN").replace("inf", "Infinity")
        elif kinds == {int}:
            body = sep.join(map(int.__repr__, obj))
        elif kinds <= {list, tuple} and (table := _int_table(obj, inner)) is not None:
            body = table
        else:
            body = sep.join([_json_value(v, inner) for v in obj])
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [_json_key(k) + ": " + _json_value(v, inner) for k, v in obj.items()]
        ) + newline + "}"
    return _ENCODE(obj)


def _int_table(rows, inner: str) -> "str | None":
    """The rows, lists or tuples, as _json_value lays them out with the
    indent inner, if all hold the same nonzero number of ints (by type, so
    not bool): one %d template over the flattened table.  Else None."""
    if len(widths := set(map(len, rows))) != 1:
        return None
    flat = tuple(itertools.chain.from_iterable(rows))
    if set(map(type, flat)) != {int}:
        return None
    cell = inner + "  "
    row = "[" + cell + ("," + cell).join(["%d"] * widths.pop()) + inner + "]"
    return ("," + inner).join([row] * len(rows)) % flat


def _json_key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _ENCODE(key)
