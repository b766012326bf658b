"""X-state parameterization and its density-matrix realizations.

An n-qubit X state is

    rho = 2**-n * sum_i ( d_i * F(Dz_i) + a_i * F(Axy_i) )

where Dz_i = z_product(i, n), Axy_i = xy_product(i, n), F is one of the
named axis frames and d_0 = 1 fixes the trace.  In the Z frame the nonzero
entries of rho lie only on the diagonal and the anti-diagonal (the letter-X
pattern); other frames conjugate that pattern by local rotations.

Every family operator is a tensor product of one factor per qubit: I or F(Z)
per bit of i in Dz_i, F(X) or F(Y) in Axy_i.  So, with vec(rho) the flattened
matrix,

    vec(rho) = 2**-n * ( B_d^{(x)n} d + B_a^{(x)n} a )

for two 4x2 per-qubit factors: B_d has the columns vec(I), vec(F(Z)) and B_a
the columns vec(F(X)), vec(F(Y)), with the frame's signs.  One transform and
its adjoint, applied in blocks of qubits, serve every n, every frame and any
stack of matrices.

Every frame is a local unitary conjugation of the Z frame, so the spectrum
of any frame's matrix is that of the Z-frame X matrix, a direct sum of 2x2
sectors on {b, ~b}.  Their entries are the Z-frame factors' values at the X
positions, applied by the same blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import SECTOR_FIT_TOL, sector_eigenvalues, sector_hermiticity_deviation
from .pauli import FRAMES, MAX_DENSE_QUBITS, PAULI_MATRICES, AxisFrame

# Qubits per Kronecker block: n <= 4 costs one matmul, n <= 12 at most three.
_BLOCK = 4

VALID_TRACE_TOL = 1e-10
VALID_HERM_TOL = 1e-10
VALID_EIG_TOL = -1e-10


@dataclass(frozen=True)
class XStateParams:
    """The 2**(n+1) - 1 free real parameters of an n-qubit X state."""

    n: int
    d: tuple[float, ...]
    a: tuple[float, ...]
    frame: str = "Z"

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DENSE_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_DENSE_QUBITS}, got {self.n}")
        size = 1 << self.n
        if len(self.d) != size:
            raise ValueError(f"d must have length {size}, got {len(self.d)}")
        if len(self.a) != size:
            raise ValueError(f"a must have length {size}, got {len(self.a)}")
        if self.d[0] != 1.0:
            raise ValueError("d[0] must equal 1 (trace normalization)")
        if not all(math.isfinite(v) for v in self.d + self.a):
            raise ValueError("parameters must be finite reals")
        if self.frame not in FRAMES:
            raise ValueError(f"unknown frame {self.frame!r}; expected one of "
                             f"{sorted(FRAMES)}")

    @classmethod
    def build(cls, n: int, frame: str = "Z", d: dict[int, float] | None = None,
              a: dict[int, float] | None = None) -> "XStateParams":
        """Construct from sparse index -> coefficient maps (d[0] implied 1)."""
        dv = [0.0] * (1 << n)
        av = [0.0] * (1 << n)
        dv[0] = 1.0
        for i, v in (d or {}).items():
            dv[i] = float(v)
        for i, v in (a or {}).items():
            av[i] = float(v)
        return cls(n, tuple(dv), tuple(av), frame)


@dataclass(frozen=True)
class StateReport:
    """What validate measured, from the Z-frame sector entries in any frame.

    trace_deviation is |sum_b rho[b, b] - 1|; hermiticity_deviation is
    max_b |rho[b, ~b] - conj(rho[~b, b])| over the anti-diagonal, which real
    parameters make rounding noise at most; min_eigenvalue is the smallest
    eigenvalue of the 2x2 sector blocks.
    """

    trace_deviation: float
    hermiticity_deviation: float
    min_eigenvalue: float
    is_valid: bool

    def to_json(self) -> dict:
        return {
            "trace_deviation": self.trace_deviation,
            "hermiticity_deviation": self.hermiticity_deviation,
            "min_eigenvalue": self.min_eigenvalue,
            "is_valid": self.is_valid,
        }


def _block_factors(frame: AxisFrame) -> tuple[tuple[np.ndarray, ...], ...]:
    """Kronecker powers of the per-qubit factors for g = 0.._BLOCK qubits.

    forward[g] has shape (2, 2**g, 4**g): [0, c] is the flattened g-qubit
    family operator of z-index c and [1, c] that of xy-index c, in (row bits,
    column bits) order.  Bit k-1 of c picks the factor of the block's k-th
    qubit, counted from the left.  adjoint[g] is its conjugate laid out as
    (4**g, 2, 2**g).
    """
    def image(axis):
        new_axis, sign = frame.image(axis)
        return sign * PAULI_MATRICES[new_axis]

    def grow(block, qubit):
        # the next qubit is the rightmost factor and the highest bit of c
        product = block[:, None, :, None, None, :] * qubit[None, :, None, :, :, None]
        return product.reshape(2 * len(block), -1, 2 * block.shape[-1])

    # (row, column, bit): bit 0/1 picks I/F(Z) for d and F(X)/F(Y) for a
    per_qubit = (np.stack([PAULI_MATRICES["I"], image("Z")], axis=-1),
                 np.stack([image("X"), image("Y")], axis=-1))
    levels = [(np.ones((1, 1, 1)),) * 2]
    for _ in range(_BLOCK):
        levels.append(tuple(map(grow, levels[-1], per_qubit)))
    forward = tuple(np.stack([b.reshape(-1, b.shape[-1]).T for b in level])
                    for level in levels)
    adjoint = tuple(np.ascontiguousarray(f.conj().transpose(2, 0, 1)) for f in forward)
    for table in forward + adjoint:
        table.setflags(write=False)
    return forward, adjoint


_FACTORS = {name: _block_factors(frame) for name, frame in FRAMES.items()}


def _sector_factors() -> tuple[np.ndarray, ...]:
    """The Z-frame forward tables at the X positions, for g = 0.._BLOCK.

    Entry g has shape (2, 2**g, 2**g): [0, c, r] is the g-qubit operator of
    z-index c at (r, r), [1, c, r] that of xy-index c at (r, ~r).  Per qubit
    these are [[1, 1], [1, -1]] and [[1, -i], [1, i]] over (basis bit,
    parameter bit).
    """
    tables = []
    for g, f in enumerate(_FACTORS["Z"][0]):
        r = np.arange(1 << g)
        t = np.stack([f[0][:, (r << g) + r], f[1][:, (r << g) + (r ^ ((1 << g) - 1))]])
        t.setflags(write=False)
        tables.append(t)
    return tuple(tables)


_SECTOR_FACTORS = _sector_factors()


class _Layout(NamedTuple):
    """How n qubits split into blocks, and the block axes of a dense matrix."""

    sizes: tuple[int, ...]      # qubits per block, from qubit 1 (the top row bit) on
    matrix: tuple[int, ...]     # (batch, rows 1..m, cols 1..m)
    pairs: tuple[int, ...]      # (batch, rows 1, cols 1, ..., rows m, cols m)
    to_pairs: tuple[int, ...]   # axis order from the matrix shape to the pairs
    to_matrix: tuple[int, ...]  # and back


def _layout(n: int) -> _Layout:
    sizes = tuple(min(_BLOCK, n - q) for q in range(0, n, _BLOCK))
    dims = tuple(1 << g for g in sizes)
    m = len(sizes)
    return _Layout(sizes, (-1, *dims, *dims), (-1, *(d for d in dims for _ in (0, 1))),
                   (0, *(k for j in range(1, m + 1) for k in (j, j + m))),
                   (0, *range(1, 2 * m, 2), *range(2, 2 * m + 1, 2)))


_LAYOUTS = {n: _layout(n) for n in range(1, MAX_DENSE_QUBITS + 1)}


def _entries(coeffs: np.ndarray, n: int, frame: str) -> np.ndarray:
    """2**-n * sum_k coeffs[..., k] * P_k over the family operators P_k.

    coeffs (..., 2**(n+1)) holds d then a; the result is (..., dim, dim).
    The per-half factors act on blocks 1..m-1, lowest qubits first; block m
    takes both halves in one matmul, which also sums them.
    """
    forward, _ = _FACTORS[frame]
    layout = _LAYOUTS[n]
    *inner, last = layout.sizes
    # (batch, half, block m, ..., block 1) in the C order of the indices
    t = coeffs.reshape(-1, 2, 1 << n) / (1 << n)
    for g in inner:
        # (B, half, R, block j) -> (B, 4**g, half, R): the block's image moves
        # in front of the half axis, after the images of earlier blocks
        t = t.reshape(-1, 2, t.shape[-1] >> g, 1 << g) @ forward[g]
        t = np.moveaxis(t, -1, 1)
    t = t.reshape(-1, 2 << last) @ forward[last].reshape(2 << last, -1)
    t = t.reshape(layout.pairs).transpose(layout.to_matrix)
    return t.reshape(*coeffs.shape[:-1], 1 << n, 1 << n)


def _coefficients(rho: np.ndarray, n: int, frame: str) -> np.ndarray:
    """tr(P_k rho) for every family operator P_k: the adjoint of _entries.

    rho (..., dim, dim) gives the real parts (..., 2**(n+1)), d then a.
    Non-finite input raises ValueError before the transform.
    """
    if not np.isfinite(rho).all():
        raise ValueError("state entries must be finite")
    _, adjoint = _FACTORS[frame]
    layout = _LAYOUTS[n]
    *inner, last = layout.sizes
    t = rho.reshape(layout.matrix).transpose(layout.to_pairs)
    t = t.reshape(-1, 4 ** last) @ adjoint[last].reshape(4 ** last, -1)
    for g in reversed(inner):
        # (B, 4**g, half, R) -> (B, half, R, block j)
        t = t.reshape(-1, 4 ** g, 2, t.shape[-1] >> 1)
        t = (np.moveaxis(t, 1, -1) @ adjoint[g].transpose(1, 0, 2)).reshape(len(t), -1)
    return t.real.reshape(*rho.shape[:-2], 2 << n)


def _sector_entries(coeffs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Z-frame diag[..., b] = rho[b, b] and anti[..., b] = rho[b, ~b] of the
    coefficients (..., 2**(n+1)), d then a.

    The same block loop as _entries with the sector tables; block j's basis
    bits land in front of the later blocks', so the result is in basis order.
    """
    t = coeffs.reshape(-1, 2, 1 << n) / (1 << n)
    for g in _LAYOUTS[n].sizes:
        # (rows so far, half, R, block j) -> (rows so far, block j's rows, half, R)
        t = t.reshape(-1, 2, t.shape[-1] >> g, 1 << g) @ _SECTOR_FACTORS[g]
        t = np.moveaxis(t, -1, 1)
    t = t.reshape(*coeffs.shape[:-1], 1 << n, 2)
    return t[..., 0].real, t[..., 1]


def _fit_sector_entries(rho: np.ndarray, n: int) -> "tuple[np.ndarray, np.ndarray] | None":
    """Z-frame (diag, anti) of the X- or Y-frame X state that rho is, else None.

    Each frame's coefficients, with d_0 pinned to 1, rebuild a matrix; its
    Frobenius distance from rho times sqrt(dim) bounds their trace-norm
    distance and the change of any negativity between the two, since the
    partial transpose keeps the Frobenius norm and ||.||_1 <= sqrt(dim)
    ||.||_F.  The first frame whose bound is within SECTOR_FIT_TOL gives the
    sector entries; the frames are local unitary conjugations of the Z
    frame, so they share its negativities and two-qubit concurrence.  The
    rebuilt matrix is Hermitian with unit trace, so a non-Hermitian rho, or
    one of another trace, fails the bound.
    """
    for frame in ("X", "Y"):
        coeffs = _coefficients(rho, n, frame)
        coeffs[0] = 1.0
        diff = _entries(coeffs, n, frame)
        diff -= rho
        if math.sqrt(len(rho)) * np.linalg.norm(diff) <= SECTOR_FIT_TOL:
            return _sector_entries(coeffs, n)
    return None


def materialize(p: XStateParams) -> np.ndarray:
    """The dense density matrix of the parameterized X state."""
    return _entries(np.concatenate([p.d, p.a]), p.n, p.frame)


def decompose(rho: np.ndarray, n: int, frame: str = "Z") -> tuple[XStateParams, float]:
    """Project onto the frame's X family.

    Returns the recovered parameters and the max-norm residual of rho outside
    the family.  d[0] is pinned to 1, so any trace deficit shows up in the
    residual rather than in the parameters.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = 1 << n
    if rho.shape != (dim, dim):
        raise ValueError(f"state dimension {rho.shape} does not match n={n}")
    coeffs = _coefficients(rho, n, frame)
    params = XStateParams(n, (1.0,) + tuple(coeffs[1:dim]), tuple(coeffs[dim:]), frame)
    residual = float(np.max(np.abs(rho - materialize(params))))
    return params, residual


def family_residual(rho: np.ndarray, n: int, frame: str = "Z") -> "float | np.ndarray":
    """Max-norm weight of rho outside the frame's X family.

    Accepts a single (dim, dim) matrix, giving a float, or any stack
    (..., dim, dim), giving an array of the stack's shape.  Non-finite
    input, or a residual that overflows, raises ValueError.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = 1 << n
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"state dimension {rho.shape[-2:]} does not match n={n}")
    coeffs = _coefficients(rho, n, frame)
    coeffs[..., 0] = 1.0
    residual = np.abs(rho - _entries(coeffs, n, frame)).max(axis=(-2, -1))
    if not np.isfinite(residual).all():
        raise ValueError("family residual is not finite")
    return float(residual) if rho.ndim == 2 else residual


def validate(p: XStateParams) -> StateReport:
    """Physicality report (trace, Hermiticity, positive semidefiniteness).

    Computed in O(n * 2**n) from the Z-frame sector entries in every frame,
    since the frames share one spectrum: the trace is the sum of the
    diagonal, the Hermiticity deviation compares anti[b] with conj(anti[~b]),
    and the minimum eigenvalue comes from the 2x2 sector blocks in closed
    form.  No dense matrix is built.
    """
    diag, anti = _sector_entries(np.concatenate([p.d, p.a]), p.n)
    trace_dev = abs(float(diag.sum()) - 1.0)
    herm_dev = sector_hermiticity_deviation(diag, anti)
    min_eig = float(sector_eigenvalues(diag, anti).min())
    ok = (trace_dev <= VALID_TRACE_TOL and herm_dev <= VALID_HERM_TOL
          and min_eig >= VALID_EIG_TOL)
    return StateReport(trace_dev, herm_dev, min_eig, ok)


# ---- named families ---------------------------------------------------------

def werner(p: float) -> XStateParams:
    """(1-p)/4 * I + p * |Phi+><Phi+| as two-qubit X-state parameters."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    return XStateParams.build(2, d={3: p}, a={0: p, 3: -p})


def bell_diagonal(a0: float, a3: float, d3: float) -> XStateParams:
    """The three-coefficient two-qubit family with maximally mixed marginals."""
    return XStateParams.build(2, d={3: d3}, a={0: a0, 3: a3})


def ghz_params(n: int, frame: str = "Z") -> XStateParams:
    """Parameters of the GHZ projector, identical in every frame.

    d_i = 1 exactly on even-popcount indices; a_i alternates +1/-1 on
    popcount 0/2 mod 4 and vanishes on odd popcount.
    """
    if not 2 <= n <= MAX_DENSE_QUBITS:
        raise ValueError(f"qubit count must be in 2..{MAX_DENSE_QUBITS}, got {n}")
    d = {}
    a = {}
    for i in range(1 << n):
        w = i.bit_count()
        if w % 2 == 0 and i:
            d[i] = 1.0
        if w % 4 == 0:
            a[i] = 1.0
        elif w % 4 == 2:
            a[i] = -1.0
    return XStateParams.build(n, frame, d=d, a=a)


_NAMED_EXAMPLES = {
    "w_witness_state_3": dict(
        n=3, frame="X",
        d={3: 1.0, 5: 1.0, 6: 1.0},
        a={1: -1.0, 2: -1.0, 4: -1.0, 7: 1.0},
    ),
    "dicke_witness_state_4": dict(
        n=4, frame="X",
        d={3: 1.0, 5: 1.0, 6: 1.0, 9: 1.0, 10: 1.0, 12: 1.0, 15: 1.0},
        a={0: 1.0, 3: -1.0, 5: -1.0, 6: -1.0, 9: -1.0, 10: -1.0, 12: -1.0,
           15: 1.0},
    ),
}


def named_example(name: str) -> XStateParams:
    """Bundled X-frame example states used by the witness checks."""
    try:
        entry = _NAMED_EXAMPLES[name]
    except KeyError:
        raise ValueError(f"unknown example {name!r}; expected one of "
                         f"{sorted(_NAMED_EXAMPLES)}")
    return XStateParams.build(entry["n"], entry["frame"], d=entry["d"],
                               a=entry["a"])


NAMED_EXAMPLES = tuple(sorted(_NAMED_EXAMPLES))


# ---- state file format ------------------------------------------------------

def params_to_json(p: XStateParams) -> dict:
    return {"n": p.n, "frame": p.frame, "d": list(p.d), "a": list(p.a)}


def params_from_json(obj: dict) -> XStateParams:
    """Read the state file format, rejecting malformed content with messages."""
    if not isinstance(obj, dict):
        raise ValueError("state file must be a JSON object")
    for key in ("n", "frame", "d", "a"):
        if key not in obj:
            raise ValueError(f"state file is missing key {key!r}")
    n = obj["n"]
    # bool subclasses int, but JSON true/false are not numbers
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_DENSE_QUBITS:
        raise ValueError(f"state file n must be an integer in 1..{MAX_DENSE_QUBITS}")
    frame = obj["frame"]
    if frame not in FRAMES:
        raise ValueError(f"state file frame must be one of {sorted(FRAMES)}")
    size = 1 << n
    d = obj["d"]
    a = obj["a"]
    for name, seq in (("d", d), ("a", a)):
        if not isinstance(seq, list) or len(seq) != size:
            raise ValueError(f"state file {name!r} must be a list of length {size}")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and math.isfinite(v) for v in seq):
            raise ValueError(f"state file {name!r} entries must be finite numbers")
    if d[0] != 1:
        raise ValueError("state file d[0] must equal 1 (trace normalization)")
    return XStateParams(n, tuple(float(v) for v in d),
                        tuple(float(v) for v in a), frame)
