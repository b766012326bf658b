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
the columns vec(F(X)), vec(F(Y)), with the frame's signs.

Every frame is a local unitary conjugation of the Z frame, so the spectrum
of any frame's matrix is that of the Z-frame X matrix, a direct sum of 2x2
sectors on {b, ~b}.  Its X entries rho[b, b] and rho[b, ~b] are the same sum
with 2x1 per-qubit factors, the Z-frame factors at the X positions:
[[1, 1], [1, -1]] for d and [[1, -i], [1, i]] for a.

So two transforms are one operation: the sector transform _x_entries and
its adjoint _sector_coefficients.  One builder, _kron, makes the
Kronecker product of a sequence of per-qubit factors, and one loop,
_block_loop, applies a table per block of up to _BLOCK qubits.  The
sector factors' tables are built once, for every block size; they serve
every n and any stack.  A family-preserving channel maps the sector
entries by the same split (channels._sector_step): per block one table,
_kron of its qubits' 2x2 population or coherence blocks, each to the
power (_powers) of its qubit's count, and one matmul over a leading axis
of channel strengths.

In the X and Y frames F(Z) is +-X or +-Y, so every family operator has
one nonzero per row, at column r ^ s for its flip mask s, and each half
(d, a) has the 2**n masks: rho[r, c] is one d and one a term of mask
r ^ c (see _xor_terms).  Their projections are a gather on that XOR
structure, _xor_project, with no transform.

Every dense matrix is one _fill of one _seed, the entries the family
structure makes: in the X and Y frames _xor_fill's two takes from a seed
of 4 * 2**n entries, in the Z frame the X entries placed on a zero
matrix.  The same fill of the seed's own positions indexes a matrix's
distinct entries (entry_table), which the CLI's dumps are written from.

A channel E applied to listed qubits maps each listed qubit's factor
columns by its 4x4 superoperator S (S^k for a qubit listed k times), so
vec(E(rho)) is the same sum with factors S^k B there and B elsewhere.  The
standard channels are phase-covariant: S^k keeps a diagonal factor
diagonal and an anti-diagonal one anti-diagonal.  So in the X and Y
frames E(rho) keeps the XOR structure, one term per half and mask, each a
product of per-qubit table entries, and channels.sweep reads a point's
residual and witness value from those tables (channels._factor_points)
with neither rho nor E(rho) built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .linalg import (HERMITIAN_TOL, SECTOR_FIT_TOL, TRACE_TOL, _strip_rows, as_state,
                     sector_eigenvalues, sector_hermiticity_deviation)
from .pauli import (FRAMES, MAX_DENSE_QUBITS, PAULI_MATRICES, AxisFrame, is_integer,
                    require_frame, require_qubit_count)

# Qubits per Kronecker block: n <= 4 costs one matmul, n <= 12 at most three.
_BLOCK = 4

VALID_EIG_TOL = -1e-10


@dataclass(frozen=True)
class XStateParams:
    """The 2**(n+1) - 1 free real parameters of an n-qubit X state, and the
    one gate of every parameter set: anything but an integer n (is_integer)
    in 1..MAX_DENSE_QUBITS, 2**n finite reals in each of d and a with d[0]
    = 1 and a frame of FRAMES raises ValueError.  n is held as a Python
    int, d and a as tuples of Python floats, and once more, d then a, as
    the read-only float64 array coeffs that the transforms read, outside
    __init__, eq, hash and repr."""

    n: int
    d: tuple[float, ...]
    a: tuple[float, ...]
    frame: str = "Z"
    coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_qubit_count(self.n)
        object.__setattr__(self, "n", int(self.n))
        size = 1 << self.n
        if len(self.d) != size:
            raise ValueError(f"d must have length {size}, got {len(self.d)}")
        if len(self.a) != size:
            raise ValueError(f"a must have length {size}, got {len(self.a)}")
        # numpy infers a numeric kind only for numbers: strings, None and ints
        # beyond 64 bits give another
        values = np.array((self.d, self.a))
        if values.dtype.kind not in "biuf" or not np.isfinite(values).all():
            raise ValueError("parameters must be finite reals")
        if values[0, 0] != 1.0:
            raise ValueError("d[0] must equal 1 (trace normalization)")
        require_frame(self.frame)
        values = values.astype(float, copy=False)
        values.setflags(write=False)
        d, a = values.tolist()
        object.__setattr__(self, "d", tuple(d))
        object.__setattr__(self, "a", tuple(a))
        object.__setattr__(self, "coeffs", values.reshape(-1))

    @classmethod
    def build(cls, n: int, frame: str = "Z", d: dict[int, float] | None = None,
              a: dict[int, float] | None = None) -> "XStateParams":
        """Construct from sparse index -> coefficient maps (d[0] implied 1)."""
        require_qubit_count(n)
        dv = [0.0] * (1 << n)
        av = [0.0] * (1 << n)
        dv[0] = 1.0
        for i, v in (d or {}).items():
            dv[i] = v
        for i, v in (a or {}).items():
            av[i] = v
        return cls(n, dv, av, frame)


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
        return asdict(self)


def _kron(tables) -> np.ndarray:
    """The Kronecker product of a sequence of (..., rows, columns) tables,
    the first one's bits the top ones; leading axes broadcast.  It grows
    from the right, so its longest axes stay innermost."""
    t = np.ones((1, 1))
    for m in reversed(tables):
        t = m[..., :, None, :, None] * t[..., None, :, None, :]
        *lead, r, rows, c, columns = t.shape
        t = t.reshape(*lead, r * rows, c * columns)
    return t


def _powers(m: np.ndarray, x0: np.ndarray, counts) -> dict[int, np.ndarray]:
    """{k: m^k x0} for each distinct k of counts, from the left products
    m @ (m^(k-1) x0), holding only the powers that occur."""
    powers = {}
    for k in range(max(counts, default=-1) + 1):
        p = m @ p if k else x0
        if k in counts:
            powers[k] = p
    return powers


def _frame_tables(tables: dict) -> tuple[dict, dict]:
    """The read-only forward and adjoint forms of (2, k, rows) tables, under
    their keys: forward, each table as a view of (2, rows, k) memory, and
    adjoint, its conjugate as (2, rows, k), a view of (rows, 2, k) memory.
    A matmul's rounding can depend on its operands' memory layout, and the
    sector transforms' output bits are pinned with these layouts."""
    forward = {g: np.ascontiguousarray(t.swapaxes(1, 2)).swapaxes(1, 2) for g, t in tables.items()}
    adjoint = {g: np.ascontiguousarray(f.conj().transpose(2, 0, 1)).transpose(1, 0, 2)
               for g, f in forward.items()}
    for table in (*forward.values(), *adjoint.values()):
        table.setflags(write=False)
    return forward, adjoint


def _frame_factors(frame: AxisFrame) -> np.ndarray:
    """The (half, bit, row, column) factors of one qubit: bit 0/1 picks
    I/F(Z) for d and F(X)/F(Y) for a, with the frame's signs."""
    z, x, y = (sign * PAULI_MATRICES[axis] for axis, sign in map(frame.image, "ZXY"))
    return np.array([[PAULI_MATRICES["I"], z], [x, y]])


_POPCOUNT = np.zeros(1, dtype=np.intp)          # of 0..2**MAX_DENSE_QUBITS - 1
_REVERSED = np.zeros(1, dtype=np.intp)          # their bit reversals
for _bit in range(MAX_DENSE_QUBITS):            # the next bit doubles each table
    _POPCOUNT = np.concatenate([_POPCOUNT, _POPCOUNT + 1])
    _REVERSED = np.concatenate([_REVERSED, _REVERSED + (1 << (MAX_DENSE_QUBITS - 1 - _bit))])


# The Z-frame factors at the X positions, (half, bit, row): I/Z at (r, r),
# [[1, 1], [1, -1]], and X/Y at (r, ~r), [[1, 1], [-i, i]].  Their _kron
# over g = 1.._BLOCK qubits, the index bit-reversed so that bit k-1 picks
# the k-th qubit's factor, is forward[g][h, c, r], the g-qubit operator of
# half h and index c at row r's X position.
_SECTOR_FACTORS = np.stack([f[:, [0, 1], columns] for f, columns in
                            zip(_frame_factors(FRAMES["Z"]), ([0, 1], [1, 0]))])
_SECTORS = _frame_tables({
    g: _kron([_SECTOR_FACTORS] * g)[:, _REVERSED[:1 << g] >> (MAX_DENSE_QUBITS - g)]
    for g in range(1, _BLOCK + 1)})


# per n, the sector tables of its blocks of up to _BLOCK qubits, from block
# 1 (qubit 1 on), and their adjoints, from block m
_SECTOR_TABLES = {}
for _n in range(1, MAX_DENSE_QUBITS + 1):
    _sizes = [min(_BLOCK, _n - q) for q in range(0, _n, _BLOCK)]
    _SECTOR_TABLES[_n] = [_SECTORS[0][g] for g in _sizes], [_SECTORS[1][g] for g in _sizes[::-1]]


def _block_loop(t: np.ndarray, tables) -> np.ndarray:
    """The block loop of every transform.

    t (rows, half, index) meets each table (half, k, out) of the sequence
    in turn, one block each, each block taking the lowest k of the index
    still left.  Each block's image lands in front of the later blocks'
    images, so the result is (rows, image of the first block, ..., of the
    last, half, index left).
    """
    for table in tables:
        k = table.shape[-2]
        # (rows so far, half, R, k) -> (rows so far, block's image, half, R)
        t = (t.reshape(-1, 2, t.shape[-1] // k, k) @ table).transpose(0, 3, 1, 2)
    return t


def _checked(coeffs: np.ndarray) -> np.ndarray:
    """coeffs, checked finite: a safety check, as input through
    linalg.as_state cannot overflow in a projection."""
    if not np.isfinite(coeffs).all():
        raise ValueError("state family coefficients overflow")
    return coeffs


def _x_entries(coeffs: np.ndarray, n: int) -> np.ndarray:
    """The Z-frame X entries of the coefficients (..., 2**(n+1)), d then a,
    as (..., dim, 2): rho[b, b] and rho[b, ~b] for each basis row b.

    The sector tables run from block 1, the lowest parameter bits, whose
    basis bits come out first: the result is in basis order.
    """
    t = _block_loop(coeffs.reshape(-1, 2, 1 << n) / (1 << n), _SECTOR_TABLES[n][0])
    return t.reshape(*coeffs.shape[:-1], 1 << n, 2)


def _sector_entries(coeffs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Z-frame diag[..., b] = rho[b, b] and anti[..., b] = rho[b, ~b] of the
    coefficients (..., 2**(n+1)), d then a: _x_entries, diag made real."""
    t = _x_entries(coeffs, n)
    return t[..., 0].real, t[..., 1]


def _sector_coefficients(x: np.ndarray, n: int) -> np.ndarray:
    """tr(P_k rho) for the Z-frame family operators P_k of any rho (or
    stack) from its X entries x (..., 2, dim), diag then anti, as every P_k
    is zero off the X: the adjoint of _x_entries, in O(n * 2**n), checked
    finite.

    The conjugate sector tables run from block m, the lowest basis bits,
    whose parameter bits come out first: the result is in parameter order.
    """
    t = _block_loop(x.reshape(-1, 2, 1 << n), _SECTOR_TABLES[n][1])
    left = t.shape[-1]
    t = t.reshape(-1, (1 << n) // left, 2, left).transpose(0, 2, 3, 1)
    return _checked(t.real.reshape(*x.shape[:-2], 2 << n))


def _x_views(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m[..., b, b] and m[..., b, ~b], (..., dim) each, as strided views of
    a C-contiguous matrix or stack m (..., dim, dim), so writing them
    writes m."""
    dim = m.shape[-1]
    flat = m.reshape(*m.shape[:-2], dim * dim)
    return flat[..., ::dim + 1], flat[..., dim - 1:-1:dim - 1]


# ---- the X and Y frames: one nonzero per row --------------------------------
#
# In the X and Y frames F(Z) is +-X or +-Y, so each qubit's factor of a
# family operator either keeps its basis bit (I, or the one of F(X), F(Y)
# that is +-Z) or flips it.  An operator then has one nonzero per row, at
# column r ^ s for its flip mask s, and within each half (d, a) the 2**n
# operators have the 2**n masks.  So rho[r, c] is one d term plus one a
# term, both of mask s = r ^ c.  The factors' entries make its phase: a
# power of i per qubit, times -1 per qubit whose row bit is set and whose
# factor's two rows differ in sign.  Those signs are (-1)**(beta *
# parity(r & ~s)) over the kept factors and (-1)**(alpha * parity(r & s))
# over the flipping ones; with p = parity(r) and w = parity(r & s), that is
# (-1)**(beta * p + gamma * w), gamma = alpha ^ beta.  The sign of w, the
# Walsh sign, is there in both halves when F(Z) is +-Y, in neither when
# it is +-X.

_I_POWERS = np.array([1, 1j, -1, -1j])


def _xor_table(factors: np.ndarray) -> np.ndarray:
    """The XOR tables (..., half, r, s) of per-qubit factors (..., half,
    bit, row, column): F[r, r ^ s] summed over the half's two factors.  Of
    those one keeps the basis bit and one flips it, so the other term is
    exactly 0.  The sum starts from +0.0, so a zero entry is +0.0 on every
    numpy.  The gather's index arrays are the (row, column) of each (r, s)."""
    return factors.sum(axis=-3, initial=0.0)[..., [[0, 0], [1, 1]], [[0, 1], [1, 0]]]


class _XorTerms(NamedTuple):
    """Half h's operator of mask s (in basis bits, qubit 1 the top one) is
    P[r, r ^ s] = phase[h, s] times the row signs, and its coefficient is
    coeffs[h * dim + flip_h(s)], flip_h an involution of the parameter
    bits, so a take by index also brings an array in mask order to
    parameter order."""

    index: np.ndarray       # (h, s): h * dim + flip_h(s)
    seed: np.ndarray        # (p, w, h, s): (-1)**(p beta_h + w gamma) phase[h, s] / dim
    values: np.ndarray      # (p, h, s): (-1)**(p beta_h) conj(phase[h, s])
    walsh: bool             # gamma


@functools.lru_cache(maxsize=None)
def _xor_terms(n: int, frame: str) -> _XorTerms:
    """The X or Y frame's _XorTerms for n qubits, O(2**n), read off the
    XOR table of its per-qubit factors (_xor_table) once per n."""
    factors = _frame_factors(FRAMES[frame])             # (half, bit, row, column)
    flip = (factors[:, :, 0, 0] == 0).argmax(axis=1)    # per half, the flipping bit
    top, bottom = _xor_table(factors).swapaxes(0, 1)    # rows 0 and 1, (half, s_q)
    beta, alpha = (bottom / top).real.T < 0
    powers = np.round(np.angle(top) / (np.pi / 2)).astype(int)
    dim, flips = 1 << n, _POPCOUNT[:1 << n]
    # parameter bit q - 1 is qubit q, basis bit n - q; it is set where the
    # half's bit-1 factor is used
    bits = _REVERSED[:dim] >> (MAX_DENSE_QUBITS - n)
    index = np.where(flip[:, None] == 1, bits, bits ^ (dim - 1)) + np.array([[0], [dim]])
    phase = (np.where(np.outer([0, 1], beta), -1.0, 1.0)[:, :, None]
             * _I_POWERS[(powers[:, :1] * (n - flips) + powers[:, 1:] * flips) % 4])
    # gamma = alpha ^ beta is the same in both halves
    walsh = bool(alpha[0] ^ beta[0])
    return _XorTerms(index, phase[:, None] * np.array([1.0, 1 - 2 * walsh])[:, None, None] / dim,
                     phase.conj(), walsh)


class _Half(NamedTuple):
    """Index tables of one half, k bits, of the row and column bits: the
    top n // 2 bits or the rest.  r and c are the half's row and column
    bits, s = r ^ c, w = parity(r & s) = parity(r & ~c); all O(4**k).
    The top half's tables gather and scatter its (row, column) pairs, the
    low half's make the takes, with c' a top-half column."""

    split: np.ndarray       # (r, c, p', w'): ((p' ^ parity(r)) * 2 + (w' ^ w)) * 2**k + s
    pair: np.ndarray        # (r, p, c): (p ^ parity(r)) * 2**k + s
    sums: np.ndarray        # (r, p, s): (2 r + p ^ parity(r)) * 2**k + (r ^ s)
    walsh: np.ndarray       # (r, 1, c, 1): (-1)**w
    build: np.ndarray       # (r, 1, c): (2 parity(r) + w) * 2**k + s, plus c' * 4 * 2**k
    gather: dict            # top half's width: (j, 1, s): rows[j] * dim + (rows[j] ^ s), plus c' 2**k
    step: np.ndarray        # (c', 1): c' * 2**k
    row_walsh: np.ndarray   # (1, j, 1, s): (-1)**parity(rows[j] & s), rows even parity first


@functools.lru_cache(maxsize=None)
def _half(k: int) -> _Half:
    """The _Half of k bits, made once per k."""
    r = np.arange(1 << k)
    parity, s, walsh = _POPCOUNT[r] & 1, r[:, None] ^ r, _POPCOUNT[r[:, None] & ~r] & 1
    rows = np.argsort(parity, kind="stable")
    flip = np.arange(2)
    pair = (parity[:, None, None] ^ flip[:, None]) << k | s[:, None, :]
    return _Half((((parity[:, None, None, None] ^ flip[:, None]) << 1
                   | walsh[:, :, None, None] ^ flip) << k) + s[:, :, None, None],
                 pair, pair + (r << (k + 1))[:, None, None], (1.0 - 2 * walsh)[:, None, :, None],
                 (((parity[:, None] << 1) | walsh) << k | s)[:, None, :],
                 {top: ((rows << (k + top))[:, None] + (rows[:, None] ^ r))[:, None, :]
                  for top in (k - 1, k)},
                 (r << k)[:, None],
                 (1.0 - 2 * (_POPCOUNT[rows[:, None] & r] & 1))[None, :, None, :])


def _xor_seed(coeffs: np.ndarray, terms: _XorTerms, seed: np.ndarray) -> np.ndarray:
    """(..., p, [w,] s) for seed terms.seed or its w = 0 plane: rho[r, r ^ s]
    of the coefficients (..., 2**(n+1)), d then a, for the rows r of
    parity p and Walsh sign w: one rounded sum of a d and an a term, each
    an exact multiple of a coefficient by +-2**-n or +-2**-n i."""
    x = coeffs.take(terms.index, axis=-1)[..., None, :, :] * seed
    return x[..., 0, :] + x[..., 1, :]


def _xor_fill(seed: np.ndarray, n: int) -> np.ndarray:
    """The (dim, dim) array rho[r, c] = seed[parity(r), w, r ^ c] of a
    C-contiguous seed (2, 2, dim) of any dtype, with w the parity of
    r & ~c for the Walsh sign.

    The row and column bits split into a top half (n // 2 bits) and the
    rest, and the parities and Walsh signs into those of each half.  One
    take makes the seed's rows for the top halves of r and c, O(2**(3n/2))
    entries, and one more fills rho from them, so each entry is a copy of
    its seed entry.
    """
    dim, high, low = 1 << n, _half(n // 2), _half(n - n // 2)
    dh, dl = len(high.step), len(low.step)
    take = (low.step[:dh] << 2) + low.build                       # (r_l, c_h, c_l)
    rho = np.empty((dh, dl, dh, dl), dtype=seed.dtype)
    rows = seed.reshape(4 * dh, -1).take(high.split, axis=0)      # (r_h, c_h, p, w, s_l)
    # every index is in range; "clip" takes straight into rho, unbuffered
    rows.reshape(dh, -1).take(take, axis=1, out=rho, mode="clip")
    return rho.reshape(dim, dim)


def _peak(part: np.ndarray) -> np.ndarray:
    """max |entry| per matrix of a stack part (B, ...)."""
    return np.abs(part).reshape(len(part), math.prod(part.shape[1:])).max(axis=1)


def _square_sum(part: np.ndarray) -> np.ndarray:
    """The sum of |entry|**2 per matrix of a stack part (B, ...), rows
    contiguous: one dot product of its real and imaginary parts."""
    flat = part.reshape(len(part), math.prod(part.shape[1:]))
    flat = flat.view(float) if flat.dtype.kind == "c" else flat
    return (flat[:, None, :] @ flat[:, :, None])[:, 0, 0]


# What _project measures of rho - sigma, a strip at a time, and how it
# merges the strips' values: _peak, max |rho - sigma|, the residual of
# decompose, family_residual and sweep; _square_sum, ||rho - sigma||_F**2,
# the distance of the sector fit.
_FOLDS = {_peak: np.maximum, _square_sum: np.add}


def _xor_project(rho: np.ndarray, n: int, frame: str,
                 measure: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """_project in the X and Y frames, for rho passing linalg.as_state.

    One take gathers rho into G[..., r_h, j, c_h, s_l] = rho[..., r, r ^ s]
    for r = (r_h, the j-th low row) and s = (r_h ^ c_h, s_l): the low rows
    in parity order, the top column bits as they are.  tr(P rho) for a
    family operator P of mask s is its conjugate phase times the sum of
    G's column over the rows, each with P's row sign: (-1)**(p * beta),
    and in the Y frame the Walsh sign w = w_h * w_l of its two halves.
    The low rows' parity halves are summed first, with w_l applied to G
    in place, then the top rows into their parities, with w_h applied to
    those O(2**(3n/2)) sums.  Then each strip of G (linalg._strip_rows)
    has w_h * seed[parity(r)], the pinned coefficients' rows, taken from
    it in place, which leaves a strip of w_l * (rho - sigma), whose
    entries' moduli are those of rho - sigma, and is measured while in
    cache.  A real rho stays real throughout: its sums are real, the
    coefficients of the +-i phases exactly 0, and the seed real.
    """
    dim, high, low = 1 << n, _half(n // 2), _half(n - n // 2)
    dh, dl = len(high.step), len(low.step)
    batch, terms = rho.shape[:-2], _xor_terms(n, frame)
    take = low.gather[n // 2] + low.step[:dh]                     # (j, c_h, s_l)
    g = np.empty((*batch, dh, dl, dh, dl), dtype=rho.dtype)
    rho.reshape(*batch, dh, dl * dim).take(take, axis=-1, out=g, mode="clip")
    if terms.walsh:
        g *= low.row_walsh
    sums = g.reshape(*batch, dh, 2, dl // 2, dim).sum(axis=-2).reshape(*batch, dh, 2, dh, dl)
    if terms.walsh:
        sums *= high.walsh
    sums = sums.reshape(*batch, 2 * dh * dh, dl).take(high.sums, axis=-2).sum(axis=-4)
    sums = sums.reshape(*batch, 2, 1, dim) * terms.values
    values = (sums[..., 0, :, :] + sums[..., 1, :, :]).real.reshape(*batch, 2 * dim)
    coeffs = _checked(values.take(terms.index, axis=-1).reshape(*batch, 2 * dim))
    coeffs[..., 0] = 1.0
    seed = _xor_seed(coeffs, terms, terms.seed[:, 0])
    if g.dtype.kind != "c":
        seed = seed.real
    seed = seed.reshape(*batch, 2 * dh, dl).take(high.pair, axis=-2)   # (r_h, p_l, c_h, s_l)
    if terms.walsh:
        seed *= high.walsh
    seed = seed.reshape(-1, 2 * dh, 1, dim)              # per (r_h, p_l) group of rows
    rows, half, step = g.reshape(-1, dim, dim), dl // 2, _strip_rows(dim, g.nbytes)
    groups = max(step // half, 1)       # a strip is whole groups of G's rows, or rows of one
    values = []
    for i in range(0, dim, step):
        strip = rows[:, i:i + step].reshape(len(rows), groups, min(step, half), dim)
        strip -= seed[:, i // half:i // half + groups]
        values.append(measure(strip))
    return coeffs, functools.reduce(_FOLDS[measure], values).reshape(batch)


def _project(rho: np.ndarray, n: int, frame: str,
             measure: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(coeffs, value): the family coefficients of rho (or of a stack),
    passing linalg.as_state, with d_0 pinned to 1, so a trace deficit
    lands in rho - sigma, for sigma their matrix; and the measure of rho -
    sigma, a value per matrix of rho's batch shape: _peak's max |rho -
    sigma| or _square_sum's ||rho - sigma||_F**2 (_FOLDS).

    rho - sigma is measured a strip of rows at a time (linalg._strip_rows),
    each strip while in cache, and the X and Y frames' gather is the only
    temporary of rho's size.  The Z frame's family operators are zero off
    the X, so its coefficients are _sector_coefficients of rho's X
    entries, sigma's X entries are _x_entries, and rho - sigma is rho
    itself off the X: each strip of rho is copied into one strip buffer,
    the differences are put in place of its X entries, and the buffer is
    measured, so no copy of rho is made.  Two O(n * 2**n) transforms and
    one read of rho.  The X and Y frames take
    _xor_project: one O(4**n) gather, and rho - sigma in its (row, mask)
    coordinates.  An unknown frame raises ValueError before any transform.
    """
    require_frame(frame)
    if frame != "Z":
        return _xor_project(rho, n, frame, measure)
    dim, batch = 1 << n, rho.shape[:-2]
    rho = rho.reshape(-1, dim, dim)
    x = np.concatenate([rho.diagonal(0, 1, 2), rho[..., ::-1].diagonal(0, 1, 2)], axis=1)
    x = x.reshape(*batch, 2, dim)
    coeffs = _sector_coefficients(x, n)
    coeffs[..., 0] = 1.0
    x = x - _x_entries(coeffs, n).swapaxes(-1, -2)            # rho - sigma on the X
    x = x.reshape(len(rho), 2, dim)
    step = _strip_rows(dim, rho.nbytes)
    part = np.empty((len(rho), step, dim), x.dtype)         # each strip of rho - sigma
    flat = part.reshape(len(rho), step * dim)
    values = []
    for i in range(0, dim, step):
        part[...] = rho[:, i:i + step]
        # the strip's X entries (r, i + r) and (r, dim - 1 - i - r), r < step
        flat[:, i::dim + 1] = x[:, 0, i:i + step]
        flat[:, dim - 1 - i:step * (dim - 1) - i + 1:dim - 1] = x[:, 1, i:i + step]
        values.append(measure(part))
    return coeffs, functools.reduce(_FOLDS[measure], values).reshape(batch)


# (-1)**(number of set bits among the top two), per quarter of the basis
_QUARTER_SIGN = np.array([[1.0], [-1.0], [-1.0], [1.0]])
_QUARTER_SIGN.setflags(write=False)


def _screen_deviation(rho: np.ndarray, n: int, frame: str) -> float:
    """How far row 0 of rho (n >= 2) is from commuting with g, the frame's
    image of Z_1 Z_2, which every operator of the frame's family commutes
    with: max_c |rho[0, c] - s(c) rho[x, c ^ x]|.

    x holds the basis bits that g flips, those of qubits 1 and 2 (the top
    two) unless g is Z_1 Z_2, and s(c) = -1 where g has Z or Y there and c
    has exactly one of the two bits set; g's own phase cancels.  So the row
    splits into quarters by those bits, and c ^ x reverses the quarters.
    O(2**n).
    """
    axis = FRAMES[frame].image("Z")[0]
    row = rho[0].reshape(4, -1)
    partner = row if axis == "Z" else rho[3 << (n - 2)].reshape(4, -1)[::-1]
    if axis != "X":
        partner = _QUARTER_SIGN * partner
    return float(np.abs(row - partner).max())


@functools.lru_cache(maxsize=None)
def _screen_bound(n: int) -> float:
    """The largest _screen_deviation of a rho whose fit succeeds, in any
    frame: 2 SECTOR_FIT_TOL / sqrt(dim) plus a rounding bound, derived here
    with u = 2**-53 and N = 4**n.

    Let sigma be the computed projection.  Its own screen deviation is
    exactly 0.  In the X and Y frames each of its entries is one rounded
    sum of a d and an a term (_xor_seed), exact multiples (by +-2**-n,
    +-2**-n i) of the computed coefficients, times the entry's Walsh sign;
    the terms at (x, c ^ x) are s(c) times those at (0, c), and rounding
    to nearest is odd.  _xor_project subtracts those same rows, so its
    difference is rho - sigma up to signs.  In the Z frame sigma is
    X-shaped and x = 0, so row 0 holds only c = 0 and c = dim - 1, where
    s(c) = +1, and every other entry of row 0 is exactly 0.  So the
    projection's own rounding adds nothing, and the deviation is that of
    rho - sigma, at most 2 max |rho - sigma| <= 2 ||rho - sigma||_F.  A
    passing fit has fl(sqrt(dim) fl(sqrt(q))) <= SECTOR_FIT_TOL, for q the
    computed ||fl(rho - sigma)||_F**2.  The difference rounds once per
    entry.  q is summed a strip at a time (_square_sum): each strip's
    squares of real and imaginary parts in one dot product, then the
    strips' sums in turn, so 2N rounded squares and 2N - 1 additions in
    some order, a relative error of at most gamma_2N (gamma_k = k u / (1 -
    k u)), which the square root halves to about gamma_N; the square root,
    the rounded sqrt(dim) and their product add three roundings.  Squares
    that underflow lose at most sqrt(N) 2**-537 in all, far below the
    rest.  So ||rho - sigma||_F <= SECTOR_FIT_TOL / (sqrt(dim) (1 -
    gamma_(N+5))), as with the two dot products of N squares each that
    the norm once took.  The deviation's own subtraction and modulus add a
    factor 1 + gamma_3.  The result exceeds 2 SECTOR_FIT_TOL / sqrt(dim) by
    a factor of about 1 + (N + 8) u.  The bound takes 1 + (N + 16) 2**-52,
    which also covers the rounding in computing the bound itself.  No bound
    at n = 1: the algebra's center is empty, and every state fits in the Z
    frame.
    """
    fit = 2 * SECTOR_FIT_TOL / math.sqrt(1 << n)
    return fit + fit * (4 ** n + 16) * np.finfo(float).eps


def _fit(rho: np.ndarray, n: int, frame: str) -> "tuple[np.ndarray, np.ndarray] | None":
    """Z-frame (diag, anti) of the projection of rho onto the frame's
    family if it lies within SECTOR_FIT_TOL, else None (see fit_sectors).
    The entries are made only for a fit that passes: in the X and Y frames
    from the coefficients, in the Z frame read off rho's X entries, made
    Hermitian, before d_0 is pinned (see fit_sectors)."""
    coeffs, squares = _project(rho, n, frame, _square_sum)
    if not math.sqrt(len(rho)) * math.sqrt(squares) <= SECTOR_FIT_TOL:
        return None
    if frame != "Z":
        return _sector_entries(coeffs, n)
    anti = rho[:, ::-1].diagonal().astype(complex, copy=False)
    return rho.diagonal().real.copy(), (anti + anti[::-1].conj()) / 2


def _fit_sectors(rho: np.ndarray, n: int) -> "tuple[np.ndarray, np.ndarray] | None":
    """fit_sectors for a rho that has passed linalg.as_state."""
    for frame in FRAMES:
        if n > 1 and _screen_deviation(rho, n, frame) > _screen_bound(n):
            continue
        if (entries := _fit(rho, n, frame)) is not None:
            return entries
    return None


def fit_sectors(rho: np.ndarray, n: int) -> "tuple[np.ndarray, np.ndarray] | None":
    """Z-frame (diag, anti) of the X state, in any frame, that rho is, else None.

    The frames are tried in the order Z, X, Y, and the first that fits
    gives the entries of rho's projection onto its family: the frames are
    local unitary conjugates of the Z frame.  A frame fits when sqrt(dim)
    ||rho - sigma||_F, for sigma the projection (_project), is within
    SECTOR_FIT_TOL.  That bounds the trace-norm distance to sigma, and so
    the change of any negativity, as the partial transpose keeps the
    Frobenius norm.  sigma is Hermitian with unit trace, so a non-Hermitian
    rho, or one of another trace, fails the bound in every frame.  The Z
    frame's entries are those of the projection before d_0 is pinned, the
    orthogonal one, which lies no farther from rho: read off rho's X
    entries with no transform, so a population keeps its relative
    precision (Yu-Eberly takes square roots of populations), and a
    Hermitian X-shaped rho gives its own bits.
    For n >= 2 one row screens each fit first, in O(2**n): a
    _screen_deviation above _screen_bound means the fit fails, so it is
    skipped.  A Y-frame state typically skips the Z and X projections, and
    input outside every family all three.  rho passes linalg.as_state,
    which rejects the entries a projection could not take; the measures
    of witness, which gate their input themselves, call _fit_sectors.
    """
    return _fit_sectors(as_state(rho, n), n)


def _seed(p: XStateParams) -> np.ndarray:
    """The entries of the parameterized X state's dense matrix that its
    family structure makes, complex, each made once: in the X and Y frames
    the (2, 2, dim) seed of _xor_fill, each entry the one rounding of
    _xor_seed, with + 0.0 making each zero +0.0; in the Z frame 0.0, then
    the diagonal, then the anti-diagonal entries (_x_entries), (2 dim + 1,)."""
    coeffs, n = p.coeffs, p.n
    if p.frame == "Z":
        x = _x_entries(coeffs, n)
        return np.concatenate([[0.0], x[:, 0].real, x[:, 1]])
    terms = _xor_terms(n, p.frame)
    seed = _xor_seed(coeffs, terms, terms.seed)
    seed += 0.0
    return seed


def _fill(seed: np.ndarray, n: int, frame: str) -> np.ndarray:
    """The (dim, dim) matrix of a _seed of the frame, or of any array of its
    shape and any dtype: _xor_fill in the X and Y frames; in the Z frame the
    diagonal and the anti-diagonal placed on np.zeros, whose untouched
    pages stay lazily zeroed, so a Z-frame matrix costs little memory
    until it is read."""
    if frame != "Z":
        return _xor_fill(seed, n)
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=seed.dtype)
    diag, anti = _x_views(m)
    diag[:] = seed[1:dim + 1]
    anti[:] = seed[dim + 1:]
    return m


def materialize(p: XStateParams) -> np.ndarray:
    """The dense density matrix of the parameterized X state: _fill of its
    _seed."""
    return _fill(_seed(p), p.n, p.frame)


def entry_table(p: XStateParams) -> tuple[np.ndarray, np.ndarray]:
    """(table, index): the entries of the parameterized X state's dense
    matrix that its family structure makes, as a complex table, and a
    (dim, dim) integer index into it, with materialize(p) == table[index]
    bitwise: the _seed, flattened, and the _fill of the seed's own
    positions.  In the X and Y frames the table holds 4 * dim entries; in
    the Z frame 2 * dim + 1, and the index is 0, at the table's 0.0, off
    the X.
    """
    seed = _seed(p)
    return seed.ravel(), _fill(np.arange(seed.size).reshape(seed.shape), p.n, p.frame)


def decompose(rho: np.ndarray, n: int, frame: str = "Z") -> tuple[XStateParams, float]:
    """Project onto the frame's X family.

    Returns the recovered parameters, as Python floats, and the max-norm
    residual of rho outside the family, family_residual's value; both come
    from one _project, which in the Z frame reads the coefficients from
    rho's X entries alone, and takes the residual, _peak, from strips of
    rho - sigma with no copy of rho.  d[0] is pinned to 1, so any trace
    deficit shows up in the residual rather than in the parameters.  rho
    passes linalg.as_state, and an unknown frame raises ValueError.
    """
    rho = as_state(rho, n)
    coeffs, residual = _project(rho, n, frame, _peak)
    dim = 1 << n
    return XStateParams(n, coeffs[:dim], coeffs[dim:], frame), float(residual)


def family_residual(rho: np.ndarray, n: int, frame: str = "Z") -> "float | np.ndarray":
    """Max-norm weight of rho outside the frame's X family.

    Accepts a single (dim, dim) matrix, giving a float, or any stack
    (..., dim, dim), giving an array of the stack's shape; each value is
    decompose's residual, from the same _project.  rho passes
    linalg.as_state, and an unknown frame raises ValueError; a residual
    that is not finite raises it too, as a safety check.
    """
    rho = as_state(rho, n, stack=True)
    residual = _project(rho, n, frame, _peak)[1]
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
    diag, anti = _sector_entries(p.coeffs, p.n)
    trace_dev = abs(float(diag.sum()) - 1.0)
    herm_dev = sector_hermiticity_deviation(diag, anti)
    min_eig = float(sector_eigenvalues(diag, anti).min())
    ok = trace_dev <= TRACE_TOL and herm_dev <= HERMITIAN_TOL and min_eig >= VALID_EIG_TOL
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
    require_qubit_count(n, 2)
    popcount = _POPCOUNT[:1 << n]
    even = 1 - popcount % 2
    return XStateParams(n, even, even * (1 - (popcount & 2)), frame)


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
    """Read the state file format, checking only the JSON types here: an
    object with the keys n, frame, d and a, n a JSON integer, d and a arrays
    of JSON numbers.  XStateParams checks the values."""
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    for key in ("n", "frame", "d", "a"):
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
    n = obj["n"]
    if not is_integer(n):
        raise ValueError(f"n must be a JSON integer, got {n!r}")
    for name in ("d", "a"):
        seq = obj[name]
        if not (isinstance(seq, list) and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq)):
            raise ValueError(f"{name!r} must be an array of JSON numbers")
    return XStateParams(n, obj["d"], obj["a"], obj["frame"])
