"""Single-qubit Kraus channels, X-form preservation, and strength sweeps."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import _STRIP_BYTES, _checked_qubits, _real_value, as_state
from .model import (_BLOCK, XStateParams, _frame_factors, _kron, _peak, _powers,
                    _sector_entries, _xor_table, _xor_terms)
# bound here too, though unused: perfbench's tracer wraps every binding of it
from .model import materialize  # noqa: F401
from .pauli import FRAMES, PAULI_MATRICES, is_integer
from .witness import (Witness, _frame_amplitudes, _sector_value, concurrence, make_witness,
                      yu_eberly)

COMPLETENESS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Channel:
    """A trace-preserving single-qubit map given by its Kraus operators."""

    kraus: tuple[np.ndarray, ...]
    label: str

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops or any(k.shape != (2, 2) for k in ops):
            raise ValueError("Kraus operators must be 2x2 matrices")
        _check_completeness(np.stack(ops))
        object.__setattr__(self, "kraus", ops)


def _check_completeness(kraus: np.ndarray) -> None:
    """Raise unless every channel of the Kraus stack (..., K, 2, 2) resolves
    the identity, sum_k K_k^dag K_k = I, to COMPLETENESS_TOL."""
    total = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=-3)
    if not np.max(np.abs(total - np.eye(2)), initial=0.0) <= COMPLETENESS_TOL:
        raise ValueError("Kraus operators do not resolve the identity")


def _check_strengths(strengths) -> None:
    for s in strengths:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"channel strength must lie in [0, 1], got {s}")


def _check_increasing(strengths) -> None:
    if any(not b > a for a, b in zip(strengths, strengths[1:])):  # NaN fails too
        raise ValueError("strength grid must be strictly increasing")


def _kind_name(kind: str) -> str:
    """The channel kind's own name: "spontaneous_emission" is an alias of
    amplitude_damping.  Any other str is passed on as it is, and any other
    kind raises ValueError."""
    if not isinstance(kind, str):
        raise ValueError(f"unknown channel kind {kind!r}")
    return "amplitude_damping" if kind == "spontaneous_emission" else kind


def _kraus_stack(kind: str, strengths: np.ndarray) -> np.ndarray:
    """The (G, K, 2, 2) Kraus operators of the named channel at G strengths
    in [0, 1]; see standard_channel for the formulas."""
    s = np.asarray(strengths, dtype=float)[:, None, None]
    if kind == "amplitude_damping":
        ops = (np.sqrt(1 - s) * np.diag([0.0, 1.0]) + np.diag([1.0, 0.0]),
               np.sqrt(s) * np.array([[0.0, 1.0], [0.0, 0.0]]))
    elif kind == "phase_damping":
        ops = (np.sqrt(1 - s) * np.eye(2),
               np.sqrt(s) * np.diag([1.0, 0.0]), np.sqrt(s) * np.diag([0.0, 1.0]))
    elif kind == "depolarizing":
        ops = (np.sqrt(1 - 3 * s / 4) * PAULI_MATRICES["I"],
               *(np.sqrt(s / 4) * PAULI_MATRICES[axis] for axis in "XYZ"))
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    return np.stack(ops, axis=1).astype(complex, copy=False)


def standard_channel(kind: str, strength: float) -> Channel:
    """The named single-qubit channel at the given strength in [0, 1].

    amplitude_damping (gamma): |1> decays to |0> with probability gamma;
        K0 = diag(1, sqrt(1-gamma)), K1 = sqrt(gamma) |0><1|.
        "spontaneous_emission" is accepted as an alias.
    phase_damping (lambda): coherence loss without population transfer,
        in the three-operator form sqrt(1-lambda) I, sqrt(lambda) diag(1,0),
        sqrt(lambda) diag(0,1).
    depolarizing (p): the state is replaced by I/2 with probability p,
        via Pauli Kraus operators with weights 1-3p/4 and p/4.
    """
    _check_strengths((strength,))
    s = float(strength)
    name = _kind_name(kind)
    return Channel(tuple(_kraus_stack(name, [s])[0]), f"{name}({s})")


CHANNEL_KINDS = ("amplitude_damping", "phase_damping", "depolarizing")


def _superoperator(k: np.ndarray) -> np.ndarray:
    """sum_k K_k (x) K_k^* as a 4x4 matrix on the flattened (row bit, column
    bit) pair, of each channel of a Kraus stack (..., K, 2, 2).  Each entry
    is a plain sum of rounded products, so entries that are equal in exact
    arithmetic cancel exactly in _preserves_family."""
    prod = k[..., :, None, :, None] * k.conj()[..., None, :, None, :]
    return prod.sum(axis=-5).reshape(*k.shape[:-3], 4, 4)


def apply_channel(rho: np.ndarray, ch: Channel, qubits, n: int) -> np.ndarray:
    """Apply the channel to each listed qubit (1-based) in turn.

    Accepts a single (dim, dim) matrix or any stack (..., dim, dim) and
    returns a new array.  The Kraus sum acts on one qubit's (row bit,
    column bit) pair as the 4x4 superoperator sum_k K_k (x) K_k^*,
    contracted with that axis pair of the state, so each qubit costs
    O(16 * 4^n) whatever the number of Kraus operators.
    """
    rho = as_state(rho, n, stack=True)
    return _contract(rho, _superoperator(np.stack(ch.kraus)), _checked_qubits(qubits, n), n)


def _contract(rho: np.ndarray, superop: np.ndarray, qubits: list[int], n: int) -> np.ndarray:
    """apply_channel's loop: the 4x4 superoperator on each listed qubit's
    (row bit, column bit) pair of rho (..., dim, dim), as a new array."""
    if not qubits:
        return rho.copy()
    shape = rho.shape
    for q in qubits:
        pre, post = 1 << (q - 1), 1 << (n - q)
        # (row bit, column bit, batch, row pre, row post, column pre, column post)
        t = rho.reshape(-1, pre, 2, post, pre, 2, post).transpose(2, 5, 0, 1, 3, 4, 6)
        out = (superop @ t.reshape(4, -1)).reshape(t.shape)
        rho = out.transpose(2, 3, 0, 4, 5, 1, 6)
    return rho.reshape(shape)


# The matrix units |0><0|, |1><1|, |0><1|, |1><0| in the basis I, Z, X, Y:
# (I +- Z)/2 and (X +- i Y)/2.
_UNITS = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1j], [0, 0, 1, -1j]]) / 2


def _frame_bases(frame: str) -> tuple[np.ndarray, np.ndarray]:
    """Two per-qubit bases of the frame's 2x2 matrices, as rows of flattened
    matrices: its family factors (I, F(Z), F(X), F(Y)), and the images
    F(|0><0|), F(|1><1|), F(|0><1|), F(|1><0|) of the matrix units, the
    same change of basis (_UNITS) applied to the factors."""
    factors = _frame_factors(FRAMES[frame]).reshape(4, 4)
    return factors, _UNITS @ factors


def _preserves_family(superop: np.ndarray, factors: np.ndarray) -> "bool | np.ndarray":
    """Whether the channel maps span{I, F(Z)} and span{F(X), F(Y)} into
    themselves, and so every X state of the frame to another: both
    off-diagonal 2x2 blocks of its frame-conjugated Pauli transfer matrix
    T[j, i] = tr(B_j^dag E(B_i)) / 2 are exactly zero.  One answer for a
    4x4 superoperator, one per channel for a stack (..., 4, 4)."""
    t = factors.conj() @ superop @ factors.T / 2
    return ~(t[..., :2, 2:].any(axis=(-2, -1)) | t[..., 2:, :2].any(axis=(-2, -1)))


def _sector_step(entries, tables) -> tuple[np.ndarray, np.ndarray]:
    """Z-frame sector entries (diag, anti), two arrays (2**n,), after a
    family-preserving channel on listed qubits at P strengths, as arrays
    (P, 2**n): tables holds _sweep_tables' population and coherence tables,
    one (P, 2**g, 2**g) per block of g qubits, qubit 1's block first.

    The basis index has qubit 1's bit on top.  Each block's table maps the
    top g bits of the index and the matmul moves their image to the bottom,
    so the bits rotate one block at a time and are back in place after the
    last block: one batched matmul (P, 2**n / 2**g, 2**g) @ (P, 2**g, 2**g)
    per block and half, with each table stored transposed.  In the Z frame
    the 2x2 blocks are entries of the superoperator itself, and a table
    entry is a product of them, so a population or coherence the channel
    cannot reach stays exactly 0, as in the dense matrix.
    """
    dim = entries[0].shape[-1]
    stepped = []
    for t, half in zip(entries, tables):
        for table in half:
            k = table.shape[-1]
            t = (t.reshape(-1, k, dim // k).swapaxes(1, 2) @ table).reshape(len(table), dim)
        stepped.append(t)
    return stepped[0], stepped[1]


# The entries each sweep cache keeps: a decoherence study scans many initial
# states over a few channels, grids and qubit lists.
_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _channel_family(kind: str, grid: bytes, frame: str
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The named channel at each of G strengths, given as their float64
    bits (ndarray.tobytes), seen from the frame: its (G, 4, 4)
    superoperators, the (G,) mask of strengths where it preserves the
    frame's family (_preserves_family), and the (P, 2, 2) population and
    coherence blocks at the P preserving strengths, the factors of
    _sweep_tables' step tables.  An entry is O(G).

    The grid is checked first (strengths in [0, 1], strictly increasing),
    then the kind, and the Kraus operators are built and checked for
    completeness once, as one (G, K, 2, 2) stack.  Keyed on the grid's bits,
    so -0.0 and 0.0 are two entries; a bad grid or kind, or an incomplete
    stack, raises and is not cached.  The arrays are read-only.
    """
    strengths = np.frombuffer(grid).tolist()
    _check_strengths(strengths)
    _check_increasing(strengths)
    kraus = _kraus_stack(kind, strengths)
    _check_completeness(kraus)
    superops = _superoperator(kraus)
    factors, units = _frame_bases(frame)
    preserving = _preserves_family(superops, factors)
    r = units.conj() @ superops[preserving] @ units.T
    family = superops, preserving, r[..., :2, :2].real, r[..., 2:, 2:]
    for a in family:
        a.setflags(write=False)
    return family


def _xor_tables(superops: np.ndarray, frame: str, counts) -> tuple[np.ndarray, np.ndarray]:
    """The XOR tables of the points E(rho0) of a state of the frame on
    n = len(counts) qubits, E each channel of the stack superops (G, 4, 4)
    on qubit q listed counts[q - 1] times: (qubit, G, half, r, s) of each
    qubit's mapped factors S^k F (model._xor_table), k its count (_powers),
    and the unmapped tables (G, half, r, s).  A channel's image S^k F keeps
    F's shape, as the three channels are phase-covariant, so one of each
    half's two mapped factors keeps the basis bit and one flips it.  With
    the state's coefficients c (half, s) times 2**-n, E(rho0)[r, r ^ s] =
    sum_h c[h, s] prod_q mapped[q, :, h, r_q, s_q]."""
    count = len(superops)
    mapped = _powers(superops, np.broadcast_to(_frame_bases(frame)[0].T, (count, 4, 4)),
                     [0, *counts])
    # each column of f is one vec(S^k F): (G, row, column, half, bit)
    tables = {k: _xor_table(f.reshape(count, 2, 2, 2, 2).transpose(0, 3, 4, 1, 2))
              for k, f in mapped.items()}
    return np.stack([tables[k] for k in counts]), tables[0]


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _sweep_tables(kind: str, grid: bytes, frame: str, counts: tuple[int, ...]
                  ) -> tuple[np.ndarray, tuple, "np.ndarray | None", "np.ndarray | None"]:
    """What a sweep reads of the channel family of (kind, grid, frame) on
    n = len(counts) qubits, qubit q listed counts[q - 1] times, read-only:
    the family's (G,) preserving mask, the step tables of _sector_step at
    the P preserving strengths, and the mapped and unmapped _xor_tables of
    the dense points at the others, or None twice when there are none.  The
    family (_channel_family) checks the grid and the kind first.

    Per half and per block of up to model._BLOCK qubits, qubit 1's block
    first, the step tables hold one (P, 2**g, 2**g) table: _kron over the
    block's qubits of the k-th power (_powers) of the family's 2x2
    population or coherence block, k the qubit's count (the identity for an
    unlisted qubit), stored transposed.  An entry holds P * sum_blocks 4**g
    of them, 24 bytes per pair (6 KiB per strength at n = 4, 12 KiB at
    n = 8, 18 KiB at n = 12), and 8 (n + 1) complex XOR table entries per
    dense strength.
    """
    superops, preserving, pop, coh = _channel_family(kind, grid, frame)
    steps = []
    for blocks in (pop, coh):
        powers = _powers(blocks, np.broadcast_to(np.eye(2, dtype=blocks.dtype), blocks.shape),
                         counts)
        factors = [powers[k].swapaxes(-1, -2) for k in counts]
        steps.append(tuple(_kron(factors[q:q + _BLOCK]) for q in range(0, len(counts), _BLOCK)))
    # most families have no dense strength, and empty tables still cost a
    # cold entry 30-50 us of numpy calls
    dense = ~preserving
    mapped, unmapped = _xor_tables(superops[dense], frame, counts) if dense.any() else (None, None)
    for a in (*steps[0], *steps[1], *(() if mapped is None else (mapped, unmapped))):
        a.setflags(write=False)
    return preserving, (steps[0], steps[1]), mapped, unmapped


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _sweep_witness(kind: str, n: int, frame: str) -> tuple[Witness, np.ndarray]:
    """make_witness(kind, n) and its amplitudes in the frame
    (witness._frame_amplitudes), made once per (kind, n, frame) in a
    process and read-only; sweep reads them and returns neither.  An entry
    holds 2 * 2**n complex amplitudes."""
    w = make_witness(kind, n)
    phi = _frame_amplitudes(w.psi, frame)
    for a in (w.psi.amplitudes, phi):
        a.setflags(write=False)
    return w, phi


def _factor_points(p0: XStateParams, m: np.ndarray, unmapped: np.ndarray,
                   w: "Witness | None") -> tuple[np.ndarray, np.ndarray]:
    """(records, residuals) of the dense points E(rho0) of an X- or Y-frame
    state of n >= 2 qubits, read from their mapped and unmapped XOR tables
    (_xor_tables): no (dim, dim) array for n >= 3.

    E maps the factors of a qubit listed k times to S^k F, and keeps the XOR
    structure of the frame (model._xor_terms): half h's operator of mask s
    has one term, of coefficient c_h(s), so E(rho0)[r, r ^ s] = 2**-n sum_h
    c_h(s) prod_q m_hq[r_q, s_q], m_hq the table (model._xor_table) of qubit
    q's mapped factors.  Its family coefficients are coef_h(s) = sum_h'
    c_h'(s) prod_q tau_q[h, h', s_q], tau_q = tr(F_h^dag M_h') / 2 per flip,
    with d_0 pinned to 1 as in model._project, and the projection sigma has
    the same form with the unmapped tables.  So with the qubits split into a
    top half and the rest, rho - sigma at a fixed top mask, a slab, is a sum
    of four rank-one terms: the top half's (mapped or unmapped) Kronecker
    table at that mask times the low half's, weighted per full mask; one
    matmul (top rows, 4) @ (4, low rows * low masks).  The residual is the
    peak over the slabs, measured a strip at a time, each strip within
    linalg._STRIP_BYTES with its right-hand operand: several points' slabs
    share a strip at small n, and at large n a strip is rows of one slab.
    The witness value is alpha tr rho - psi^dag rho psi, from the s = 0
    masks' sum and the |supp psi|**2 entries rho[i, j], each a product of
    n table entries; Wootters' concurrence at n = 2 takes the 4x4 of the
    same entries.
    """
    n, count, dim = p0.n, m.shape[1], 1 << p0.n
    c = p0.coeffs.take(_xor_terms(n, p0.frame).index) / dim

    # per qubit the four terms' tables, the mapped halves then the unmapped
    # ones, and their Kronecker tables (G, term, r, s) over the top half of
    # the qubits and over the rest
    top = n // 2
    dh, dl = 1 << top, 1 << (n - top)
    m4 = np.concatenate([m, np.broadcast_to(unmapped, m.shape)], axis=2)
    high, low = _kron(m4[:top]), _kron(m4[top:])

    # prod_q tau_q[h, h', s_q], over each half the sum over its rows of
    # unmapped conj(F_h) times mapped M_h' over its dimension, and coef
    # (G, half, s) times 2**-n, as c is; real, as rho is Hermitian
    tau_high, tau_low = (np.einsum("ghrs,gjrs->ghjs", t[:, 2:].conj(), t[:, :2]) / t.shape[-1]
                         for t in (high, low))
    tau = (tau_high[..., :, None] * tau_low[..., None, :]).reshape(count, 2, 2, dim)
    coef = (tau * c).sum(axis=2).real
    coef[:, 0, 0] = 1.0 / dim

    # a slab's rows (s_top, r_top) of its terms, and its terms' weights
    # times the low tables, the operand; c for the mapped, -coef the unmapped
    left = high.transpose(0, 3, 2, 1).copy()                          # (G, s_top, r_top, 4)
    right = low[:, None]                                              # (G, 1, 4, r_low, s_low)
    weights = np.concatenate([np.broadcast_to(c, coef.shape), -coef], axis=1)
    weights = weights.reshape(count, 4, dh, 1, dl).swapaxes(1, 2).copy()  # (G, s_top, 4, 1, s_low)

    # a strip: rows of slabs, each slab's 4-row operand beside them, in
    # buffers made once, all within _STRIP_BYTES; powers of two divide dh
    fit = _STRIP_BYTES // (16 * dl * dl)     # complex rows of a strip, >= 8 for n <= 12
    rows = min(dh, 1 << ((fit - 4).bit_length() - 1))
    slabs = fit // (rows + 4)
    per, points = min(dh, 1 << (slabs.bit_length() - 1)), max(1, slabs // dh)
    operand = np.empty((points, per, 4, dl, dl), complex)
    part = np.empty((points, per, rows, dl * dl), complex)
    residuals = np.zeros(count)
    for g in range(0, count, points):
        at = slice(g, g + points)
        k = min(points, count - g)
        for s in range(0, dh, per):
            np.multiply(weights[at, s:s + per], right[at], out=operand[:k])
            for r in range(0, dh, rows):
                np.matmul(left[at, s:s + per, r:r + rows],
                          operand[:k].reshape(k, per, 4, dl * dl), out=part[:k])
                residuals[at] = np.maximum(residuals[at], _peak(part[:k]))

    # rho[i, j] (P, P, G) over the support of the witness state, or all of
    # the 4x4 at n = 2, each a product of n table entries
    support = np.arange(dim) if w is None else w.psi.amplitudes.nonzero()[0]
    i, s = support[:, None], support[:, None] ^ support
    bits = np.arange(n - 1, -1, -1)
    rho = m[np.arange(n), :, :, i[..., None] >> bits & 1, s[..., None] >> bits & 1]
    rho = (rho.prod(axis=2) * c.T[s, None]).sum(axis=-1)
    if w is None:       # Wootters' formula
        return np.array([concurrence(r) for r in rho.transpose(2, 0, 1)]), residuals
    phi = w.psi.amplitudes[support]
    overlap = phi.conj() @ (rho * phi[None, :, None]).sum(axis=1)
    trace = (m[..., 0].sum(axis=-1).prod(axis=0) * c[:, 0]).sum(axis=-1)    # the s = 0 column
    return _real_value(w.alpha * trace - overlap), residuals


def strength_grid(start: float, stop: float, count: int) -> tuple[float, ...]:
    """Inclusive uniform grid with ``count`` points, an integer of at least 2."""
    if not is_integer(count) or count < 2:
        raise ValueError(f"grid needs an integer count of at least two points, got {count!r}")
    if not stop > start:
        raise ValueError("grid must be strictly increasing")
    return tuple(np.linspace(start, stop, count).tolist())


@dataclass(frozen=True)
class Trajectory:
    """Per-strength records of a channel sweep from a fixed initial state."""

    strengths: tuple[float, ...]
    concurrence: tuple[float, ...] | None
    witness: tuple[float, ...] | None
    x_residual: tuple[float, ...]

    def __post_init__(self):
        _check_increasing(self.strengths)
        for name in ("concurrence", "witness", "x_residual"):
            seq = getattr(self, name)
            if seq is not None and len(seq) != len(self.strengths):
                raise ValueError(f"{name} records must align with the grid")

    def to_csv(self) -> str:
        lines = ["strength,concurrence,witness,x_residual"]
        for i, s in enumerate(self.strengths):
            conc = repr(self.concurrence[i]) if self.concurrence is not None else ""
            wit = repr(self.witness[i]) if self.witness is not None else ""
            lines.append(f"{s!r},{conc},{wit},{self.x_residual[i]!r}")
        return "\n".join(lines) + "\n"


def sweep(p0: XStateParams, kind: str, qubits, grid,
          witness_kind: str | None = None) -> Trajectory:
    """Apply the channel at each grid strength to the initial state.

    Records concurrence when no witness kind is given (two qubits only) or
    the chosen witness expectation otherwise, plus the X-form residual in
    the initial state's frame.  Each grid point starts from the initial
    state; strengths do not accumulate.

    The qubits are checked on every call, before any other work, then the
    grid (strengths in [0, 1], strictly increasing) and the kind by
    _channel_family before it builds anything, then the witness kind; none
    of them is cached when it fails.  Everything the sweep reads apart from
    the state comes from three bounded, read-only caches, the alias
    spontaneous_emission keyed as amplitude_damping: the channel family
    (superoperators, the mask of strengths where the channel preserves the
    frame's family, and those strengths' population and coherence blocks)
    once per (kind, grid, frame); the tables of _sweep_tables once per
    (kind, grid, frame, times each qubit is listed); and the witness with
    its amplitudes in the frame once per (witness kind, n, frame)
    (_sweep_witness).  The preserving strengths are stepped together from
    the state's Z-frame sector entries by _sector_step: one batched matmul
    per half and per block of up to four qubits, with the Kronecker tables
    of those blocks.  Their records are concurrence by yu_eberly or the
    witness value by the parameter route of evaluate_witness, and the
    residual is exactly 0.0.  The other strengths (amplitude damping off
    the Z frame) are the dense points, read together by _factor_points from
    their per-qubit XOR tables: the residual max |rho - sigma| from
    rank-four slabs a strip at a time, the witness value from the trace and
    the |supp psi|**2 entries the witness meets, Wootters' concurrence from
    the 4x4 at n = 2.  For n >= 3 no (dim, dim) array is built, neither the
    initial state nor any point.

    A kind that is not a str fails before the grid's range and order are
    checked and before any cache sees it (_kind_name).
    """
    n, frame = p0.n, p0.frame
    if witness_kind is None and n != 2:
        raise ValueError("concurrence records require a two-qubit state; "
                         "pass a witness kind instead")
    counts = tuple(map(_checked_qubits(qubits, n).count, range(1, n + 1)))
    strengths = tuple(float(s) for s in grid)
    preserving, steps, mapped, unmapped = _sweep_tables(
        _kind_name(kind), np.asarray(strengths, dtype=float).tobytes(), frame, counts)
    w, phi = _sweep_witness(witness_kind, n, frame) if witness_kind is not None else (None, None)
    values = np.empty(len(strengths))
    residuals = np.zeros(len(strengths))
    if preserving.any():
        diag, anti = _sector_step(_sector_entries(p0.coeffs, n), steps)
        values[preserving] = (yu_eberly(diag, anti) if w is None else
                              _sector_value(w, phi, diag, anti))
    dense = ~preserving
    if dense.any():
        values[dense], residuals[dense] = _factor_points(p0, mapped, unmapped, w)
    records = tuple(values.tolist())
    return Trajectory(strengths, records if w is None else None,
                      records if w is not None else None, tuple(residuals.tolist()))
