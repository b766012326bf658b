"""Single-qubit Kraus channels, X-form preservation, and strength sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_state
from .model import (_FACTORS, _SECTOR_FACTORS, XStateParams, _sector_entries,
                    family_residual, materialize)
from .pauli import PAULI_MATRICES
from .witness import (_frame_amplitudes, _sector_value, concurrence, evaluate_witness,
                      make_witness, yu_eberly)

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
        total = sum(k.conj().T @ k for k in ops)
        if not np.max(np.abs(total - np.eye(2))) <= COMPLETENESS_TOL:
            raise ValueError("Kraus operators do not resolve the identity")
        object.__setattr__(self, "kraus", ops)


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
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"channel strength must lie in [0, 1], got {strength}")
    s = float(strength)
    if kind in ("amplitude_damping", "spontaneous_emission"):
        k0 = np.array([[1, 0], [0, np.sqrt(1 - s)]], dtype=complex)
        k1 = np.array([[0, np.sqrt(s)], [0, 0]], dtype=complex)
        return Channel((k0, k1), f"amplitude_damping({s})")
    if kind == "phase_damping":
        k0 = np.sqrt(1 - s) * np.eye(2, dtype=complex)
        k1 = np.sqrt(s) * np.diag([1.0, 0.0]).astype(complex)
        k2 = np.sqrt(s) * np.diag([0.0, 1.0]).astype(complex)
        return Channel((k0, k1, k2), f"phase_damping({s})")
    if kind == "depolarizing":
        k0 = np.sqrt(1 - 3 * s / 4) * PAULI_MATRICES["I"]
        kx, ky, kz = (np.sqrt(s / 4) * PAULI_MATRICES[axis] for axis in "XYZ")
        return Channel((k0, kx, ky, kz), f"depolarizing({s})")
    raise ValueError(f"unknown channel kind {kind!r}")


CHANNEL_KINDS = ("amplitude_damping", "phase_damping", "depolarizing")


def _superoperator(ch: Channel) -> np.ndarray:
    """sum_k K_k (x) K_k^* as a 4x4 matrix on the flattened (row bit, column
    bit) pair.  Each entry is a plain sum of rounded products, so entries
    that are equal in exact arithmetic cancel exactly in _preserves_family."""
    k = np.stack(ch.kraus)
    return (k[:, :, None, :, None] * k.conj()[:, None, :, None, :]).sum(axis=0).reshape(4, 4)


def _checked_qubits(qubits, n: int) -> list[int]:
    qubit_list = list(qubits)
    if not set(qubit_list) <= set(range(1, n + 1)):
        raise ValueError(f"qubit subset must lie in 1..{n}")
    return qubit_list


def apply_channel(rho: np.ndarray, ch: Channel, qubits, n: int) -> np.ndarray:
    """Apply the channel to each listed qubit (1-based) in turn.

    Accepts a single (dim, dim) matrix or any stack (..., dim, dim) and
    returns a new array.  The Kraus sum acts on one qubit's (row bit,
    column bit) pair as the 4x4 superoperator sum_k K_k (x) K_k^*,
    contracted with that axis pair of the state, so each qubit costs
    O(16 * 4^n) whatever the number of Kraus operators.
    """
    rho = as_state(rho, n, stack=True)
    qubit_list = _checked_qubits(qubits, n)
    if not qubit_list:
        return rho.copy()
    superop = _superoperator(ch)
    shape = rho.shape
    for q in qubit_list:
        pre, post = 1 << (q - 1), 1 << (n - q)
        # (row bit, column bit, batch, row pre, row post, column pre, column post)
        t = rho.reshape(-1, pre, 2, post, pre, 2, post).transpose(2, 5, 0, 1, 3, 4, 6)
        out = (superop @ t.reshape(4, -1)).reshape(t.shape)
        rho = out.transpose(2, 3, 0, 4, 5, 1, 6)
    return rho.reshape(shape)


def _frame_bases(frame: str) -> tuple[np.ndarray, np.ndarray]:
    """Two per-qubit bases of the frame's 2x2 matrices, as rows of flattened
    matrices: its family factors (I, F(Z), F(X), F(Y)), and the images
    F(|0><0|), F(|1><1|), F(|0><1|), F(|1><0|) of the matrix units, which
    the Z-frame sector table gives as (I +- F(Z))/2 and (F(X) +- i F(Y))/2."""
    factors = _FACTORS[frame][0][1]                  # (half, factor bit, vec)
    units = np.einsum("hcr,hcv->hrv", _SECTOR_FACTORS[1].conj(), factors) / 2
    return factors.reshape(4, 4), units.reshape(4, 4)


def _preserves_family(superop: np.ndarray, factors: np.ndarray) -> bool:
    """Whether the channel maps span{I, F(Z)} and span{F(X), F(Y)} into
    themselves, and so every X state of the frame to another: both
    off-diagonal 2x2 blocks of its frame-conjugated Pauli transfer matrix
    T[j, i] = tr(B_j^dag E(B_i)) / 2 are exactly zero."""
    t = factors.conj() @ superop @ factors.T / 2
    return not (t[:2, 2:].any() or t[2:, :2].any())


def _sector_step(entries, superop: np.ndarray, units: np.ndarray, qubits,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Z-frame sector entries (diag, anti) after a family-preserving channel
    on each listed qubit in turn, O(2**n) per qubit.

    In the matrix-unit basis the channel acts on qubit q's basis bit of
    diag by its 2x2 population block and on that of anti by its 2x2
    coherence block.  In the Z frame these are entries of the superoperator
    itself, so a population or coherence the channel cannot reach stays
    exactly 0, as in the dense matrix.
    """
    r = units.conj() @ superop @ units.T
    diag, anti = entries
    for q in qubits:
        diag = (r[:2, :2].real @ diag.reshape(1 << (q - 1), 2, -1)).reshape(-1)
        anti = (r[2:, 2:] @ anti.reshape(1 << (q - 1), 2, -1)).reshape(-1)
    return diag, anti


def x_form_residual(rho: np.ndarray, frame: str, n: int) -> "float | np.ndarray":
    """Max-norm weight of rho outside the frame's X family."""
    return family_residual(rho, n, frame)


def strength_grid(start: float, stop: float, count: int) -> tuple[float, ...]:
    """Inclusive uniform grid with ``count`` points."""
    if count < 2:
        raise ValueError("grid needs at least two points")
    if not stop > start:
        raise ValueError("grid must be strictly increasing")
    return tuple(float(x) for x in np.linspace(start, stop, count))


@dataclass(frozen=True)
class Trajectory:
    """Per-strength records of a channel sweep from a fixed initial state."""

    strengths: tuple[float, ...]
    concurrence: tuple[float, ...] | None
    witness: tuple[float, ...] | None
    x_residual: tuple[float, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.strengths, self.strengths[1:])):
            raise ValueError("strength grid must be strictly increasing")
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

    At a strength where the channel preserves the frame's family
    (_preserves_family), the point is computed from the state's Z-frame
    sector entries in O(n * 2**n): concurrence by yu_eberly, the witness
    value by the parameter route of evaluate_witness, and the residual is
    exactly 0.0.  Other points apply the channel to the dense state.
    """
    n, frame = p0.n, p0.frame
    if witness_kind is None and n != 2:
        raise ValueError("concurrence records require a two-qubit state; "
                         "pass a witness kind instead")
    qubit_list = _checked_qubits(qubits, n)
    w = make_witness(witness_kind, n) if witness_kind is not None else None
    factors, units = _frame_bases(frame)
    entries0 = _sector_entries(np.concatenate([p0.d, p0.a]), n)
    phi = rho0 = None  # each built on first use
    strengths = tuple(float(s) for s in grid)
    records = []
    residuals = []
    for s in strengths:
        ch = standard_channel(kind, s)
        superop = _superoperator(ch)
        if _preserves_family(superop, factors):
            diag, anti = _sector_step(entries0, superop, units, qubit_list, n)
            if w is None:
                records.append(yu_eberly(diag, anti))
            else:
                phi = _frame_amplitudes(w.psi, frame) if phi is None else phi
                records.append(_sector_value(w, phi, diag, anti))
            residuals.append(0.0)
            continue
        if rho0 is None:
            rho0 = materialize(p0)
        rho = apply_channel(rho0, ch, qubit_list, n)
        records.append(concurrence(rho) if w is None else evaluate_witness(w, rho)[0])
        residuals.append(float(x_form_residual(rho, frame, n)))
    return Trajectory(
        strengths,
        tuple(records) if w is None else None,
        tuple(records) if w is not None else None,
        tuple(residuals),
    )
