"""Single-qubit Kraus channels, X-form preservation, and strength sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_state
from .model import XStateParams, family_residual, materialize
from .pauli import PAULI_MATRICES
from .witness import concurrence, evaluate_witness, make_witness

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


def apply_channel(rho: np.ndarray, ch: Channel, qubits, n: int) -> np.ndarray:
    """Apply the channel to each listed qubit (1-based) in turn.

    Accepts a single (dim, dim) matrix or any stack (..., dim, dim).  The
    Kraus sum acts on one qubit's (row bit, column bit) pair as the 4x4
    superoperator sum_k K_k (x) K_k^*, contracted with that axis pair of the
    state, so each qubit costs O(16 * 4^n) whatever the number of Kraus
    operators.
    """
    rho = as_state(rho, n, stack=True)
    qubit_list = list(qubits)
    if not set(qubit_list) <= set(range(1, n + 1)):
        raise ValueError(f"qubit subset must lie in 1..{n}")
    kraus = np.stack(ch.kraus)
    superop = np.einsum("kab,kcd->acbd", kraus, kraus.conj()).reshape(4, 4)
    shape = rho.shape
    for q in qubit_list:
        pre, post = 1 << (q - 1), 1 << (n - q)
        # (row bit, column bit, batch, row pre, row post, column pre, column post)
        t = rho.reshape(-1, pre, 2, post, pre, 2, post).transpose(2, 5, 0, 1, 3, 4, 6)
        out = (superop @ t.reshape(4, -1)).reshape(t.shape)
        rho = out.transpose(2, 3, 0, 4, 5, 1, 6)
    return rho.reshape(shape)


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
    """
    if witness_kind is None and p0.n != 2:
        raise ValueError("concurrence records require a two-qubit state; "
                         "pass a witness kind instead")
    rho0 = materialize(p0)
    w = make_witness(witness_kind, p0.n) if witness_kind is not None else None
    qubit_list = list(qubits)
    strengths = tuple(float(s) for s in grid)
    conc_records = [] if w is None else None
    wit_records = [] if w is not None else None
    residuals = []
    for s in strengths:
        rho = apply_channel(rho0, standard_channel(kind, s), qubit_list, p0.n)
        if w is None:
            conc_records.append(concurrence(rho))
        else:
            wit_records.append(evaluate_witness(w, rho)[0])
        residuals.append(float(x_form_residual(rho, p0.frame, p0.n)))
    return Trajectory(
        strengths,
        tuple(conc_records) if conc_records is not None else None,
        tuple(wit_records) if wit_records is not None else None,
        tuple(residuals),
    )
