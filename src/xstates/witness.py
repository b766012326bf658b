"""Reference pure states, entanglement witnesses, and bipartite measures."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from math import comb, isfinite, sqrt
from numbers import Real

import numpy as np

from .linalg import (TRACE_TOL, _checked_qubits, _real_value, _strip_rows, as_state,
                     hermitian_eigen, hermitian_eigenvalues, partial_transpose, sector_eigenvalues)
from .model import XStateParams, _fit_sectors, _sector_entries
from .pauli import FRAMES, PAULI_MATRICES, is_integer, require_frame, require_qubit_count

DETECTION_TOL = -1e-10
NORMALIZATION_TOL = 1e-12      # largest | ||amplitudes|| - 1 | of a PureState


@dataclass(frozen=True, eq=False)
class PureState:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        require_qubit_count(self.n)
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (1 << self.n,):
            raise ValueError(f"amplitude vector must have length {1 << self.n}")
        if not abs(np.linalg.norm(amp) - 1.0) <= NORMALIZATION_TOL:
            raise ValueError("amplitudes must be normalized")
        object.__setattr__(self, "amplitudes", amp)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class Witness:
    """The fidelity witness alpha * I - |psi><psi|, Hermitian by construction."""

    alpha: float
    psi: PureState
    label: str = field(default="witness")

    def __post_init__(self):
        if not (isinstance(self.alpha, Real) and isfinite(self.alpha)):
            raise ValueError(f"witness alpha must be a finite real, got {self.alpha!r}")


def dicke_state(n: int, k: int) -> PureState:
    """Equal superposition of all basis states with exactly k excitations."""
    require_qubit_count(n)
    if not is_integer(k) or not 0 <= k <= n:
        raise ValueError(f"excitation count must be in 0..{n}")
    amp = np.zeros(1 << n, dtype=complex)
    norm = 1.0 / sqrt(comb(n, k))
    for positions in combinations(range(n), k):
        b = sum(1 << p for p in positions)
        amp[b] = norm
    return PureState(n, amp)


_BASIS_PAIR = {
    "Z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    "X": (np.array([1, 1], dtype=complex) / sqrt(2),
          np.array([1, -1], dtype=complex) / sqrt(2)),
    "Y": (np.array([1, 1j], dtype=complex) / sqrt(2),
          np.array([1, -1j], dtype=complex) / sqrt(2)),
}


def ghz_state(n: int, frame: str = "Z") -> PureState:
    """(|u..u> + |v..v>)/sqrt(2) for the +1/-1 eigenbasis of the frame axis."""
    require_qubit_count(n, 2)
    require_frame(frame)
    up, down = _BASIS_PAIR[frame]
    plus, minus = (reduce(np.multiply.outer, (v,) * n).ravel() for v in (up, down))
    return PureState(n, (plus + minus) / sqrt(2))


def make_witness(kind: str, n: int) -> Witness:
    """Fidelity witnesses alpha*I - |psi><psi| for the bundled target states."""
    if kind == "w_type":
        if n != 3:
            raise ValueError("w_type witness is defined for n=3")
        return Witness(2.0 / 3.0, dicke_state(3, 1), "w_type_3")
    if kind == "dicke_2_4":
        if n != 4:
            raise ValueError("dicke_2_4 witness is defined for n=4")
        return Witness(2.0 / 3.0, dicke_state(4, 2), "dicke_2_4")
    if kind == "ghz_type":  # ghz_state rejects n < 2
        return Witness(0.5, ghz_state(n, "Z"), f"ghz_type_{n}")
    raise ValueError(f"unknown witness kind {kind!r}")


# U_F^dag of each frame, made once (the unitary costs an eigh), read-only
_FRAME_ADJOINTS = {name: frame.unitary().conj().T for name, frame in FRAMES.items()}
for _u_dag in _FRAME_ADJOINTS.values():
    _u_dag.setflags(write=False)


def _frame_amplitudes(psi: PureState, frame: str) -> np.ndarray:
    """phi = (U_F^dag)^(x)n psi, U_F^dag from _FRAME_ADJOINTS."""
    u_dag = _FRAME_ADJOINTS[frame]
    phi = psi.amplitudes
    for q in range(psi.n):
        phi = u_dag @ phi.reshape(1 << q, 2, -1)
    return phi.reshape(-1)


def _sector_value(w: Witness, phi: np.ndarray, diag: np.ndarray,
                  anti: np.ndarray) -> np.ndarray:
    """tr(W rho) = alpha tr rho - <phi|rho_Z|phi> for rho = U_F^(x)n rho_Z U_F^dag^(x)n,
    from the sector entries diag[b] = rho_Z[b, b] and anti[b] = rho_Z[b, ~b]
    on the trailing axis: one value, or one per state of a stack (..., 2**n).
    Each overlap is one vector-vector product, as for a single state."""
    overlap = (phi.conj() @ (diag * phi + anti * phi[::-1])[..., None])[..., 0]
    return _real_value(w.alpha * diag.sum(axis=-1) - overlap)


def _overlap(rho: np.ndarray, psi: np.ndarray) -> complex:
    """psi^dag rho psi from the entries of rho on the support S of psi
    alone, rho[S, S], gathered a strip of rows at a time.  The strips are
    linalg._strip_rows of the |S| x |S| block as complex entries, the
    dtype of its product with psi, to which a real strip is converted."""
    support = psi.nonzero()[0]
    phi = psi[support]
    step = _strip_rows(len(support), len(support) ** 2 * phi.itemsize)
    total = 0.0
    for i in range(0, len(support), step):
        total += np.vdot(phi[i:i + step], rho[support[i:i + step, None], support] @ phi)
    return total


def evaluate_witness(w: Witness, state: "np.ndarray | XStateParams") -> tuple[float, bool]:
    """Expectation of the witness; detection means a strictly negative value.
    X-state parameters take their Z-frame sector entries, in O(n * 2**n); a
    dense rho passing linalg.as_state takes alpha tr rho - psi^dag rho psi,
    which reads only the trace and the |supp psi|**2 entries of rho that
    psi meets (_overlap): four of a GHZ witness's."""
    n = w.psi.n
    if isinstance(state, XStateParams):
        if state.n != n:
            raise ValueError(f"{n}-qubit witness given a {state.n}-qubit state")
        diag, anti = _sector_entries(state.coeffs, n)
        value = float(_sector_value(w, _frame_amplitudes(w.psi, state.frame), diag, anti))
    else:
        rho = as_state(state, n)
        value = float(_real_value(w.alpha * rho.trace() - _overlap(rho, w.psi.amplitudes)))
    return value, value < DETECTION_TOL


def witness_report(w: Witness, state: "np.ndarray | XStateParams") -> dict:
    value, detects = evaluate_witness(w, state)
    return {"witness": w.label, "value": value, "detects": detects}


def negativity(rho: np.ndarray, subset, n: int) -> float:
    """Sum of |negative eigenvalues| of the partial transpose, +0.0 when
    there is none.

    rho passes linalg.as_state, and the fit does not gate it again.  When
    model.fit_sectors (here its ungated _fit_sectors) resolves the Z-frame
    sector entries of rho's projection onto a frame's family, within
    linalg.SECTOR_FIT_TOL, which bounds the error, the sector blocks give
    it: transposing the qubits of S keeps the diagonal and moves row b's
    anti-diagonal entry to row b ^ m_S, m_S their basis bits, and local
    unitaries keep negativity.  Other input, a non-Hermitian rho among it,
    takes the dense partial transpose and its eigenvalues, whose solver
    checks Hermiticity.
    """
    rho = as_state(rho, n)
    qubits = set(_checked_qubits(subset, n))
    entries = _fit_sectors(rho, n)
    if entries is None:
        eigenvalues = hermitian_eigenvalues(partial_transpose(rho, qubits, n))
    else:
        diag, anti = entries
        flip = sum(1 << (n - q) for q in qubits)
        eigenvalues = sector_eigenvalues(diag, anti[np.arange(1 << n) ^ flip])
    return float(0.0 - eigenvalues[eigenvalues < 0].sum())    # not -0.0


def yu_eberly(diag: np.ndarray, anti: np.ndarray) -> np.ndarray:
    """Concurrence of the two-qubit X state with Z-frame sector entries
    diag[b] = rho[b, b] and anti[b] = rho[b, ~b] on the trailing axis (Yu
    and Eberly), one value or one per state of a stack (..., 4):
    2 max(0, |r03| - sqrt(r11 r22), |r12| - sqrt(r00 r33)), the products
    clipped at 0 so that unphysical entries give a finite value >= 0; a NaN
    term is ignored."""
    mod = np.hypot(anti.real, anti.imag)   # rounds as abs(complex); np.abs may not
    c = np.fmax(mod[..., 0] - np.sqrt(np.fmax(0.0, diag[..., 1] * diag[..., 2])),
                mod[..., 1] - np.sqrt(np.fmax(0.0, diag[..., 0] * diag[..., 3])))
    return 2 * np.where(c > 0.0, c, 0.0)


def concurrence(rho: np.ndarray) -> float:
    """Two-qubit concurrence of a unit-trace state passing linalg.as_state,
    which the fit does not repeat.

    When model.fit_sectors (here its ungated _fit_sectors) resolves the
    Z-frame sector entries of rho's projection onto a frame's family
    (local unitaries keep concurrence), it takes their Yu-Eberly closed
    form, yu_eberly.  Any other state takes
    Wootters' formula in Hermitian form: the descending lambdas, square
    roots of the eigenvalues of rho (Y x Y) rho* (Y x Y), are those of the
    similar PSD sqrt(rho) (Y x Y) rho* (Y x Y) sqrt(rho).
    Hermiticity is decided once on each route: a fit passes only within
    SECTOR_FIT_TOL of a Hermitian projection, far inside
    linalg.HERMITIAN_TOL, and any other rho meets the eigensolver's check.
    """
    rho = as_state(rho, 2)
    if not abs(complex(np.trace(rho)) - 1.0) <= TRACE_TOL:
        raise ValueError("state must have unit trace")
    entries = _fit_sectors(rho, 2)
    if entries is not None:
        return float(yu_eberly(*entries))
    rho = rho.astype(complex, copy=False)  # one (complex) solver for every dtype
    w, v = hermitian_eigen(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    yy = np.kron(PAULI_MATRICES["Y"], PAULI_MATRICES["Y"])
    m = root @ yy @ rho.conj() @ yy @ root
    w = hermitian_eigenvalues(m)
    lam = np.sqrt(np.clip(w, 0.0, None))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
