"""Exact, phase-tracked algebra of N-qubit Pauli strings via bitmasks.

A Pauli string on ``n`` qubits is stored as two n-bit masks plus an integer
phase exponent.  Its dense matrix is

    i**phase * kron_{j=1..n} X**x_j Z**z_j

where ``x_j`` is bit ``j-1`` of ``x_mask`` and ``z_j`` is bit ``j-1`` of
``z_mask``.  Qubit 1 therefore lives in the least significant mask bit, but
is the *leftmost* tensor factor of the dense matrix (most significant basis
bit).  The pair x_j = z_j = 1 realizes a Y factor: Y = i * X @ Z, and the
extra i per Y is absorbed into ``phase``, so all sign bookkeeping stays in
exact integer arithmetic (never floats).  ``to_matrix`` builds the same
matrix from the named factors,

    i**named_phase * kron_{j=1..n} PAULI_MATRICES[axis_on(j)],

with the first factor leftmost; this is the only dense realization, and
every dense operator of the package (n <= MAX_DENSE_QUBITS) uses its order.

Index encodings used throughout the package:

* ``z_product(i, n)``  -- I/Z per bit of ``i``: bit j-1 set puts Z on qubit j
  (e.g. i=2, n=2 gives Z on qubit 2 only).
* ``xy_product(i, n)`` -- X/Y per bit of ``i``: bit j-1 set puts Y on qubit j.

Phase aside, a string is the GF(2) vector (x_mask, z_mask); ``_BITS`` is
the one table of a qubit's axis as its (x, z) bit pair.

Axis frames are uniform single-qubit relabelings of the Pauli axes by a
signed permutation with determinant +1 (a proper rotation), applied to every
qubit at once.  They relabel which commuting family (Z_iZ_j, X_iX_j or
Y_iY_j products) characterizes an X-state family.  ``AxisFrame.apply``
moves the whole masks of a string's X, Y and Z qubits (``x & ~z``, ``x & z``,
``z & ~x``) to their images' bits; a flipped axis adds its popcount of signs.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from numbers import Integral

import numpy as np

AXES = ("X", "Y", "Z")

MAX_QUBITS = 16       # masks must fit comfortably in one machine word
MAX_DENSE_QUBITS = 12  # every dense operator and state: at most 4096 x 4096


def is_integer(value) -> bool:
    """True for an Integral that is not a bool, so numpy integers pass and
    True, 2.0 and "1" do not: the one integer rule of every count, index,
    mask and phase gate."""
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def require_qubit_count(n, low: int = 1, high: int = MAX_DENSE_QUBITS) -> None:
    """Raise ValueError unless n is an integer (is_integer) in low..high: the
    one qubit-count gate, which every entry point runs before any 1 << n."""
    if not is_integer(n) or not low <= n <= high:
        raise ValueError(f"qubit count must be an integer in {low}..{high}, got {n!r}")


def require_frame(frame) -> None:
    """Raise ValueError unless frame is the name of one of FRAMES: the one
    frame-name gate, which every entry point taking a name runs first."""
    if not isinstance(frame, str) or frame not in FRAMES:
        raise ValueError(f"unknown frame {frame!r}; expected one of {sorted(FRAMES)}")


_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_PREFIX_PHASE = {v: k for k, v in _PHASE_PREFIX.items()}

# axis -> (x, z) bit pair, and back: the only statement of that rule
_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_AXIS = {bits: axis for axis, bits in _BITS.items()}

_LABEL_RE = re.compile(r"^([+-]i?)(I|(?:[XYZ]\d+)+)$")

# The named single-qubit matrices; read-only because every module shares them.
PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
for _m in PAULI_MATRICES.values():
    _m.setflags(write=False)


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator as two bitmasks plus a quarter-turn phase."""

    n: int
    x_mask: int
    z_mask: int
    phase: int = 0

    def __post_init__(self):
        require_qubit_count(self.n, high=MAX_QUBITS)
        n, x, z, phase = self.n, self.x_mask, self.z_mask, self.phase
        full = (1 << n) - 1
        if not (is_integer(x) and is_integer(z) and 0 <= x <= full and 0 <= z <= full):
            raise ValueError("mask out of range for qubit count")
        if not is_integer(phase) or not 0 <= phase <= 3:
            raise ValueError("phase exponent must be in 0..3")
        if not type(n) is type(x) is type(z) is type(phase) is int:  # store numpy ints as int
            for name in ("n", "x_mask", "z_mask", "phase"):
                object.__setattr__(self, name, int(getattr(self, name)))

    # ---- structure ----
    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

    @classmethod
    def single(cls, axis: str, qubit: int, n: int) -> "PauliString":
        """The named Pauli ``axis`` on ``qubit`` (1-based), identity elsewhere."""
        if axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}")
        require_qubit_count(n, high=MAX_QUBITS)
        if not is_integer(qubit) or not 1 <= qubit <= n:
            raise ValueError("qubit index out of range")
        x, z = _BITS[axis]
        return cls(n, x << (qubit - 1), z << (qubit - 1), x & z)

    @property
    def y_mask(self) -> int:
        return self.x_mask & self.z_mask

    @property
    def named_phase(self) -> int:
        """Phase exponent relative to the named I/X/Y/Z tensor product."""
        return (self.phase - self.y_mask.bit_count()) % 4

    def axis_on(self, qubit: int) -> str:
        """Named single-qubit factor on ``qubit``, an integer in 1..n: 'I',
        'X', 'Y' or 'Z'."""
        if not is_integer(qubit) or not 1 <= qubit <= self.n:
            raise ValueError("qubit index out of range")
        return self._axis(int(qubit) - 1)

    def _axis(self, shift: int) -> str:
        """The named factor on mask bit ``shift``, unchecked."""
        return _AXIS[(self.x_mask >> shift) & 1, (self.z_mask >> shift) & 1]

    @property
    def weight(self) -> int:
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def proportional_to(self, other: "PauliString") -> bool:
        """True when the two strings differ at most by a phase."""
        return (self.n, self.x_mask, self.z_mask) == (other.n, other.x_mask, other.z_mask)

    # ---- algebra ----
    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        # reorder Z (left factor) past X (right factor): ZX = -XZ per collision
        phase = (self.phase + other.phase
                 + 2 * (self.z_mask & other.x_mask).bit_count()) % 4
        return PauliString(self.n, self.x_mask ^ other.x_mask,
                           self.z_mask ^ other.z_mask, phase)

    def commutes(self, other: "PauliString") -> bool:
        """Symplectic-form commutation test."""
        if self.n != other.n:
            raise ValueError("qubit counts differ")
        return ((self.x_mask & other.z_mask).bit_count()
                + (self.z_mask & other.x_mask).bit_count()) % 2 == 0

    # ---- dense realization ----
    def to_matrix(self) -> np.ndarray:
        """Dense matrix with qubit 1 as the leftmost (most significant) factor."""
        if self.n > MAX_DENSE_QUBITS:
            raise ValueError(f"dense realization limited to n <= {MAX_DENSE_QUBITS}")
        factors = (PAULI_MATRICES[self._axis(j)] for j in range(self.n))
        # the phase enters as a 1x1 first factor, saving a pass over the result
        return functools.reduce(np.kron, factors, np.array([[1j ** self.named_phase]]))

    # ---- text form ----
    def label(self) -> str:
        """Canonical text form, e.g. '+X1Y2Z3' or '-iZ1Z2'; identity is '+I'."""
        axes = (self._axis(j) for j in range(self.n))
        parts = [f"{axis}{j}" for j, axis in enumerate(axes, 1) if axis != "I"]
        return _PHASE_PREFIX[self.named_phase] + ("".join(parts) or "I")

    @classmethod
    def from_label(cls, text: str, n: int | None = None) -> "PauliString":
        """Parse the ``label()`` format; ``n`` defaults to the largest index."""
        m = _LABEL_RE.match(text.strip())
        if m is None:
            raise ValueError(f"unparseable Pauli label: {text!r}")
        named_phase = _PREFIX_PHASE[m.group(1)]
        body = m.group(2)
        factors: dict[int, str] = {}
        if body != "I":
            for axis, idx in re.findall(r"([XYZ])(\d+)", body):
                qubit = int(idx)
                if qubit in factors:
                    raise ValueError(f"duplicate qubit {qubit} in label {text!r}")
                factors[qubit] = axis
        if n is None:
            if not factors:
                raise ValueError("identity label needs an explicit qubit count")
            n = max(factors)
        if factors and max(factors) > n:
            raise ValueError(f"label {text!r} exceeds qubit count {n}")
        x = z = 0
        for qubit, axis in factors.items():
            x |= _BITS[axis][0] << (qubit - 1)
            z |= _BITS[axis][1] << (qubit - 1)
        phase = (named_phase + (x & z).bit_count()) % 4
        return cls(n, x, z, phase)

    def __str__(self) -> str:
        return self.label()


def z_product(index: int, n: int) -> PauliString:
    """Product over qubits of I (bit clear) or Z (bit set) per bits of ``index``."""
    require_qubit_count(n, high=MAX_QUBITS)
    if not is_integer(index) or not 0 <= index < (1 << n):
        raise ValueError(f"index must be in 0..{(1 << n) - 1}")
    return PauliString(n, 0, index, 0)


def xy_product(index: int, n: int) -> PauliString:
    """Product over qubits of X (bit clear) or Y (bit set) per bits of ``index``.

    The i factors of the Y's are folded into the phase so the dense matrix
    equals the literal tensor product of X/Y matrices.
    """
    require_qubit_count(n, high=MAX_QUBITS)
    if not is_integer(index) or not 0 <= index < (1 << n):
        raise ValueError(f"index must be in 0..{(1 << n) - 1}")
    return PauliString(n, (1 << n) - 1, index, int(index).bit_count() % 4)


@dataclass(frozen=True)
class AxisFrame:
    """A uniform signed relabeling of the Pauli axes (proper rotation).

    Each field maps an axis to ``(new_axis, sign)``; the induced 3x3 signed
    permutation must have determinant +1.  Applied to every qubit alike.
    """

    x: tuple[str, int]
    y: tuple[str, int]
    z: tuple[str, int]

    def __post_init__(self):
        images = (self.x, self.y, self.z)
        for axis, sign in images:
            if axis not in AXES or sign not in (1, -1):
                raise ValueError(f"bad axis image {(axis, sign)}")
        if sorted(axis for axis, _ in images) != sorted(AXES):
            raise ValueError("axis images must be a permutation of X, Y, Z")
        if round(np.linalg.det(self.rotation())) != 1:
            raise ValueError("signed axis permutation must be a proper rotation")

    def image(self, axis: str) -> tuple[str, int]:
        return (self.x, self.y, self.z)[AXES.index(axis)]

    def rotation(self) -> np.ndarray:
        """The 3x3 signed permutation acting on Bloch vectors (columns X,Y,Z)."""
        r = np.zeros((3, 3), dtype=int)
        for col, axis in enumerate(AXES):
            new_axis, sign = self.image(axis)
            r[AXES.index(new_axis), col] = sign
        return r

    def compose(self, inner: "AxisFrame") -> "AxisFrame":
        """The frame acting as self after inner."""
        images = []
        for axis in AXES:
            mid, s1 = inner.image(axis)
            out, s2 = self.image(mid)
            images.append((out, s1 * s2))
        return AxisFrame(*images)

    @property
    def is_identity(self) -> bool:
        return all(self.image(a) == (a, 1) for a in AXES)

    def apply(self, p: PauliString) -> PauliString:
        """Relabel every single-qubit factor; sign flips accumulate into phase."""
        x = z = flips = 0
        for mask, (axis, sign) in zip((p.x_mask & ~p.z_mask, p.y_mask, p.z_mask & ~p.x_mask),
                                      (self.x, self.y, self.z)):
            x |= mask * _BITS[axis][0]
            z |= mask * _BITS[axis][1]
            flips += mask.bit_count() if sign < 0 else 0
        phase = (p.named_phase + (x & z).bit_count() + 2 * flips) % 4
        return PauliString(p.n, x, z, phase)

    def unitary(self) -> np.ndarray:
        """A 2x2 unitary U with U sigma_a U^dag = sign * sigma_image(a).

        Fixed up to global phase: U|0> is the +1 eigenvector of the image of
        Z and U|1> = image(X) U|0>, so U maps Z and X to their images, and Y
        = iXZ follows because the rotation is proper.
        """
        def image_matrix(axis: str) -> np.ndarray:
            new_axis, sign = self.image(axis)
            return sign * PAULI_MATRICES[new_axis]

        up = np.linalg.eigh(image_matrix("Z"))[1][:, 1]  # ascending: +1 is last
        return np.column_stack([up, image_matrix("X") @ up])

    def describe(self) -> dict[str, str]:
        """JSON-friendly form, e.g. {'X': '-Y', 'Y': '-Z', 'Z': '+X'}."""
        return {a: ("+" if s > 0 else "-") + ax
                for a, (ax, s) in zip(AXES, (self.x, self.y, self.z))}


FRAME_Z = AxisFrame(("X", 1), ("Y", 1), ("Z", 1))
# Fixed by the witness-overlap resolution procedure (see tests/golden): the
# unique proper map with Z -> +X reproducing both bundled 3/4 overlaps.
FRAME_X = AxisFrame(("Y", -1), ("Z", -1), ("X", 1))
# Fixed by matching the all-entries-nonzero three-qubit family entrywise.
FRAME_Y = AxisFrame(("Z", 1), ("X", 1), ("Y", 1))

FRAMES = {"Z": FRAME_Z, "X": FRAME_X, "Y": FRAME_Y}


def resolve_frame(frame: "str | AxisFrame") -> AxisFrame:
    """Accept a named frame ('Z', 'X', 'Y') or an AxisFrame instance."""
    if isinstance(frame, AxisFrame):
        return frame
    require_frame(frame)
    return FRAMES[frame]


def apply_frame(p: PauliString, frame: "str | AxisFrame") -> PauliString:
    return resolve_frame(frame).apply(p)


def all_proper_frames() -> list[AxisFrame]:
    """All 24 proper signed axis permutations, in a fixed deterministic order."""
    frames = []
    for perm in itertools.permutations(AXES):
        for signs in itertools.product((1, -1), repeat=3):
            images = tuple((perm[k], signs[k]) for k in range(3))
            try:
                frames.append(AxisFrame(*images))
            except ValueError:
                continue
    return frames
