"""The operator set behind n-qubit X states and its incidence structure.

The set holds the 2**(n+1) - 1 non-identity operators (z-products and
xy-products, frame-relabeled) in a fixed canonical order: z-products by
index 1..2**n - 1, then xy-products by index 0..2**n - 1.  Closed triples
under multiplication ("lines", phases dropped) realize a projective
point-line incidence: every unordered pair of operators lies on exactly one
line, i.e. a 2-(2**(n+1)-1, 3, 1) block design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import (MAX_DENSE_QUBITS, AxisFrame, PauliString, resolve_frame,
                    xy_product, z_product)

MAX_LINE_QUBITS = 8
MAX_SECTOR_QUBITS = 6


@dataclass(frozen=True)
class OperatorSet:
    n: int
    frame: AxisFrame
    elements: tuple[PauliString, ...]

    @property
    def z_part(self) -> tuple[PauliString, ...]:
        return self.elements[: (1 << self.n) - 1]

    @property
    def xy_part(self) -> tuple[PauliString, ...]:
        return self.elements[(1 << self.n) - 1:]

    def labels(self) -> list[str]:
        return [p.label() for p in self.elements]


@dataclass(frozen=True)
class LineSet:
    lines: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class DesignReport:
    points: int
    blocks: int
    block_size: int
    lam: int | None
    lines_per_point: int | None
    passed: bool
    counterexample: tuple[int, int] | None

    def to_json(self) -> dict:
        return {
            "points": self.points,
            "blocks": self.blocks,
            "block_size": self.block_size,
            "lambda": self.lam,
            "lines_per_point": self.lines_per_point,
            "pass": self.passed,
            "counterexample": list(self.counterexample) if self.counterexample else None,
        }


@dataclass(frozen=True)
class SectorDecomposition:
    """Joint eigenspaces of the center on the computational basis.

    ``sectors[s]`` pairs a basis index with its bitwise complement;
    ``restrictions[s, k]`` is the 2x2 block of element k on sector s.
    """

    n: int
    sectors: tuple[tuple[int, int], ...]
    restrictions: np.ndarray


def generate_set(n: int, frame: "str | AxisFrame" = "Z") -> OperatorSet:
    """All 2**(n+1) - 1 non-identity operators of the family, frame-relabeled."""
    if not 1 <= n <= MAX_DENSE_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_DENSE_QUBITS}, got {n}")
    f = resolve_frame(frame)
    elements = [f.apply(z_product(i, n)) for i in range(1, 1 << n)]
    elements += [f.apply(xy_product(i, n)) for i in range(1 << n)]
    return OperatorSet(n, f, tuple(elements))


def center(opset: OperatorSet) -> tuple[PauliString, ...]:
    """Elements commuting with every element of the set, in canonical order."""
    return tuple(p for p in opset.elements
                 if all(p.commutes(q) for q in opset.elements))


def lines(opset: OperatorSet) -> LineSet:
    """All closed triples under multiplication, phases dropped."""
    if opset.n > MAX_LINE_QUBITS:
        raise ValueError(f"line enumeration limited to n <= {MAX_LINE_QUBITS}")
    index = {(p.x_mask, p.z_mask): k for k, p in enumerate(opset.elements)}
    seen = set()
    for i, p in enumerate(opset.elements):
        for j in range(i + 1, len(opset.elements)):
            q = opset.elements[j]
            k = index[(p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask)]
            seen.add(tuple(sorted((i, j, k))))
    return LineSet(tuple(sorted(seen)))


def verify_design(opset: OperatorSet) -> DesignReport:
    """Check the 2-(v, 3, 1) property exhaustively over all point pairs."""
    ls = lines(opset)
    v = len(opset.elements)
    cover: dict[tuple[int, int], int] = {}
    per_point = [0] * v
    for (i, j, k) in ls.lines:
        for a, b in ((i, j), (i, k), (j, k)):
            cover[(a, b)] = cover.get((a, b), 0) + 1
        for p in (i, j, k):
            per_point[p] += 1
    counterexample = None
    lam: int | None = 1
    for i in range(v):
        for j in range(i + 1, v):
            if cover.get((i, j), 0) != 1:
                counterexample = (i, j)
                lam = None
                break
        if counterexample:
            break
    uniform = len(set(per_point)) == 1
    passed = counterexample is None and uniform
    return DesignReport(
        points=v,
        blocks=len(ls.lines),
        block_size=3,
        lam=lam,
        lines_per_point=per_point[0] if uniform else None,
        passed=passed,
        counterexample=counterexample,
    )


def sector_decomposition(opset: OperatorSet) -> SectorDecomposition:
    """Restrict every element of the Z-frame set to the sectors.

    The sectors are the joint eigenspaces of the center: each pairs a basis
    index b < 2**(n-1) with its bitwise complement, and every element of
    ``generate_set(n)`` maps each sector to itself.
    """
    if opset.n > MAX_SECTOR_QUBITS:
        raise ValueError(f"sector decomposition limited to n <= {MAX_SECTOR_QUBITS}")
    if opset != generate_set(opset.n):
        raise ValueError("sector decomposition requires the Z-frame set generate_set(n)")
    full = (1 << opset.n) - 1
    sectors = tuple((b, b ^ full) for b in range(1 << (opset.n - 1)))
    pairs = np.array(sectors)
    rows, cols = pairs[:, :, None], pairs[:, None, :]
    restrictions = np.stack([p.to_matrix()[rows, cols] for p in opset.elements], axis=1)
    return SectorDecomposition(opset.n, sectors, restrictions)


def iterate_construction(prev: OperatorSet) -> OperatorSet:
    """Grow the set by one qubit via concatenation.

    z-part: {D x I} + {D x Z'} + {I x Z'}; xy-part: {A x X'} + {A x Y'},
    where the primed factors are the frame images on the new qubit.  The
    result equals generate_set(n, frame) element for element.
    """
    n = prev.n + 1
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"qubit count must stay within {MAX_DENSE_QUBITS}")
    if len(prev.elements) != (1 << (prev.n + 1)) - 1:
        raise ValueError("input set does not have the canonical element count")
    if any(p.n != prev.n for p in prev.elements):
        raise ValueError("input set mixes qubit counts")
    f = prev.frame
    half = 1 << prev.n

    def embed(p: PauliString) -> PauliString:
        return PauliString(n, p.x_mask, p.z_mask, p.phase)

    fz = f.apply(PauliString.single("Z", n, n))
    fx = f.apply(PauliString.single("X", n, n))
    fy = f.apply(PauliString.single("Y", n, n))

    z_slots: dict[int, PauliString] = {half: fz}
    for i, p in enumerate(prev.z_part, start=1):
        z_slots[i] = embed(p)
        z_slots[i + half] = embed(p) * fz
    xy_slots: dict[int, PauliString] = {}
    for i, p in enumerate(prev.xy_part):
        xy_slots[i] = embed(p) * fx
        xy_slots[i + half] = embed(p) * fy

    elements = [z_slots[i] for i in range(1, 1 << n)]
    elements += [xy_slots[i] for i in range(1 << n)]
    return OperatorSet(n, f, tuple(elements))


def incidence_json(opset: OperatorSet, lineset: LineSet | None = None) -> dict:
    """Stable {"points": [...labels], "lines": [[i, j, k], ...]} export."""
    if lineset is None:
        lineset = lines(opset)
    return {
        "points": opset.labels(),
        "lines": [list(t) for t in lineset.lines],
    }
