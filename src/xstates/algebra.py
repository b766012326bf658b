"""The operator set behind n-qubit X states and its incidence structure.

The set holds the 2**(n+1) - 1 non-identity operators (z-products and
xy-products, frame-relabeled) in a fixed canonical order: z-products by
index 1..2**n - 1, then xy-products by index 0..2**n - 1.

With phases dropped, an operator is its vector (x_mask, z_mask) over GF(2)
and a product is the XOR of vectors.  The set's vectors are the nonzero
vectors of a subspace isomorphic to GF(2)^(n+1) (an xy flag plus an index),
so the closed triples {u, v, u ^ v} ("lines") are the lines of PG(n, 2), the
Fano plane at n = 2: every unordered pair of operators lies on exactly one
line, i.e. a 2-(2**(n+1)-1, 3, 1) block design.  In the Z frame each element
maps every sector {b, ~b} to itself; the model's sector tables give its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _sector_entries
from .pauli import (MAX_DENSE_QUBITS, AxisFrame, PauliString, resolve_frame,
                    xy_product, z_product)

MAX_GEOMETRY_QUBITS = 8  # lines, the design check, sector decomposition, simplex


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
    """All closed triples {u, v, u ^ v} of the set's vectors, ascending.

    Each line comes from its two smallest points i < j, whose product is
    element k > j, so the pairs' lexicographic order is the lines' order.
    """
    if opset.n > MAX_GEOMETRY_QUBITS:
        raise ValueError(f"line enumeration limited to n <= {MAX_GEOMETRY_QUBITS}")
    if any(p.n != opset.n for p in opset.elements):
        raise ValueError("elements must act on the set's qubit count")
    # the GF(2)^(2n) vector (x_mask, z_mask) of each element, as one integer
    vectors = np.fromiter(((p.x_mask << opset.n) | p.z_mask for p in opset.elements),
                          dtype=np.int64, count=len(opset.elements))
    index = np.full(1 << (2 * opset.n), -1, dtype=np.int64)
    index[vectors] = np.arange(len(vectors))
    i, j = np.triu_indices(len(vectors), 1)
    k = index[vectors[i] ^ vectors[j]]
    if not np.all((k >= 0) & (k != i) & (k != j)):
        raise ValueError("elements must be distinct non-identity operators "
                         "closed under multiplication")
    keep = j < k
    triples = np.stack([i[keep], j[keep], k[keep]], axis=1)
    return LineSet(tuple(map(tuple, triples.tolist())))


def verify_design(opset: OperatorSet) -> DesignReport:
    """Check the 2-(v, 3, 1) property exhaustively over all point pairs."""
    ls = lines(opset)
    v = len(opset.elements)
    triples = np.array(ls.lines, dtype=np.int64).reshape(-1, 3)
    i, j, k = triples.T
    cover = np.bincount(np.concatenate([i * v + j, i * v + k, j * v + k]), minlength=v * v)
    per_point = np.bincount(triples.ravel(), minlength=v)
    a, b = np.triu_indices(v, 1)
    uncovered = np.flatnonzero(cover[a * v + b] != 1)
    counterexample = (int(a[uncovered[0]]), int(b[uncovered[0]])) if uncovered.size else None
    uniform = np.unique(per_point).size == 1
    return DesignReport(
        points=v,
        blocks=len(ls.lines),
        block_size=3,
        lam=1 if counterexample is None else None,
        lines_per_point=int(per_point[0]) if uniform else None,
        passed=counterexample is None and uniform,
        counterexample=counterexample,
    )


def sector_decomposition(opset: OperatorSet) -> SectorDecomposition:
    """Restrict every element of the Z-frame set to the sectors.

    The sectors are the joint eigenspaces of the center: each pairs a basis
    index b < 2**(n-1) with its bitwise complement, and every element of
    ``generate_set(n)`` maps each sector to itself.  Element k is the family
    operator of coefficient k + 1 (d, then a): its entries at (b, b) and
    (b, ~b) are 2**n times the model's sector entries of that unit vector.
    """
    if opset.n > MAX_GEOMETRY_QUBITS:
        raise ValueError(f"sector decomposition limited to n <= {MAX_GEOMETRY_QUBITS}")
    if opset != generate_set(opset.n):
        raise ValueError("sector decomposition requires the Z-frame set generate_set(n)")
    n, full = opset.n, (1 << opset.n) - 1
    sectors = tuple((b, b ^ full) for b in range(1 << (n - 1)))
    b, c = np.array(sectors).T
    diag, anti = _sector_entries(np.eye(2 << n)[1:] * (1 << n), n)
    # (row, column, element, sector) -> (sector, element, row, column)
    blocks = np.array([[diag[:, b], anti[:, b]], [anti[:, c], diag[:, c]]])
    return SectorDecomposition(n, sectors, blocks.transpose(3, 2, 0, 1))


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

    def embed(part: tuple[PauliString, ...]) -> list[PauliString]:
        return [PauliString(n, p.x_mask, p.z_mask, p.phase) for p in part]

    fz = f.apply(PauliString.single("Z", n, n))
    fx = f.apply(PauliString.single("X", n, n))
    fy = f.apply(PauliString.single("Y", n, n))
    z_old, xy_old = embed(prev.z_part), embed(prev.xy_part)
    elements = z_old + [fz] + [p * fz for p in z_old]
    elements += [p * fx for p in xy_old] + [p * fy for p in xy_old]
    return OperatorSet(n, f, tuple(elements))


def incidence_json(opset: OperatorSet, lineset: LineSet | None = None) -> dict:
    """Stable {"points": [...labels], "lines": [[i, j, k], ...]} export."""
    if lineset is None:
        lineset = lines(opset)
    return {
        "points": opset.labels(),
        "lines": [list(t) for t in lineset.lines],
    }
