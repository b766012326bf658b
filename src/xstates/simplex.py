"""Operator-labeled n-simplex: vertices carry generators, faces their products.

Construction is iterative.  The 1-simplex (a segment) carries vertex labels
X1 and Y1; growing to m qubits multiplies the two X/Y-type endpoint labels
by a chosen axis on the new qubit (Y by default) and adjoins the new vertex
Z_m, leaving earlier Z-type vertices untouched.  (Multiplying the Z-type
vertices too would push them outside the operator set and break the face
bijection below.)  Every nonempty vertex subset is a face labeled by the product
of its vertex labels with the phase dropped, the XOR of their (x_mask, z_mask)
vectors at named phase 0; the face labels biject onto the operator set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MAX_GEOMETRY_QUBITS
from .pauli import PauliString


@dataclass(frozen=True)
class SimplexFace:
    verts: tuple[int, ...]  # 1-based vertex indices, ascending
    label: PauliString      # phase-0 class representative

    @property
    def dim(self) -> int:
        return len(self.verts) - 1


@dataclass(frozen=True)
class LabeledSimplex:
    n: int
    vertices: tuple[PauliString, ...]
    faces: tuple[SimplexFace, ...]

    def face_map(self) -> dict[tuple[int, ...], PauliString]:
        return {f.verts: f.label for f in self.faces}


def build_simplex(n: int, step_axis: str = "Y") -> LabeledSimplex:
    """The labeled n-simplex with n + 1 vertices and 2**(n+1) - 1 faces."""
    if not 1 <= n <= MAX_GEOMETRY_QUBITS:
        raise ValueError(f"qubit count must be in 1..{MAX_GEOMETRY_QUBITS}, got {n}")
    if step_axis not in ("Y", "X"):
        raise ValueError("step axis must be 'Y' or 'X'")
    vertices = [PauliString.single("X", 1, 1), PauliString.single("Y", 1, 1)]
    for m in range(2, n + 1):
        step = PauliString.single(step_axis, m, m)
        grown = []
        for v in vertices:
            embedded = PauliString(m, v.x_mask, v.z_mask, v.phase)
            xy_type = v.x_mask == (1 << v.n) - 1
            grown.append(embedded * step if xy_type else embedded)
        grown.append(PauliString.single("Z", m, m))
        vertices = grown

    faces = []
    count = len(vertices)
    for subset in range(1, 1 << count):
        verts = tuple(v + 1 for v in range(count) if (subset >> v) & 1)
        x = z = 0
        for v in verts:
            x, z = x ^ vertices[v - 1].x_mask, z ^ vertices[v - 1].z_mask
        faces.append(SimplexFace(verts, PauliString(n, x, z, (x & z).bit_count() % 4)))
    faces.sort(key=lambda f: (len(f.verts), f.verts))
    return LabeledSimplex(n, tuple(vertices), tuple(faces))


def face_label(s: LabeledSimplex, verts: "tuple[int, ...] | list[int]") -> PauliString:
    """The operator class attached to the face spanned by ``verts`` (1-based)."""
    key = tuple(sorted(set(verts)))
    if not key:
        raise ValueError("face must contain at least one vertex")
    try:
        return s.face_map()[key]
    except KeyError:
        raise ValueError(f"no face with vertices {key} on a {s.n}-simplex")


def _face_id(face: SimplexFace) -> str:
    return "f" + "_".join(str(v) for v in face.verts)


def export(s: LabeledSimplex, fmt: str) -> str:
    """Byte-stable DOT or JSON rendering of the face-incidence structure."""
    if fmt == "json":
        import json

        obj = {
            "vertices": [v.label() for v in s.vertices],
            "faces": [{"verts": list(f.verts), "label": f.label.label(),
                       "dim": f.dim} for f in s.faces],
        }
        return json.dumps(obj, indent=2) + "\n"
    if fmt == "dot":
        out = ["graph incidence {"]
        for f in s.faces:
            out.append(f'  "{_face_id(f)}" [label="{f.label.label()}", dim={f.dim}];')
        by_verts = {f.verts: f for f in s.faces}
        for f in s.faces:
            if len(f.verts) < 2:
                continue
            for drop in f.verts:
                sub = tuple(v for v in f.verts if v != drop)
                out.append(f'  "{_face_id(by_verts[sub])}" -- "{_face_id(f)}";')
        out.append("}")
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown export format {fmt!r}; expected 'dot' or 'json'")
