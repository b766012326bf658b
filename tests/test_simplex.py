from itertools import combinations
from math import comb

import pytest

from conftest import oracle_simplex_labels
from xstates import build_simplex, export, face_label, generate_set, lines


def mask_pair(p):
    return (p.x_mask, p.z_mask)


def test_segment_labels():
    s = build_simplex(1)
    assert [v.label() for v in s.vertices] == ["+X1", "+Y1"]
    assert face_label(s, (1, 2)).label() == "+Z1"


def test_triangle_labels():
    s = build_simplex(2)
    assert {v.label() for v in s.vertices} == {"+X1Y2", "+Y1Y2", "+Z2"}
    assert face_label(s, (1, 2, 3)).label() == "+Z1Z2"  # in-center
    assert face_label(s, (1, 2)).label() == "+Z1"       # base edge
    assert face_label(s, (3,)).label() == "+Z2"


def test_tetrahedron_face_counts():
    s = build_simplex(3)
    assert len(s.faces) == 15
    by_dim = {}
    for f in s.faces:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 4, 1: 6, 2: 4, 3: 1}


def test_face_count_identity():
    for n in range(1, 9):
        s = build_simplex(n)
        assert len(s.faces) == (1 << (n + 1)) - 1
        assert len(s.faces) == sum(comb(n + 1, m + 2) for m in range(-1, n))


def test_face_labels_biject_onto_operator_set():
    for n in range(1, 7):
        s = build_simplex(n)
        face_masks = {mask_pair(f.label) for f in s.faces}
        set_masks = {mask_pair(p) for p in generate_set(n).elements}
        assert len(face_masks) == len(s.faces)
        assert face_masks == set_masks


@pytest.mark.parametrize("step_axis", ["Y", "X"])
def test_face_labels_match_product_chain_oracle(step_axis):
    for n in range(1, 9):
        s = build_simplex(n, step_axis)
        assert s.face_map() == oracle_simplex_labels(s)
        assert all(f.label.named_phase == 0 for f in s.faces)


def test_face_labels_multiply_by_symmetric_difference():
    for n in (1, 2, 3, 4):
        s = build_simplex(n)
        fm = s.face_map()
        keys = list(fm)
        for k1, k2 in combinations(keys, 2):
            delta = tuple(sorted(set(k1) ^ set(k2)))
            if not delta:
                continue
            assert (fm[k1] * fm[k2]).proportional_to(fm[delta])


def test_face_triples_match_algebra_lines():
    for n in (1, 2, 3, 4):
        s = build_simplex(n)
        opset = generate_set(n)
        index = {mask_pair(p): k for k, p in enumerate(opset.elements)}
        triples = set()
        for k1, k2 in combinations(list(s.face_map()), 2):
            delta = tuple(sorted(set(k1) ^ set(k2)))
            if not delta:
                continue
            fm = s.face_map()
            triple = tuple(sorted((index[mask_pair(fm[k1])],
                                   index[mask_pair(fm[k2])],
                                   index[mask_pair(fm[delta])])))
            triples.add(triple)
        assert triples == set(lines(opset).lines)


def test_alternate_step_axis():
    s = build_simplex(2, step_axis="X")
    assert {v.label() for v in s.vertices} == {"+X1X2", "+Y1X2", "+Z2"}
    assert face_label(s, (1, 2, 3)).label() == "+Z1Z2"
    with pytest.raises(ValueError):
        build_simplex(2, step_axis="Z")


def test_face_label_errors():
    s = build_simplex(2)
    with pytest.raises(ValueError):
        face_label(s, ())
    with pytest.raises(ValueError):
        face_label(s, (1, 4))


def test_export_json_counts():
    import json

    for n, count in ((1, 3), (2, 7), (3, 15)):
        obj = json.loads(export(build_simplex(n), "json"))
        assert len(obj["faces"]) == count
        assert len(obj["vertices"]) == n + 1
    obj = json.loads(export(build_simplex(2), "json"))
    assert {"verts", "label", "dim"} <= set(obj["faces"][0])


def test_export_dot_structure():
    text = export(build_simplex(1), "dot")
    assert text.count("[label=") == 3
    assert text.count(" -- ") == 2
    assert text.startswith("graph incidence {")
    assert 'dim=1' in text


def test_export_byte_stable():
    for fmt in ("dot", "json"):
        assert export(build_simplex(3), fmt) == export(build_simplex(3), fmt)


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export(build_simplex(1), "svg")
