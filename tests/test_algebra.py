import hashlib
import io
import itertools
import json
import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from conftest import (oracle_center, oracle_lines, oracle_pauli_matrix,
                      oracle_verify_design)
from xstates import (FRAME_Z, LineSet, OperatorSet, PauliString, algebra,
                     all_proper_frames, build_simplex, center, generate_set,
                     incidence_json, iterate_construction, lines,
                     sector_decomposition, verify_design)
from xstates.cli import run

GOLDEN = pathlib.Path(__file__).parent / "golden"
ALGEBRA_DIGESTS = json.loads((GOLDEN / "algebra_digests.json").read_text())
INCIDENCE_DIGESTS = json.loads((GOLDEN / "incidence_digests.json").read_text())


def expected_line_count(n):
    v = (1 << (n + 1)) - 1
    return v * (v - 1) // 6


def test_counting_laws():
    for n in range(1, 7):
        opset = generate_set(n)
        v = (1 << (n + 1)) - 1
        assert len(opset.elements) == v
        central = center(opset)
        assert len(central) == (1 << (n - 1)) - 1
        assert v - len(central) == 3 * (1 << (n - 1))
        assert len(lines(opset).lines) == expected_line_count(n)


def test_small_set_contents():
    assert sorted(p.label() for p in generate_set(1).elements) == ["+X1", "+Y1", "+Z1"]
    assert len(generate_set(2).elements) == 7
    assert len(generate_set(3).elements) == 15


def test_center_contents():
    assert [p.label() for p in center(generate_set(2))] == ["+Z1Z2"]
    assert sorted(p.label() for p in center(generate_set(3))) == \
        ["+Z1Z2", "+Z1Z3", "+Z2Z3"]
    got = sorted(p.label() for p in center(generate_set(4)))
    assert got == ["+Z1Z2", "+Z1Z2Z3Z4", "+Z1Z3", "+Z1Z4", "+Z2Z3", "+Z2Z4", "+Z3Z4"]


@pytest.mark.parametrize("frame", ["Z", "X", "Y"])
def test_center_equals_commutation_oracle(frame):
    for n in range(1, 7):
        opset = generate_set(n, frame)
        assert center(opset) == oracle_center(opset)
    # a set that is not closed: only Z2 commutes with every element
    mixed = OperatorSet(2, FRAME_Z, tuple(PauliString.from_label(label, 2)
                                          for label in ("+X1", "+Z1", "+Z2", "+Z1Z2")))
    assert center(mixed) == oracle_center(mixed) == (mixed.elements[2],)


def test_center_shares_the_geometry_cap():
    with pytest.raises(ValueError, match="center limited to n <= 8"):
        center(generate_set(9))
    mixed = OperatorSet(2, FRAME_Z, (PauliString.from_label("+Z1"),
                                     PauliString.from_label("+Z1Z2Z3")))
    with pytest.raises(ValueError, match="qubit count"):
        center(mixed)


def test_center_is_line_closed():
    for n in range(2, 6):
        opset = generate_set(n)
        central = set(center(opset))
        for p, q in itertools.combinations(central, 2):
            product = p * q
            third = next(e for e in opset.elements if e.proportional_to(product))
            assert third in central


def test_set_closed_under_multiplication():
    for n in (1, 2, 3):
        opset = generate_set(n)
        masks = {(p.x_mask, p.z_mask) for p in opset.elements}
        for p, q in itertools.combinations(opset.elements, 2):
            r = p * q
            assert (r.x_mask, r.z_mask) in masks


def test_lines_fano_structure():
    ls = lines(generate_set(2))
    assert len(ls.lines) == 7
    per_point = [0] * 7
    for triple in ls.lines:
        for p in triple:
            per_point[p] += 1
    assert per_point == [3] * 7


def test_lines_examples():
    assert len(lines(generate_set(1)).lines) == 1
    assert len(lines(generate_set(3)).lines) == 35
    assert len(lines(generate_set(4)).lines) == 155


def test_lines_close_under_multiplication():
    opset = generate_set(3)
    for (i, j, k) in lines(opset).lines:
        p, q, r = (opset.elements[t] for t in (i, j, k))
        assert (p * q).proportional_to(r)
        assert (q * r).proportional_to(p)


@pytest.mark.parametrize("n", range(1, 7))
def test_lines_and_design_match_oracles(n):
    for frame in all_proper_frames():
        opset = generate_set(n, frame)
        ls = lines(opset)
        assert ls.lines == oracle_lines(opset)
        assert all(type(t) is tuple and all(type(e) is int for e in t) for t in ls.lines)
        assert verify_design(opset) == oracle_verify_design(opset)


FANO = generate_set(2).elements


@pytest.mark.parametrize("elements", [(), FANO[:1], FANO[:3]], ids=["empty", "one", "line"])
def test_small_sets_match_oracles(elements):
    opset = OperatorSet(2, FRAME_Z, elements)
    assert lines(opset).lines == oracle_lines(opset)
    assert verify_design(opset) == oracle_verify_design(opset)


@pytest.mark.parametrize("elements", [
    FANO[:4],
    FANO + FANO[:1],
    (PauliString.identity(2),) + FANO,
    FANO[:-1] + (PauliString(3, FANO[-1].x_mask, FANO[-1].z_mask, FANO[-1].phase),),
], ids=["not closed", "repeated element", "identity", "mixed qubit counts"])
def test_lines_rejects_improper_sets(elements):
    with pytest.raises(ValueError):
        lines(OperatorSet(2, FRAME_Z, elements))


def test_verify_design_reports_uncovered_pair(monkeypatch):
    opset = generate_set(3)
    full = algebra.lines(opset)
    dropped = full.lines[5]
    monkeypatch.setattr(algebra, "lines",
                        lambda s: LineSet(full.lines[:5] + full.lines[6:]))
    report = verify_design(opset)
    assert not report.passed
    assert report.lam is None
    assert report.lines_per_point is None
    assert report.counterexample == dropped[:2]
    assert report.blocks == len(full.lines) - 1


def test_algebra_command_enumerates_lines_once():
    with mock.patch.object(algebra, "lines", wraps=algebra.lines) as spy:
        assert run(["algebra", "--n", "8"], stdout=io.StringIO()) == 0
    assert spy.call_count == 1


def stdout_digests(argvs):
    got = {}
    for argv in argvs:
        out = io.StringIO()
        assert run(argv.split(), stdout=out) == 0
        got[argv] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return got


def test_algebra_output_digests():
    # `algebra --n N --frame F` stdout for N = 1..8 in the Z, X and Y frames
    assert stdout_digests(ALGEBRA_DIGESTS) == ALGEBRA_DIGESTS


def test_incidence_output_digests():
    # `incidence --n N --format dot|json` stdout for N = 1..8
    assert stdout_digests(INCIDENCE_DIGESTS) == INCIDENCE_DIGESTS


# the geometry cap is checked before generate_set builds 2**(n+1) - 1 elements
@pytest.mark.parametrize("n", ["0", "9", "12"])
def test_algebra_rejects_n_past_the_geometry_cap_before_any_work(monkeypatch, n):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the qubit-count check")
    monkeypatch.setattr(algebra, "generate_set", no_work)
    err = io.StringIO()
    assert run(["algebra", "--n", n], stdout=io.StringIO(), stderr=err) == 1
    assert err.getvalue() == f"error: qubit count must be an integer in 1..8, got {n}\n"


def test_verify_design():
    for n in range(1, 6):
        report = verify_design(generate_set(n))
        assert report.passed
        assert report.lam == 1
        assert report.points == (1 << (n + 1)) - 1
        assert report.block_size == 3
        assert report.lines_per_point == ((1 << (n + 1)) - 2) // 2
    r2 = verify_design(generate_set(2))
    assert (r2.points, r2.blocks, r2.lines_per_point) == (7, 7, 3)
    r4 = verify_design(generate_set(4))
    assert (r4.points, r4.blocks) == (31, 155)


def test_sector_decomposition_structure():
    for n in (1, 2, 3, 4):
        dec = sector_decomposition(generate_set(n))
        assert len(dec.sectors) == 1 << (n - 1)
        full = (1 << n) - 1
        assert all(hi == (lo ^ full) for lo, hi in dec.sectors)
        flattened = sorted(b for pair in dec.sectors for b in pair)
        assert flattened == list(range(1 << n))


def test_sector_two_qubit_pairs():
    dec = sector_decomposition(generate_set(2))
    assert dec.sectors == ((0, 3), (1, 2))


def test_sector_restrictions_span_traceless_space():
    for n in (1, 2, 3, 4):
        opset = generate_set(n)
        dec = sector_decomposition(opset)
        central = set(center(opset))
        noncentral = [k for k, p in enumerate(opset.elements) if p not in central]
        for s in range(len(dec.sectors)):
            coords = []
            for k in noncentral:
                m = dec.restrictions[s, k]
                assert np.max(np.abs(m - m.conj().T)) < 1e-12
                traceless = m - np.trace(m) / 2 * np.eye(2)
                coords.append([traceless[0, 1].real, traceless[0, 1].imag,
                               traceless[0, 0].real])
            assert np.linalg.matrix_rank(np.array(coords), tol=1e-9) == 3


def test_sector_restrictions_multiply_like_elements():
    opset = generate_set(3)
    dec = sector_decomposition(opset)
    idx = {(p.x_mask, p.z_mask): k for k, p in enumerate(opset.elements)}
    p, q = opset.elements[2], opset.elements[9]
    r = p * q
    k = idx[(r.x_mask, r.z_mask)]
    phase_fix = (1j ** r.phase) / (1j ** opset.elements[k].phase)
    for s in range(len(dec.sectors)):
        got = dec.restrictions[s, 2] @ dec.restrictions[s, 9]
        assert np.max(np.abs(got - phase_fix * dec.restrictions[s, k])) < 1e-12


def test_sectors_are_joint_eigenspaces_of_center():
    for n in range(1, 7):
        opset = generate_set(n)
        dec = sector_decomposition(opset)
        central = set(center(opset))
        blocks = dec.restrictions[:, [k for k, p in enumerate(opset.elements) if p in central]]
        signs = blocks[:, :, 0, 0]
        assert np.isin(signs, (1.0, -1.0)).all()
        assert np.array_equal(blocks, signs[:, :, None, None] * np.eye(2))
        assert len({tuple(row) for row in signs}) == len(dec.sectors)


def test_sector_restrictions_match_oracle_blocks():
    # every element up to n = 7, every 17th at n = 8
    for n in range(1, 9):
        opset = generate_set(n)
        dec = sector_decomposition(opset)
        pairs = np.array(dec.sectors)
        for k in range(0, len(opset.elements), 17 if n == 8 else 1):
            dense = oracle_pauli_matrix(opset.elements[k])
            assert np.array_equal(dec.restrictions[:, k],
                                  dense[pairs[:, :, None], pairs[:, None, :]])


@pytest.mark.parametrize("build", [
    lambda n: lines(generate_set(n)),
    lambda n: verify_design(generate_set(n)),
    lambda n: sector_decomposition(generate_set(n)),
    build_simplex,
], ids=["lines", "verify_design", "sector_decomposition", "build_simplex"])
def test_geometry_cap(build):
    build(8)
    with pytest.raises(ValueError, match=r"n <= 8|1\.\.8"):
        build(9)


# the design check gates the set itself, also with a caller's lines: past
# the cap it raises before it allocates anything of the set's size
def test_verify_design_with_given_lines_shares_the_geometry_cap():
    opset = generate_set(9)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="design check limited to n <= 8"):
            verify_design(opset, LineSet(((0, 1, 2),)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    mixed = OperatorSet(2, FRAME_Z, (PauliString.from_label("+Z1"),
                                     PauliString.from_label("+Z1Z2Z3")))
    with pytest.raises(ValueError, match="qubit count"):
        verify_design(mixed, LineSet(((0, 1, 1),)))


def test_sector_requires_z_frame():
    with pytest.raises(ValueError):
        sector_decomposition(generate_set(2, "X"))


def test_sector_rejects_partial_set():
    with pytest.raises(ValueError):
        sector_decomposition(OperatorSet(2, FRAME_Z, generate_set(2).elements[:3]))


def test_iterate_construction_matches_generate():
    for frame in ("Z", "X", "Y"):
        opset = generate_set(1, frame)
        for n in range(2, 9):
            opset = iterate_construction(opset)
            direct = generate_set(n, frame)
            assert opset == direct
            assert opset.labels() == direct.labels()


def test_iterate_cardinality_step():
    opset = generate_set(3)
    grown = iterate_construction(opset)
    assert len(grown.elements) == 2 * len(opset.elements) + 1


def test_frame_invariance_of_counts():
    for frame in ("X", "Y"):
        for n in (1, 2, 3, 4):
            opset = generate_set(n, frame)
            assert len(opset.elements) == (1 << (n + 1)) - 1
            assert len(center(opset)) == (1 << (n - 1)) - 1
            assert len(lines(opset).lines) == expected_line_count(n)
            assert verify_design(opset).passed


def test_frame_relabels_center():
    got = sorted(p.label() for p in center(generate_set(3, "X")))
    assert got == ["+X1X2", "+X1X3", "+X2X3"]
    got = sorted(p.label() for p in center(generate_set(2, "Y")))
    assert got == ["+Y1Y2"]


def test_incidence_json_stable():
    opset = generate_set(2)
    a = incidence_json(opset)
    b = incidence_json(generate_set(2))
    assert a == b
    assert a["points"][0] == "+Z1"
    assert len(a["points"]) == 7 and len(a["lines"]) == 7
    assert all(len(t) == 3 for t in a["lines"])
