"""Acceptance suite: every criterion prints one pass/fail line (run with -s)."""

import functools
import itertools
import json
import pathlib
from math import comb

import numpy as np

from conftest import bit_reversal_permutation, random_valid_x_params
from xstates import (FRAME_X, FRAME_Y, AxisFrame, all_proper_frames,
                     apply_channel, bell_diagonal, build_simplex, center,
                     concurrence, decompose, dicke_state, evaluate_witness,
                     family_residual, generate_set, ghz_params, ghz_state,
                     hermitian_eigen, iterate_construction, lines, make_witness,
                     materialize, named_example, negativity, partial_trace,
                     partial_transpose, sector_decomposition, standard_channel,
                     strength_grid, sweep, verify_design, werner, xy_product,
                     z_product)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "frame_conventions.json").read_text())

CHANNEL_KINDS = ("amplitude_damping", "phase_damping", "depolarizing")


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"[criterion {num:02d}] FAIL - {desc}")
                raise
            print(f"[criterion {num:02d}] PASS - {desc}")
        return wrapper
    return deco


@criterion(1, "index-encoding goldens and the full three-qubit term tables")
def test_criterion_01_encoding_goldens():
    assert z_product(2, 2).label() == "+Z2"
    assert xy_product(2, 2).label() == "+X1Y2"
    assert [z_product(i, 3).label() for i in range(1, 8)] == [
        "+Z1", "+Z2", "+Z1Z2", "+Z3", "+Z1Z3", "+Z2Z3", "+Z1Z2Z3"]
    assert [xy_product(i, 3).label() for i in range(8)] == [
        "+X1X2X3", "+Y1X2X3", "+X1Y2X3", "+Y1Y2X3",
        "+X1X2Y3", "+Y1X2Y3", "+X1Y2Y3", "+Y1Y2Y3"]


@criterion(2, "counting laws for n=1..6 and exhaustive 2-(v,3,1) design for n<=5")
def test_criterion_02_counting_laws():
    for n in range(1, 7):
        opset = generate_set(n)
        v = (1 << (n + 1)) - 1
        assert len(opset.elements) == v
        assert len(center(opset)) == (1 << (n - 1)) - 1
        assert len(opset.elements) - len(center(opset)) == 3 * (1 << (n - 1))
        assert len(lines(opset).lines) == v * (v - 1) // 6
    assert len(lines(generate_set(2)).lines) == 7
    assert len(lines(generate_set(3)).lines) == 35
    assert len(lines(generate_set(4)).lines) == 155
    for n in range(1, 6):
        report = verify_design(generate_set(n))
        assert report.passed and report.lam == 1 and report.block_size == 3
        assert report.points == (1 << (n + 1)) - 1


@criterion(3, "center contents for n=2,3,4")
def test_criterion_03_center_contents():
    assert [p.label() for p in center(generate_set(2))] == ["+Z1Z2"]
    assert sorted(p.label() for p in center(generate_set(3))) == [
        "+Z1Z2", "+Z1Z3", "+Z2Z3"]
    assert sorted(p.label() for p in center(generate_set(4))) == [
        "+Z1Z2", "+Z1Z2Z3Z4", "+Z1Z3", "+Z1Z4", "+Z2Z3", "+Z2Z4", "+Z3Z4"]


@criterion(4, "sector decomposition pairs complements; restrictions span rank 3")
def test_criterion_04_sector_decomposition():
    for n in (2, 3, 4):
        opset = generate_set(n)
        dec = sector_decomposition(opset)
        assert len(dec.sectors) == 1 << (n - 1)
        full = (1 << n) - 1
        assert all(hi == (lo ^ full) for lo, hi in dec.sectors)
        assert sorted(b for pair in dec.sectors for b in pair) == list(range(1 << n))
        central = set(center(opset))
        noncentral = [k for k, p in enumerate(opset.elements) if p not in central]
        for s in range(len(dec.sectors)):
            coords = []
            for k in noncentral:
                m = dec.restrictions[s, k]
                traceless = m - np.trace(m) / 2 * np.eye(2)
                coords.append([traceless[0, 1].real, traceless[0, 1].imag,
                               traceless[0, 0].real])
            assert np.linalg.matrix_rank(np.array(coords), tol=1e-9) == 3


@criterion(5, "iterative concatenation reproduces the generated set for n=2..6")
def test_criterion_05_iterative_construction():
    opset = generate_set(1)
    for n in range(2, 7):
        opset = iterate_construction(opset)
        direct = generate_set(n)
        assert set(opset.labels()) == set(direct.labels())
        assert opset == direct


@criterion(6, "simplex face labels biject onto the operator set for n<=5")
def test_criterion_06_simplex_bijection():
    for n in range(1, 6):
        s = build_simplex(n)
        face_masks = {(f.label.x_mask, f.label.z_mask) for f in s.faces}
        set_masks = {(p.x_mask, p.z_mask) for p in generate_set(n).elements}
        assert len(face_masks) == len(s.faces)
        assert face_masks == set_masks
        assert len(s.faces) == (1 << (n + 1)) - 1
        assert len(s.faces) == sum(comb(n + 1, m + 1) for m in range(n + 1))
    s2 = build_simplex(2)
    assert {v.label() for v in s2.vertices} == {"+X1Y2", "+Y1Y2", "+Z2"}
    incenter = next(f.label for f in s2.faces if len(f.verts) == 3)
    assert incenter.label() == "+Z1Z2"


def _reference_y_frame_matrix(d, a):
    """Entry table of the all-coherences-nonzero three-qubit family."""
    d1, d2, d3, d4, d5, d6, d7 = d[1:]
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    j = 1j
    m = np.array([
        [1 + a0, a1 - j * d1, a2 - j * d2, a3 - d3, a4 - j * d4, a5 - d5, a6 - d6, a7 + j * d7],
        [a1 + j * d1, 1 - a0, a3 + d3, -a2 - j * d2, a5 + d5, -a4 - j * d4, a7 - j * d7, -a6 - d6],
        [a2 + j * d2, a3 + d3, 1 - a0, -a1 - j * d1, a6 + d6, a7 - j * d7, -a4 - j * d4, -a5 - d5],
        [a3 - d3, -a2 + j * d2, -a1 + j * d1, 1 + a0, a7 + j * d7, -a6 + d6, -a5 + d5, a4 - j * d4],
        [a4 + j * d4, a5 + d5, a6 + d6, a7 - j * d7, 1 - a0, -a1 - j * d1, -a2 - j * d2, -a3 - d3],
        [a5 - d5, -a4 + j * d4, a7 + j * d7, -a6 + d6, -a1 + j * d1, 1 + a0, -a3 + d3, a2 - j * d2],
        [a6 - d6, a7 + j * d7, -a4 + j * d4, -a5 + d5, -a2 + j * d2, -a3 + d3, 1 + a0, a1 - j * d1],
        [a7 - j * d7, -a6 - d6, -a5 - d5, a4 + j * d4, -a3 - d3, a2 + j * d2, a1 + j * d1, 1 - a0],
    ])
    return m / 8.0


def _match_orderings(rho, reference):
    rev = bit_reversal_permutation(3)
    matches = []
    if np.max(np.abs(rho - reference)) <= 1e-12:
        matches.append("declared")
    if np.max(np.abs(rho[np.ix_(rev, rev)] - reference)) <= 1e-12:
        matches.append("bit_reversed")
    return matches


@criterion(7, "Y-frame three-qubit matrix matches the reference entry table")
def test_criterion_07_y_frame_entry_table():
    assert FRAME_Y.describe() == GOLDEN["y_frame"]
    # unit coefficients: the permutation-symmetric case the tolerance applies to
    from xstates.model import XStateParams

    unit = XStateParams(3, (1.0,) * 8, (1.0,) * 8, "Y")
    matches = _match_orderings(materialize(unit),
                               _reference_y_frame_matrix(unit.d, unit.a))
    assert matches
    # generic coefficients pin which basis ordering realizes the table
    rng = np.random.default_rng(7)
    d = tuple(np.concatenate([[1.0], rng.uniform(-1, 1, 7)]))
    a = tuple(rng.uniform(-1, 1, 8))
    generic = XStateParams(3, d, a, "Y")
    matches = _match_orderings(materialize(generic),
                               _reference_y_frame_matrix(d, a))
    assert matches == [GOLDEN["y_frame_basis_ordering"]]


@criterion(8, "GHZ expansion, marginals, and the Y-frame coherence contrast")
def test_criterion_08_ghz_checks():
    params, residual = decompose(ghz_state(3).projector(), 3, "Z")
    assert residual <= 1e-12
    expect = ghz_params(3)
    assert np.max(np.abs(np.array(params.d) - np.array(expect.d))) <= 1e-12
    assert np.max(np.abs(np.array(params.a) - np.array(expect.a))) <= 1e-12
    # the weight-two index 3 carries the unit weight; the weight-one index 4
    # is absent from the projector expansion
    assert expect.d[3] == 1.0 and expect.d[4] == 0.0
    assert expect.d[5] == expect.d[6] == 1.0

    rho = materialize(expect)
    for q in (1, 2, 3):
        marginal = partial_trace(rho, {q}, 3)
        assert np.max(np.abs(marginal - np.eye(2) / 2)) <= 1e-12
    for pair in ({1, 2}, {1, 3}, {2, 3}):
        two = partial_trace(rho, pair, 3)
        assert np.max(np.abs(two - np.diag(np.diag(two)))) <= 1e-14
        assert negativity(two, {1}, 2) <= 1e-12

    rng = np.random.default_rng(88)
    generic = random_valid_x_params(rng, 3, "Y")
    two = partial_trace(materialize(generic), {2, 3}, 3)
    off = two - np.diag(np.diag(two))
    assert np.max(np.abs(off)) > 1e-6


def _materialize_in_frame(params, frame: AxisFrame):
    n = params.n
    rho = np.eye(1 << n, dtype=complex) * params.d[0]
    for i in range(1, 1 << n):
        if params.d[i]:
            rho = rho + params.d[i] * frame.apply(z_product(i, n)).to_matrix()
    for i in range(1 << n):
        if params.a[i]:
            rho = rho + params.a[i] * frame.apply(xy_product(i, n)).to_matrix()
    return rho / (1 << n)


@criterion(9, "witness overlaps equal 3/4 and the frame resolution pins FRAME_X")
def test_criterion_09_witness_values():
    w_state = dicke_state(3, 1)
    d_state = dicke_state(4, 2)
    rho_w = materialize(named_example("w_witness_state_3"))
    rho_d = materialize(named_example("dicke_witness_state_4"))

    overlap_w = float(np.real(w_state.amplitudes.conj() @ rho_w @ w_state.amplitudes))
    overlap_d = float(np.real(d_state.amplitudes.conj() @ rho_d @ d_state.amplitudes))
    assert abs(overlap_w - 0.75) <= 1e-12
    assert abs(overlap_d - 0.75) <= 1e-12

    value_w, detects_w = evaluate_witness(make_witness("w_type", 3), rho_w)
    value_d, detects_d = evaluate_witness(make_witness("dicke_2_4", 4), rho_d)
    assert abs(value_w + 1 / 12) <= 1e-12 and detects_w
    assert abs(value_d + 1 / 12) <= 1e-12 and detects_d

    # resolution procedure: enumerate proper signed axis maps sending Z to
    # the X axis and keep those reproducing both 3/4 overlaps
    pw = named_example("w_witness_state_3")
    pd = named_example("dicke_witness_state_4")
    passing = []
    for frame in all_proper_frames():
        if frame.image("Z")[0] != "X":
            continue
        rw = _materialize_in_frame(pw, frame)
        rd = _materialize_in_frame(pd, frame)
        vw = float(np.real(w_state.amplitudes.conj() @ rw @ w_state.amplitudes))
        vd = float(np.real(d_state.amplitudes.conj() @ rd @ d_state.amplitudes))
        if abs(vw - 0.75) <= 1e-12 and abs(vd - 0.75) <= 1e-12:
            passing.append(frame.describe())
    assert passing, "no frame reproduces both overlaps"
    assert FRAME_X.describe() in passing
    assert passing == GOLDEN["x_frame_candidates_passing"]
    assert FRAME_X.describe() == GOLDEN["x_frame"]


@criterion(10, "X form survives all three channels on every qubit subset")
def test_criterion_10_form_preservation():
    rng = np.random.default_rng(1010)
    for n in (2, 3, 4):
        stack = np.stack([materialize(random_valid_x_params(rng, n))
                          for _ in range(100)])
        subsets = [list(c) for r in range(1, n + 1)
                   for c in itertools.combinations(range(1, n + 1), r)]
        for kind in CHANNEL_KINDS:
            for s in strength_grid(0.0, 1.0, 21):
                ch = standard_channel(kind, s)
                for subset in subsets:
                    out = apply_channel(stack, ch, subset, n)
                    worst = float(np.max(family_residual(out, n, "Z")))
                    assert worst <= 1e-12, (n, kind, s, subset, worst)


@criterion(11, "concurrence goldens and the PPT boundary at p=1/3 by bisection")
def test_criterion_11_two_qubit_quantities():
    assert abs(concurrence(ghz_state(2).projector()) - 1.0) <= 1e-10
    for p in (0.2, 0.5, 0.9):
        got = concurrence(materialize(werner(p)))
        assert abs(got - max(0.0, (3 * p - 1) / 2)) <= 1e-9

    def min_pt_eigenvalue(p):
        pt = partial_transpose(materialize(werner(p)), {2}, 2)
        w, _ = hermitian_eigen(pt)
        return float(w[-1])

    lo, hi = 0.0, 1.0
    assert min_pt_eigenvalue(lo) > 0 and min_pt_eigenvalue(hi) < 0
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if min_pt_eigenvalue(mid) >= 0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - 1 / 3) <= 1e-9


@criterion(12, "amplitude damping kills concurrence at a grid strength below 1")
def test_criterion_12_sudden_death():
    p0 = bell_diagonal(0.9, -0.9, 0.9)
    grid = strength_grid(0.0, 1.0, 21)
    traj = sweep(p0, "amplitude_damping", [1, 2], grid)
    zeros = [s for s, c in zip(traj.strengths, traj.concurrence) if c == 0.0]
    assert zeros, "concurrence never reached zero on the grid"
    gamma_star = min(zeros)
    assert gamma_star < 1.0
    assert all(c == 0.0 for s, c in zip(traj.strengths, traj.concurrence)
               if s >= gamma_star)
    assert traj.concurrence[0] > 0.0
    rho0 = materialize(p0)
    for s in grid:
        rho = apply_channel(rho0, standard_channel("amplitude_damping", s), [1, 2], 2)
        w, _ = hermitian_eigen(rho)
        assert w[-1] >= -1e-10


@criterion(13, "documented CLI invocations are byte-identical across runs")
def test_criterion_13_cli_determinism():
    import io

    from xstates.cli import run

    documented = [
        ["gen", "--state", "ghz", "--n", "3"],
        ["gen", "--state", "werner:0.5"],
        ["gen", "--state", "w_witness_state_3", "--format", "matrix"],
        ["validate", "--state", "ghz", "--n", "4"],
        ["algebra", "--n", "2"],
        ["algebra", "--n", "4", "--frame", "X"],
        ["incidence", "--n", "3", "--format", "dot"],
        ["incidence", "--n", "2", "--format", "json"],
        ["witness", "--state", "w_witness_state_3", "--kind", "w_type"],
        ["witness", "--state", "dicke_witness_state_4", "--kind", "dicke_2_4"],
        ["evolve", "--state", "bell", "--channel", "amplitude_damping",
         "--strength-grid", "0:1:21", "--qubits", "1,2"],
        ["marginal", "--state", "ghz", "--n", "3", "--keep", "2,3"],
    ]

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        code = run(argv, stdout=out, stderr=err)
        return code, out.getvalue()

    for argv in documented:
        code1, out1 = invoke(argv)
        code2, out2 = invoke(argv)
        assert code1 == code2 == 0
        assert out1 == out2 and out1

    _, payload = invoke(["algebra", "--n", "2"])
    obj = json.loads(payload)
    assert obj["points"] == 7 and obj["lines"] == 7
