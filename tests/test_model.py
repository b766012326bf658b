import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (center_twist, oracle_center_image, oracle_family_projection,
                      oracle_family_sum, oracle_ghz_params, oracle_pauli_matrix,
                      params_with_signed_zeros, random_density, random_valid_x_params)
from xstates import model
from xstates import (FRAMES, XStateParams, bell_diagonal, decompose,
                     dicke_state, family_residual, generate_set, ghz_params,
                     ghz_state, hermitian_eigen, materialize, named_example,
                     negativity, params_from_json, params_to_json, partial_trace,
                     partial_transpose, validate, werner)
from xstates.linalg import SECTOR_FIT_TOL, json_text, sector_eigenvalues
from xstates.model import VALID_EIG_TOL, _sector_entries, entry_table, fit_sectors

BELL = XStateParams.build(2, d={3: 1.0}, a={0: 1.0, 3: -1.0})


def frame_kron(frame_name, n):
    u = FRAMES[frame_name].unitary()
    big = np.array([[1.0 + 0j]])
    for _ in range(n):
        big = np.kron(big, u)
    return big


def test_materialize_bell():
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = expect[3, 3] = expect[0, 3] = expect[3, 0] = 0.5
    assert np.max(np.abs(materialize(BELL) - expect)) < 1e-15


def test_materialize_maximally_mixed():
    for n in (1, 2, 3):
        p = XStateParams.build(n)
        assert np.array_equal(materialize(p), np.eye(1 << n) / (1 << n))


@settings(max_examples=60)
@given(st.integers(1, 9), st.sampled_from(sorted(FRAMES)), st.integers(0, 2**32 - 1))
def test_entry_table_indexes_the_dense_matrix_bitwise(n, frame, seed):
    p = params_with_signed_zeros(n, frame, seed)
    table, index = entry_table(p)
    dim = 1 << n
    assert table.dtype == complex and index.shape == (dim, dim)
    assert len(table) == (2 * dim + 1 if frame == "Z" else 4 * dim)
    # bitwise, so -0.0 and +0.0 differ
    assert np.array_equal(table[index].view(np.uint64), materialize(p).view(np.uint64))


def test_z_frame_letter_x_pattern(rng):
    for n in (1, 2, 3, 4):
        p = random_valid_x_params(rng, n)
        rho = materialize(p)
        full = (1 << n) - 1
        for i in range(1 << n):
            for j in range(1 << n):
                if i != j and j != (i ^ full):
                    assert abs(rho[i, j]) <= 1e-14


def test_decompose_round_trip(rng):
    for frame in ("Z", "X", "Y"):
        # one block of qubits; three blocks first at n = 9 (4 + 4 + 1), and n = 12
        for n in (1, 2, 3, 4, 9, 12):
            p = random_valid_x_params(rng, n, frame)
            q, residual = decompose(materialize(p), n, frame)
            assert residual <= 1e-12
            assert q.frame == frame
            assert np.max(np.abs(np.array(q.d) - np.array(p.d))) <= 1e-12
            assert np.max(np.abs(np.array(q.a) - np.array(p.a))) <= 1e-12


def test_decompose_maximally_mixed():
    params, residual = decompose(np.eye(8) / 8, 3, "Z")
    assert residual <= 1e-15
    assert params.d == (1.0,) + (0.0,) * 7
    assert params.a == (0.0,) * 8


def test_decompose_w_state_residual():
    rho = dicke_state(3, 1).projector()
    _, residual = decompose(rho, 3, "Z")
    assert residual > 0.1


def test_family_residual_batched(rng):
    stack = np.stack([materialize(random_valid_x_params(rng, 2)) for _ in range(5)])
    res = family_residual(stack, 2, "Z")
    assert res.shape == (5,)
    assert np.max(res) <= 1e-12


def test_validate_examples():
    report = validate(XStateParams.build(3))
    assert report.is_valid and abs(report.min_eigenvalue - 0.125) < 1e-12
    report = validate(XStateParams.build(2, a={0: 2.0}))
    assert not report.is_valid
    assert abs(report.min_eigenvalue + 0.25) < 1e-12
    report = validate(BELL)
    assert report.is_valid
    w, _ = hermitian_eigen(materialize(BELL))
    assert np.allclose(w, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_werner_family():
    assert np.array_equal(materialize(werner(0.0)), np.eye(4) / 4)
    assert np.max(np.abs(materialize(werner(1.0)) - materialize(BELL))) < 1e-15
    pt = partial_transpose(materialize(werner(1 / 3)), {2}, 2)
    w, _ = hermitian_eigen(pt)
    assert abs(w.min()) <= 1e-9
    with pytest.raises(ValueError):
        werner(1.5)


def test_bell_diagonal_family():
    assert np.max(np.abs(materialize(bell_diagonal(1, -1, 1)) - materialize(BELL))) < 1e-15
    assert np.array_equal(materialize(bell_diagonal(0, 0, 0)), np.eye(4) / 4)
    w, _ = hermitian_eigen(materialize(bell_diagonal(1, 1, -1)))
    assert np.allclose(w, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_ghz_params_pattern():
    p = ghz_params(3)
    assert p.d[3] == p.d[5] == p.d[6] == 1.0
    assert p.d[4] == 0.0  # weight-one z-index stays absent
    assert p.a[0] == 1.0 and p.a[3] == p.a[5] == p.a[6] == -1.0
    assert all(p.a[i] == 0.0 for i in (1, 2, 4, 7))
    assert ghz_params(2) == BELL


def test_ghz_params_match_projector_decomposition():
    for n in (2, 3, 4):
        rho = ghz_state(n).projector()
        q, residual = decompose(rho, n, "Z")
        assert residual <= 1e-12
        p = ghz_params(n)
        assert np.max(np.abs(np.array(q.d) - np.array(p.d))) <= 1e-12
        assert np.max(np.abs(np.array(q.a) - np.array(p.a))) <= 1e-12


def test_frame_covariance(rng):
    for frame in ("X", "Y"):
        for n in (1, 2, 3):
            p = random_valid_x_params(rng, n, frame)
            base = XStateParams(n, p.d, p.a, "Z")
            u = frame_kron(frame, n)
            expect = u @ materialize(base) @ u.conj().T
            assert np.max(np.abs(materialize(p) - expect)) < 1e-10


def test_ghz_marginals():
    for n in (3, 4):
        rho = materialize(ghz_params(n))
        for q in range(1, n + 1):
            single = partial_trace(rho, {q}, n)
            assert np.max(np.abs(single - np.eye(2) / 2)) <= 1e-12
    rho = materialize(ghz_params(3))
    for pair in ({1, 2}, {1, 3}, {2, 3}):
        two = partial_trace(rho, pair, 3)
        assert np.max(np.abs(two - np.diag(np.diag(two)))) <= 1e-14
        assert negativity(two, {1}, 2) <= 1e-12


def test_y_frame_marginal_has_coherences(rng):
    p = random_valid_x_params(rng, 3, "Y")
    two = partial_trace(materialize(p), {2, 3}, 3)
    off = two - np.diag(np.diag(two))
    assert np.max(np.abs(off)) > 1e-6


def test_named_examples_are_valid():
    for name in ("w_witness_state_3", "dicke_witness_state_4"):
        p = named_example(name)
        assert p.frame == "X"
        assert validate(p).is_valid
    with pytest.raises(ValueError):
        named_example("nope")


def test_x_frame_ghz_state_is_an_x_state_with_shifted_pattern():
    # The plus/minus GHZ vector lives in the X-frame family, but its
    # coefficient pattern differs from the frame-transported ghz_params:
    # the pinned X frame sends the all-X string to a Y product, not to the
    # all-Z string that stabilizes the plus/minus vector.
    proj = ghz_state(3, "X").projector()
    params, residual = decompose(proj, 3, "X")
    assert residual <= 1e-12
    assert params != ghz_params(3, "X")
    transported = materialize(ghz_params(3, "X"))
    w, _ = hermitian_eigen(transported)
    assert np.allclose(w, [1.0] + [0.0] * 7, atol=1e-12)  # still a pure GHZ-type state
    assert np.max(np.abs(transported - proj)) > 0.1


def test_materialize_beyond_stack_cache():
    # n = 7 spans two Kronecker blocks (4 + 3 qubits)
    p = ghz_params(7)
    rho = materialize(p)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    full = (1 << 7) - 1
    for i in (0, 5, 100):
        row = np.abs(rho[i]) > 1e-14
        assert set(np.nonzero(row)[0]) <= {i, i ^ full}
    q, residual = decompose(rho, 7, "Z")
    assert residual <= 1e-12
    assert np.max(np.abs(np.array(q.d) - np.array(p.d))) <= 1e-12
    w, _ = hermitian_eigen(rho)
    assert abs(w[0] - 1.0) < 1e-10 and abs(w[1]) < 1e-10


def test_constructor_rejections():
    with pytest.raises(ValueError):
        XStateParams(2, (0.9, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        XStateParams(2, (1.0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        XStateParams(2, (1.0, 0, 0, 0), (0, 0, 0, float("nan")))
    with pytest.raises(ValueError, match=r"unknown frame 'Q'; expected one of \['X', 'Y', 'Z'\]"):
        XStateParams(2, (1.0, 0, 0, 0), (0, 0, 0, 0), frame="Q")
    # an unknown frame name gets the same text from the projections, before
    # any transform
    with mock.patch.object(model, "_xor_project") as xor, \
         mock.patch.object(model, "_sector_coefficients") as sector:
        for project in (decompose, family_residual):
            with pytest.raises(ValueError, match=r"unknown frame 'Q'; expected one of"):
                project(np.eye(4) / 4, 2, "Q")
    assert xor.call_count == sector.call_count == 0
    for n in (True, 2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="qubit count must be an integer"):
            XStateParams(n, (1.0, 0, 0, 0), (0, 0, 0, 0))
    with pytest.raises(ValueError, match="qubit count must be an integer"):
        XStateParams(True, (1.0, 0), (0, 0))
    for bad in ("0.5", None, 1j, 10 ** 400):
        with pytest.raises(ValueError, match="parameters must be finite reals"):
            XStateParams(2, (1.0, 0, 0, 0), (0, bad, 0, 0))
    # the held parameters are Python floats, whatever sequences came in
    p = XStateParams(np.int64(2), [1, 0, 0, 0], np.array([0, 1, 0, 0]))
    assert p == XStateParams(2, (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))
    assert all(type(v) is float for v in p.d + p.a)


# a numpy-integer n is held as its Python int, whichever way the parameter
# set is made, so it writes as JSON
def test_numpy_integer_qubit_count_is_held_as_int():
    made = [XStateParams(np.int64(1), [1, 0], [0, 0]),
            XStateParams.build(np.int64(2), "X", a={1: 0.5}),
            ghz_params(np.int32(3), "Y"),
            decompose(np.eye(4) / 4, np.int64(2), "X")[0],
            params_from_json({"n": np.int64(1), "frame": "Z", "d": [1, 0], "a": [0, 0]})]
    for p, n in zip(made, (1, 2, 3, 2, 1)):
        assert type(p.n) is int and p.n == n
        assert json.loads(json_text(params_to_json(p)))["n"] == n


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_ghz_params_bitwise_equal_to_index_loop(frame):
    for n in range(2, 13):
        got, want = ghz_params(n, frame), oracle_ghz_params(n, frame)
        assert got == want
        assert [v.hex() for v in got.d + got.a] == [v.hex() for v in want.d + want.a]


def test_state_file_round_trip():
    p = named_example("w_witness_state_3")
    obj = json.loads(json.dumps(params_to_json(p)))
    assert params_from_json(obj) == p


@pytest.mark.parametrize("mutate, fragment", [
    (lambda o: o.update(d=[0.9] + o["d"][1:]), r"d\[0\]"),
    (lambda o: o.update(d=o["d"][:-1]), "length"),
    (lambda o: o.update(a=o["a"] + [0.0]), "length"),
    (lambda o: o.update(frame="W"), "frame"),
    (lambda o: o.pop("a"), "missing"),
    (lambda o: o.update(n="three"), "n"),
    (lambda o: o.update(n=True), "n must be a JSON integer, got True"),
    (lambda o: o.update(n=3.0), "n must be a JSON integer, got 3.0"),
    (lambda o: o.update(n=13), r"qubit count must be an integer in 1\.\.12, got 13"),
    (lambda o: o.update(a=["0"] + o["a"][1:]), "'a' must be an array of JSON numbers"),
    (lambda o: o.update(d=o["d"][:-1] + [10 ** 400]), "parameters must be finite reals"),
])
def test_state_file_rejections(mutate, fragment):
    obj = params_to_json(ghz_params(3))
    mutate(obj)
    with pytest.raises(ValueError, match=fragment):
        params_from_json(obj)


@st.composite
def x_params(draw, max_n):
    """Any parameters with entries in [-1, 1], physical or not, in any frame."""
    n = draw(st.integers(1, max_n))
    frame = draw(st.sampled_from(sorted(FRAMES)))
    coeffs = arrays(np.float64, 1 << n, elements=st.floats(-1.0, 1.0))
    d = draw(coeffs)
    d[0] = 1.0
    return XStateParams(n, tuple(d), tuple(draw(coeffs)), frame)


@settings(max_examples=100)
@given(x_params(6))
def test_materialize_matches_oracle_operator_sum(p):
    ops = [oracle_pauli_matrix(q) for q in generate_set(p.n, p.frame).elements]
    expect = np.eye(1 << p.n) * p.d[0]
    for c, op in zip(p.d[1:] + p.a, ops):
        expect = expect + c * op
    expect /= 1 << p.n
    assert np.max(np.abs(materialize(p) - expect)) <= 1e-12


@settings(max_examples=100)
@given(x_params(8))
def test_decompose_inverts_materialize(p):
    q, residual = decompose(materialize(p), p.n, p.frame)
    assert residual <= 1e-12
    assert q.frame == p.frame
    assert np.max(np.abs(np.array(q.d) - np.array(p.d))) <= 1e-12
    assert np.max(np.abs(np.array(q.a) - np.array(p.a))) <= 1e-12


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_family_residual_single_matrix_equals_decompose(rng, frame):
    for n in range(1, 10):      # n = 9 is the first layout of three blocks
        inside = materialize(random_valid_x_params(rng, n, frame))
        outside = random_density(rng, 1 << n)
        stack = np.stack([inside, outside, 0.5 * inside + 0.5 * outside, outside.real])
        each = [family_residual(rho, n, frame) for rho in stack]
        assert all(type(res) is float for res in each)
        assert each == [decompose(rho, n, frame)[1] for rho in stack]
        # a stack's matmuls have other row counts, and BLAS rounds by them
        for shape in ((4,), (2, 2)):
            batched = family_residual(stack.reshape(*shape, *stack.shape[1:]), n, frame)
            assert batched.shape == shape
            assert np.max(np.abs(batched.ravel() - each)) <= 1e-15


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_family_residual_of_an_empty_stack(frame):
    # one, two and three blocks
    for n in (4, 5, 9):
        assert family_residual(np.zeros((0, 1 << n, 1 << n)), n, frame).shape == (0,)


@pytest.mark.parametrize("shape", [(4, 4), (3, 4, 4)])
def test_family_residual_rejects_non_finite(shape):
    # RuntimeWarnings are errors in the test settings, so this also checks
    # that the input is rejected before a transform warns
    for bad in (np.nan, np.inf, -np.inf):
        rho = np.tile(np.eye(4) / 4, (*shape[:-2], 1, 1))
        rho[..., 1, 2] = bad
        with pytest.raises(ValueError):
            family_residual(rho, 2, "Z")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_decompose_rejects_non_finite(bad):
    for frame in sorted(FRAMES):
        rho = np.eye(8, dtype=complex) / 8
        rho[2, 5] = rho[5, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            decompose(rho, 3, frame)


def test_sector_entries_of_stack_equal_rows(rng):
    for n in range(1, 9):
        coeffs = rng.normal(size=(2, 3, 2 << n))
        diag, anti = _sector_entries(coeffs, n)
        assert diag.shape == anti.shape == (2, 3, 1 << n)
        for idx in np.ndindex(2, 3):
            row_diag, row_anti = _sector_entries(coeffs[idx], n)
            assert np.array_equal(diag[idx], row_diag)
            assert np.array_equal(anti[idx], row_anti)


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_family_residual_batched_beyond_six_qubits(rng, frame):
    n = 7
    inside = materialize(random_valid_x_params(rng, n, frame))
    stack = np.stack([inside, random_density(rng, 1 << n),
                      0.5 * inside + 0.5 * random_density(rng, 1 << n)])
    res = family_residual(stack, n, frame)
    assert res.shape == (3,)
    each = [family_residual(m, n, frame) for m in stack]
    assert np.max(np.abs(res - each)) <= 1e-12
    assert res[0] <= 1e-12 and min(res[1:]) > 1e-3


@settings(max_examples=100)
@given(x_params(8), st.floats(0.0, 9.0))
def test_validate_matches_dense_spectrum(p, shrink):
    # 2**-shrink scales the non-trace parameters, so physical states occur too
    scale = 2.0 ** -shrink
    p = XStateParams(p.n, (1.0,) + tuple(scale * v for v in p.d[1:]),
                     tuple(scale * v for v in p.a), p.frame)
    dense = np.linalg.eigvalsh(materialize(p))
    entries = _sector_entries(np.concatenate([p.d, p.a]), p.n)
    assert np.max(np.abs(np.sort(sector_eigenvalues(*entries)) - dense)) <= 1e-12
    report = validate(p)
    assert abs(report.min_eigenvalue - dense[0]) <= 1e-12
    assert report.trace_deviation <= 1e-12 and report.hermiticity_deviation <= 1e-12
    if abs(dense[0] - VALID_EIG_TOL) > 1e-12:
        assert report.is_valid == (dense[0] >= VALID_EIG_TOL)


@st.composite
def fit_cases(draw):
    """Parameters with entries in [-1, 1] for n = 2..7 in any frame, with
    d_1 at least 0.1 in size: the operator of d_1 (F(Z) on qubit n alone)
    lies in no other frame's family, so no other frame fits the state."""
    n = draw(st.integers(2, 7))
    frame = draw(st.sampled_from(sorted(FRAMES)))
    coeffs = arrays(np.float64, 1 << n, elements=st.floats(-1.0, 1.0))
    d = draw(coeffs)
    d[0] = 1.0
    d[1] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 1.0))
    return XStateParams(n, tuple(d), tuple(draw(coeffs)), frame)


@settings(max_examples=100)
@given(fit_cases())
def test_fit_sectors_recovers_the_sector_entries(p):
    rho = materialize(p)
    got = fit_sectors(rho, p.n)
    want = _sector_entries(np.concatenate([p.d, p.a]), p.n)
    if p.frame == "Z":      # X-shaped: the entries read off the matrix
        assert all(map(np.array_equal, got, (rho.diagonal().real, rho[:, ::-1].diagonal())))
        assert all(map(np.array_equal, got, want))
    else:                   # from the coefficients, which decompose returns
        q, _ = decompose(rho, p.n, p.frame)
        assert all(map(np.array_equal, got, _sector_entries(np.concatenate([q.d, q.a]), p.n)))
    assert all(np.max(np.abs(g - w)) <= 1e-12 for g, w in zip(got, want))
    off_family = rho.copy()
    off_family[0, 1] += 1e-3      # a Hermitian pair off the family of every frame
    off_family[1, 0] += 1e-3
    assert fit_sectors(off_family, p.n) is None


def test_fit_sectors_rejects_dense_states(rng):
    # at n = 1 every state is an X state of every frame
    for n in range(2, 8):
        assert fit_sectors(random_density(rng, 1 << n), n) is None


def test_real_state_projected_without_complex_copy(rng):
    n = 10
    real = rng.normal(size=(1 << n, 1 << n))
    peaks = {}
    for project in (lambda m: decompose(m, n, "X"), lambda m: family_residual(m, n, "Y"),
                    lambda m: decompose(m, n, "Z"), lambda m: family_residual(m, n, "Z")):
        for rho in (real, real.astype(complex)):
            tracemalloc.start()
            try:
                project(rho)
                peaks[rho.dtype.char] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["d"] <= peaks["D"] + (1 << 20)


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_overflowing_family_transform_raises(frame):
    # finite entries whose family coefficients overflow; RuntimeWarnings are
    # errors in the test settings, so this also checks that none is emitted
    big = np.full((4, 4), 1e308)
    with pytest.raises(ValueError, match="overflow"):
        decompose(big, 2, frame)
    for rho in (big, np.stack([np.eye(4) / 4, big])):
        with pytest.raises(ValueError, match="overflow"):
            family_residual(rho, 2, frame)


def test_params_accept_numpy_sequences():
    # RuntimeWarnings are errors in the test settings: d + a would add the
    # arrays elementwise and overflow
    p = XStateParams(1, np.array([1.0, 1e308]), np.array([0.0, 1e308]))
    assert p.d[1] == p.a[1] == 1e308
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            XStateParams(1, np.array([1.0, 0.0]), np.array([0.0, bad]))


# coeffs is d then a as one read-only float64 array, the bits of the
# tuples, whatever sequence type built them; it is no constructor argument
# and takes no part in the equality, the hash or the repr
@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_params_hold_their_coefficients_once(rng, frame):
    for n in (1, 2, 5):
        d = rng.normal(size=1 << n)
        d[0] = 1.0
        a = rng.normal(size=1 << n)
        for p in (XStateParams(n, tuple(d), tuple(a), frame), XStateParams(n, list(d), a, frame),
                  XStateParams(n, d.astype(np.float32), a.astype(np.float32), frame)):
            assert p.coeffs.dtype == np.float64 and p.coeffs.shape == (2 << n,)
            assert p.coeffs.tobytes() == np.concatenate([p.d, p.a]).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                p.coeffs[0] = 0.0
            q = XStateParams(n, p.d, p.a, frame)
            assert q == p and hash(q) == hash(p) and q.coeffs is not p.coeffs
            assert repr(q) == repr(p) and "coeffs" not in repr(p)
    p = ghz_params(3)                   # built from integer arrays
    assert p.coeffs.tobytes() == np.concatenate([p.d, p.a]).tobytes()
    with pytest.raises(TypeError):
        XStateParams(1, (1.0, 0.0), (0.0, 0.0), "Z", np.zeros(4))


# one power chain: m^k x0 by left products, only for the counts asked for,
# bitwise the matmuls m @ (m @ (... @ x0))
def test_powers_are_the_left_products_that_occur(rng):
    m, x0 = rng.normal(size=(2, 5, 4, 4))
    powers = model._powers(m, x0, [3, 0, 3, 1, 6])
    assert list(powers) == [0, 1, 3, 6] and powers[0] is x0
    p = x0
    for k in range(1, 7):
        p = m @ p
        if k in powers:
            assert powers[k].tobytes() == p.tobytes()
    assert model._powers(m, x0, []) == {} and list(model._powers(m, x0, [2])) == [2]


# the XOR rule stated once: each half's table is F[r, r ^ s] of its two
# factors summed from +0.0; in the X and Y frames one of the two keeps the
# basis bit and one flips it, so the other term is exactly 0
@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_xor_table_reads_r_xor_s_off_the_frame_factors(frame):
    factors = model._frame_factors(FRAMES[frame])
    want = np.empty((2, 2, 2), complex)
    for h, r, s in itertools.product(range(2), repeat=3):
        kept, flipped = factors[h, 0, r, r ^ s], factors[h, 1, r, r ^ s]
        want[h, r, s] = 0.0 + kept + flipped
        assert frame == "Z" or kept == 0 or flipped == 0
    assert model._xor_table(factors).tobytes() == want.tobytes()


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_decompose_returns_python_floats(rng, frame):
    for n in (1, 3, 5):
        rho = materialize(random_valid_x_params(rng, n, frame))
        q, _ = decompose(rho, n, frame)
        assert all(type(v) is float for v in q.d + q.a)
        coeffs = model._project(rho, n, frame, model._peak)[0]
        assert np.array_equal(q.d + q.a, coeffs)


@settings(max_examples=60)
@given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1))
def test_z_frame_materialize_matches_dense_oracle(n, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-1.0, 1.0, 1 << n)
    d[0] = 1.0
    p = XStateParams(n, tuple(d), tuple(rng.uniform(-1.0, 1.0, 1 << n)))
    rho = materialize(p)
    assert np.max(np.abs(rho - oracle_family_sum(p))) <= 1e-15
    x = np.zeros_like(rho, dtype=bool)
    np.fill_diagonal(x, True)
    np.fill_diagonal(x[:, ::-1], True)
    assert not rho[~x].any()
    diag, anti = _sector_entries(np.concatenate([p.d, p.a]), n)
    assert np.array_equal(rho.diagonal(), diag) and np.array_equal(rho[:, ::-1].diagonal(), anti)


@pytest.mark.parametrize("n", range(2, 13))
def test_z_frame_ghz_materialize_bitwise(n):
    rho = materialize(ghz_params(n))
    expect = np.zeros((1 << n, 1 << n), dtype=complex)
    expect[0, 0] = expect[0, -1] = expect[-1, 0] = expect[-1, -1] = 0.5
    assert rho.tobytes() == expect.tobytes()
    if n <= 7:
        assert rho.tobytes() == oracle_family_sum(ghz_params(n)).tobytes()


@settings(max_examples=60)
@given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1), st.sampled_from("XY"))
def test_xy_frame_materialize_bitwise_equal_to_dense_oracle(n, seed, frame):
    """Each entry of an X- or Y-frame matrix has exactly two nonzero terms,
    a d and an a term, each an exact multiple of its coefficient, so the
    oracle's sum rounds once, as the XOR gather's seed does; both give
    +0.0 for every zero."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(-1.0, 1.0, 1 << n)
    d[0] = 1.0
    p = XStateParams(n, tuple(d), tuple(rng.uniform(-1.0, 1.0, 1 << n)), frame)
    assert materialize(p).tobytes() == oracle_family_sum(p).tobytes()


@settings(max_examples=60)
@given(st.integers(1, 7), st.integers(0, 2 ** 32 - 1), st.sampled_from("XY"), st.booleans(),
       st.sampled_from([None, 0, 1, 3]))
def test_xy_frame_projection_matches_dense_oracle(n, seed, frame, real, count):
    """Any input, Hermitian or not, of any trace, real or complex, single
    (count None) or a stack of count matrices (0 included), with entries of
    a density matrix's size."""
    rng = np.random.default_rng(seed)
    dim = 1 << n
    shape = (dim, dim) if count is None else (count, dim, dim)
    rho = rng.uniform(-1.0, 1.0, shape) / dim
    if not real:
        rho = rho + 1j * rng.uniform(-1.0, 1.0, shape) / dim
    # each coefficient sums dim terms of size at most sqrt(2) / dim: the
    # projection in at most 2**(n // 2) + 2**((n + 1) // 2 - 1) roundings
    # (15 at n = 7), the oracle's pairwise sums of 4**n products in at
    # most 2n + 8: at most 45 in all
    tol = 2 * 45 * np.finfo(float).eps * math.sqrt(2)
    want_coeffs, want_res = oracle_family_projection(rho, n, frame)
    coeffs, _ = model._project(rho, n, frame, model._peak)
    assert coeffs.shape == want_coeffs.shape and coeffs.dtype == float
    assert np.max(np.abs(coeffs - want_coeffs), initial=0.0) <= tol
    residual = family_residual(rho, n, frame)
    assert np.max(np.abs(residual - want_res), initial=0.0) <= tol
    if count is None:
        q, res = decompose(rho, n, frame)
        assert np.array_equal(q.d + q.a, coeffs) and res == residual


def _dense_measure_peaks(rho, n, frame):
    """The traced peaks of decompose, negativity and family_residual of
    rho, each after a first call that builds the per-n tables."""
    peaks = []
    for measure in (lambda: decompose(rho, n, frame), lambda: negativity(rho, [1], n),
                    lambda: family_residual(rho, n, frame)):
        measure()
        tracemalloc.start()
        try:
            measure()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("frame", ["X", "Y"])
def test_xy_frame_projection_makes_one_dense_temporary(rng, frame):
    """decompose, negativity and family_residual of an n = 10 X- or
    Y-frame state: the gather is the only temporary of the input's size;
    the rest, O(2**(3n/2)) sums and seeds and strips of rows, take about
    2 MiB against the input's 16 MiB."""
    n = 10
    rho = materialize(random_valid_x_params(rng, n, frame))
    assert max(_dense_measure_peaks(rho, n, frame)) <= rho.nbytes * 5 // 4


def test_z_frame_projection_makes_no_dense_temporary(rng):
    """decompose, negativity and family_residual of an n = 10 Z-frame
    state read it a strip of rows at a time, with no copy: strips and
    O(2**n) X entries, far below a quarter of the input's 16 MiB."""
    n = 10
    rho = materialize(random_valid_x_params(rng, n, "Z"))
    assert max(_dense_measure_peaks(rho, n, "Z")) <= rho.nbytes // 4


def test_z_frame_x_shaped_round_trip_takes_no_dense_transform(rng):
    for n in (1, 4, 9):
        p = random_valid_x_params(rng, n, "Z")
        with mock.patch.object(model, "_xor_fill", wraps=model._xor_fill) as build, \
             mock.patch.object(model, "_xor_project", wraps=model._xor_project) as project:
            rho = materialize(p)
            decompose(rho, n, "Z")
            family_residual(rho, n, "Z")
            family_residual(np.stack([rho, rho]), n, "Z")
            rho[0, 1] = 1e-3          # off the X at n > 1: still no dense transform
            decompose(rho, n, "Z")
            family_residual(np.stack([rho, rho]), n, "Z")
            materialize(XStateParams(n, p.d, p.a, "X"))
        assert project.call_count == 0 and build.call_count == 1


@settings(max_examples=60)
@given(st.integers(1, 8), st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
def test_z_frame_projection_matches_dense(n, seed, real, shaped):
    """Any input, Hermitian or not, of any trace, single or stacked, with
    entries of a density matrix's size: X-shaped, or with entries off the
    X too, which the dense residual keeps as they are."""
    rng = np.random.default_rng(seed)
    dim = 1 << n
    stack = np.zeros((3, dim, dim), dtype=float if real else complex)
    if not shaped:      # entries everywhere, then overwritten on the X
        stack += rng.uniform(-1.0, 1.0, stack.shape) / dim
        if not real:
            stack += 1j * rng.uniform(-1.0, 1.0, stack.shape) / dim
    for rho in stack:
        for m in (rho, rho[:, ::-1]):
            v = rng.uniform(-1.0, 1.0, dim) / dim
            np.fill_diagonal(m, v if real else v + 1j * rng.uniform(-1.0, 1.0, dim) / dim)
    # each coefficient sums dim terms of size at most sqrt(2) / dim, in
    # blocks of at most 16 per level, and the oracle's pairwise sums of
    # 4**n products take at most 2n: at most 45 roundings in all
    tol = 2 * 45 * np.finfo(float).eps * math.sqrt(2)
    want_coeffs, want_res = oracle_family_projection(stack, n, "Z")
    for rho, c, r in zip(stack, want_coeffs, want_res):
        q, res = decompose(rho, n, "Z")
        assert np.max(np.abs(np.array(q.d + q.a) - c)) <= tol
        assert abs(res - r) <= tol
        assert res == family_residual(rho, n, "Z")
    assert np.max(np.abs(family_residual(stack, n, "Z") - want_res)) <= tol


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_x_shaped_projection_rejects_non_finite(bad):
    rho = materialize(ghz_params(3))
    for i, j in ((0, 0), (0, 7), (2, 5)):
        m = rho.copy()
        m[i, j] = bad
        with pytest.raises(ValueError, match="finite"):
            decompose(m, 3, "Z")
        with pytest.raises(ValueError, match="finite"):
            family_residual(np.stack([rho, m]), 3, "Z")
    m = rho.copy()
    m[0, 0] = m[7, 7] = 1e308                 # X-shaped; d_1 overflows
    with pytest.raises(ValueError, match="overflow"):
        decompose(m, 3, "Z")


@pytest.mark.parametrize("frame", sorted(FRAMES))
def test_projection_keeps_center_symmetry_bitwise(rng, frame):
    """The computed projection, materialize of the projected coefficients,
    commutes with the image g of Z_1 Z_2 with no rounding at all: the
    premise of the screen bound.  In the X and Y frames it is the dense
    oracle's sum bitwise, one rounding per entry."""
    for n in range(2, 9):
        dim = 1 << n
        rho = random_density(rng, dim) + 0.1 * rng.normal(size=(dim, dim))
        coeffs = model._project(rho, n, frame, model._peak)[0]
        p = XStateParams(n, coeffs[:dim], coeffs[dim:], frame)
        sigma = materialize(p)
        if frame != "Z" and n <= 6:
            assert sigma.tobytes() == oracle_family_sum(p).tobytes()
        g = oracle_center_image(n, frame)
        # g is a phased permutation matrix: each entry of g sigma g^dag is one
        # exact product
        assert np.array_equal((g @ sigma @ g.conj().T)[0], sigma[0])


@st.composite
def screen_cases(draw):
    """A state of one frame's family, n = 2..8, perturbed near SECTOR_FIT_TOL:
    either generically or by a center twist (conftest.center_twist), the
    direction in which the row screen is tightest."""
    n = draw(st.integers(2, 8))
    dim = 1 << n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = rng.uniform(-1.0, 1.0, dim) * 2.0 ** -draw(st.integers(0, 4))
    d[0] = 1.0
    a = rng.uniform(-1.0, 1.0, dim) * 2.0 ** -draw(st.integers(0, 4))
    rho = materialize(XStateParams(n, tuple(d), tuple(a), draw(st.sampled_from(sorted(FRAMES)))))
    if draw(st.booleans()):
        e = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        e /= np.linalg.norm(e)
    else:
        e = center_twist(rng, n, draw(st.sampled_from(sorted(FRAMES))))
    return rho + e * (2.0 ** draw(st.floats(-3.0, 3.0)) * SECTOR_FIT_TOL / math.sqrt(dim)), n


@settings(max_examples=300)
@given(screen_cases())
def test_screen_rejection_implies_failed_fit(case):
    rho, n = case
    for frame in FRAMES:
        if model._screen_deviation(rho, n, frame) > model._screen_bound(n):
            assert model._fit(rho, n, frame) is None


def test_screen_passes_family_states_of_its_frame(rng):
    for n in range(2, 11):
        for frame in sorted(FRAMES):
            rho = materialize(random_valid_x_params(rng, n, frame))
            assert model._screen_deviation(rho, n, frame) == 0.0
            others = [f for f in FRAMES if f != frame]
            assert all(model._screen_deviation(rho, n, f) > model._screen_bound(n)
                       for f in others)


def test_screened_fits_keep_the_transform_errors():
    # off every family in row 0, so every screen rejects; the skipped
    # projection would have raised, and still does
    rho = np.eye(8) / 8
    rho[0, 2] = rho[2, 0] = 0.1
    assert all(model._screen_deviation(rho, 3, f) > model._screen_bound(3) for f in FRAMES)
    for bad, match in ((1e308, "overflow"), (np.inf, "finite"), (np.nan, "finite")):
        m = rho.copy()
        m[5, 6] = m[6, 5] = bad
        with pytest.raises(ValueError, match=match):
            fit_sectors(m, 3)
    assert fit_sectors(rho, 3) is None
