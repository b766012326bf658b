import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import oracle_pauli_matrix, random_density, random_valid_x_params
from xstates import (FRAMES, XStateParams, bell_diagonal, decompose,
                     dicke_state, family_residual, generate_set, ghz_params,
                     ghz_state, hermitian_eigen, materialize, named_example,
                     negativity, params_from_json, params_to_json, partial_trace,
                     partial_transpose, validate, werner)
from xstates.linalg import sector_eigenvalues
from xstates.model import VALID_EIG_TOL, _sector_entries

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
        for n in (1, 2, 3, 4):
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
    with pytest.raises(ValueError):
        XStateParams(2, (1.0, 0, 0, 0), (0, 0, 0, 0), frame="Q")


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
    for n in (1, 2, 3, 5, 7):
        inside = materialize(random_valid_x_params(rng, n, frame))
        outside = random_density(rng, 1 << n)
        for rho in (inside, outside, 0.5 * inside + 0.5 * outside):
            res = family_residual(rho, n, frame)
            assert type(res) is float
            assert res == decompose(rho, n, frame)[1]


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
