import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (SX, SZ, oracle_matrix_to_csv, oracle_matrix_to_json,
                      oracle_partial_trace, random_density)
from xstates import (PauliString, PureState, ToleranceError, XStateParams, apply_channel,
                     build_simplex, concurrence, decompose, dicke_state, evaluate_witness,
                     expectation, family_residual, generate_set, ghz_params, ghz_state,
                     hermitian_eigen, kron, make_witness, materialize, matrix_from_json,
                     matrix_to_csv, matrix_to_json, negativity, partial_trace,
                     partial_transpose, standard_channel, sweep, xy_product, z_product)
from xstates.algebra import MAX_GEOMETRY_QUBITS
from xstates.linalg import (ConvergenceError, as_state, hermitian_eigenvalues,
                            hermiticity_deviation, json_text, matrix_table, matrix_text)
from xstates.model import fit_sectors
from xstates.pauli import MAX_QUBITS


def test_kron_examples():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.array_equal(kron(SX, SZ), PauliString.from_label("+X1Z2").to_matrix())
    assert np.array_equal(np.diag(kron(SZ, SZ)), np.array([1, -1, -1, 1]))


def test_kron_trace_multiplicative(rng):
    for _ in range(20):
        a = random_density(rng, 4) * rng.normal()
        b = random_density(rng, 8) * rng.normal()
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-10


def test_kron_rejects_bad_dims():
    with pytest.raises(ValueError):
        kron(np.eye(3), np.eye(2))
    with pytest.raises(ValueError):
        kron(np.eye(2048), np.eye(4))


def test_hermiticity_deviation_equals_dense_formula(rng):
    # 512 and 1024 span several row strips, 2 and 64 one
    for dim in (2, 64, 512, 1024):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for m in (g, g + g.conj().T, g + g.conj().T + 1e-9 * g):
            assert hermiticity_deviation(m) == float(np.max(np.abs(m - m.conj().T)))
        nan = g + g.conj().T
        nan[dim - 1, 0] = np.nan
        assert np.isnan(hermiticity_deviation(nan))


def test_hermiticity_deviation_bounded_memory(rng):
    m = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
    tracemalloc.start()
    try:
        hermiticity_deviation(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # the matrix itself takes 16 MiB


def test_real_input_checked_without_complex_copy(rng):
    dense = rng.normal(size=(1024, 1024))
    tracemalloc.start()
    try:
        got = hermiticity_deviation(dense)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # the matrix itself takes 8 MiB
    assert got == hermiticity_deviation(dense.astype(complex))


def test_hermitian_eigenvalues_match_hermitian_eigen(rng):
    for dim in (1, 2, 4, 16, 64, 256):
        h = random_density(rng, dim)
        for m in (h + h.conj().T, (h + h.conj().T).real):
            w = hermitian_eigenvalues(m)
            assert np.all(np.diff(w) <= 0)
            assert np.max(np.abs(w - hermitian_eigen(m)[0])) <= 1e-12


@pytest.mark.parametrize("solve, lapack", [(hermitian_eigen, "eigh"),
                                           (hermitian_eigenvalues, "eigvalsh")])
def test_eigensolvers_share_their_errors(solve, lapack, monkeypatch):
    with pytest.raises(ValueError, match="not Hermitian"):
        solve(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        solve(np.full((2, 2), np.nan))

    def fail(h):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, lapack, fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        solve(np.eye(2))


def test_eigen_examples():
    w, _ = hermitian_eigen(np.diag([3.0, 1.0]))
    assert np.allclose(w, [3.0, 1.0])
    w, _ = hermitian_eigen(SX)
    assert np.allclose(w, [1.0, -1.0])
    w, _ = hermitian_eigen(ghz_state(3).projector())
    assert abs(w[0] - 1.0) < 1e-12 and np.max(np.abs(w[1:])) < 1e-12


def test_eigen_contract(rng):
    for dim in (2, 4, 16, 64, 256):
        h = random_density(rng, dim)
        h = h + h.conj().T
        w, v = hermitian_eigen(h)
        assert np.all(np.diff(w) <= 0)
        assert np.max(np.abs(h @ v - v * w)) < 1e-9 * dim
        assert abs(w.sum() - np.trace(h).real) < 1e-9
        assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) < 1e-8
        assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10


def test_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_rejects_non_finite():
    with pytest.raises(ValueError):
        hermitian_eigen(np.full((2, 2), np.nan))


def test_partial_trace_ghz_marginals():
    rho = ghz_state(3).projector()
    reduced = partial_trace(rho, {2, 3}, 3)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.max(np.abs(reduced - expect)) < 1e-14
    assert np.max(np.abs(reduced - oracle_partial_trace(rho, [2, 3], 3))) < 1e-14
    single = partial_trace(rho, {3}, 3)
    assert np.max(np.abs(single - np.eye(2) / 2)) < 1e-14


def test_partial_trace_product_rule(rng):
    a = random_density(rng, 4)
    b = random_density(rng, 2)
    rho = kron(a, b)
    assert np.max(np.abs(partial_trace(rho, {1, 2}, 3) - a * np.trace(b))) < 1e-12
    assert np.max(np.abs(partial_trace(rho, {3}, 3) - b * np.trace(a))) < 1e-12
    assert abs(np.trace(partial_trace(rho, {2}, 3)) - 1.0) < 1e-12


def test_partial_trace_keeps_relative_order(rng):
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    c = random_density(rng, 2)
    rho = kron(kron(a, b), c)
    got = partial_trace(rho, [1, 3], 3)
    assert np.max(np.abs(got - kron(a, c))) < 1e-12
    assert np.max(np.abs(got - oracle_partial_trace(rho, [1, 3], 3))) < 1e-12


def test_partial_trace_rejects_bad_subsets():
    rho = np.eye(4) / 4
    for keep in (set(), {1, 2}, {3}):
        with pytest.raises(ValueError):
            partial_trace(rho, keep, 2)


def test_partial_transpose_involution(rng):
    rho = random_density(rng, 8)
    pt = partial_transpose(rho, {2}, 3)
    assert np.array_equal(partial_transpose(pt, {2}, 3), rho)
    assert abs(np.trace(pt) - np.trace(rho)) == 0.0
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-15


def test_partial_transpose_product_state_stays_psd(rng):
    rho = kron(random_density(rng, 2), random_density(rng, 2))
    w, _ = hermitian_eigen(partial_transpose(rho, {2}, 2))
    assert w.min() > -1e-12


def test_partial_transpose_bell_negative_eigenvalue():
    rho = ghz_state(2).projector()
    w, _ = hermitian_eigen(partial_transpose(rho, {2}, 2))
    assert abs(w.min() + 0.5) < 1e-12


def test_expectation_examples():
    n = 3
    dim = 1 << n
    assert abs(expectation(np.eye(dim) / dim, np.eye(dim)) - 1.0) < 1e-12
    bell = ghz_state(2).projector()
    assert abs(expectation(bell, PauliString.from_label("+Z1Z2").to_matrix()) - 1.0) < 1e-12
    ghz3 = ghz_state(3).projector()
    assert abs(expectation(ghz3, PauliString.from_label("+X1X2X3").to_matrix()) - 1.0) < 1e-12


def test_expectation_errors(rng):
    with pytest.raises(ValueError):
        expectation(np.eye(2), np.eye(4))
    with pytest.raises(ValueError):
        expectation(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    skew = np.array([[0.0, 1j], [0.0, 0.0]])  # not a state: forces imaginary trace
    with pytest.raises(ToleranceError):
        expectation(skew, SX)


def test_expectation_rejects_non_finite_observable():
    with pytest.raises(ValueError):
        expectation(np.eye(2) / 2, np.full((2, 2), np.nan))


def test_expectation_rejects_non_finite_state():
    with pytest.raises(ValueError):
        expectation(np.full((2, 2), np.nan), SZ)


def test_matrix_dump_round_trip(rng):
    m = random_density(rng, 4)
    assert np.max(np.abs(matrix_from_json(matrix_to_json(m)) - m)) == 0.0
    csv = matrix_to_csv(m)
    rows = [line.split(",") for line in csv.strip().split("\n")]
    rebuilt = np.array([[float(r[2 * j]) + 1j * float(r[2 * j + 1])
                         for j in range(4)] for r in rows])
    assert np.max(np.abs(rebuilt - m)) == 0.0
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})


# a dump's dim follows the integer rule (pauli.is_integer): a float, a bool
# or a string is a malformed dump even when its int() fits the entries
@pytest.mark.parametrize("dim,size", [(2.9, 2), (2.0, 2), (True, 1), ("2", 2), (None, 2)])
def test_matrix_dump_dim_must_be_an_integer(dim, size):
    dump = {"dim": dim, "re": np.eye(size).tolist(), "im": np.zeros((size, size)).tolist()}
    with pytest.raises(ValueError, match="malformed matrix dump"):
        matrix_from_json(dump)
    dump["dim"] = np.int64(size)
    assert matrix_from_json(dump).tobytes() == np.eye(size, dtype=complex).tobytes()


_SPECIALS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 1e-300, -2.5e17]


def _special_matrix(rng, dim):
    """Random complex entries with -0.0, NaN and +-inf mixed into both parts."""
    specials = np.array(_SPECIALS)
    parts = rng.standard_normal((2, dim, dim))
    mask = rng.random((2, dim, dim)) < 0.4
    parts[mask] = rng.choice(specials, size=mask.sum())
    m = np.empty((dim, dim), dtype=complex)
    m.real, m.imag = parts    # 1j * inf would turn the real part to NaN
    return m


@pytest.mark.parametrize("dim", [0, 1, 2, 5, 16])
def test_matrix_dumps_match_elementwise_oracles(rng, dim):
    for m in (_special_matrix(rng, dim), rng.standard_normal((dim, dim))):
        got = matrix_to_json(m)
        assert all(type(x) is float for part in ("re", "im") for row in got[part] for x in row)
        # NaN != NaN, so the dumps are compared as the text the CLI prints
        assert json_text(got) == json.dumps(oracle_matrix_to_json(m), indent=2) + "\n"
        assert matrix_text(*matrix_table(m)) == json_text(got)
        assert matrix_to_csv(m) == oracle_matrix_to_csv(m)


def test_matrix_text_writes_each_entry_through_the_index(rng):
    m = _special_matrix(rng, 8)
    table = m.ravel()[rng.permutation(64)][:20]
    index = rng.integers(0, 20, (8, 8))
    full = table[index]
    assert matrix_text(table, index) == json.dumps(oracle_matrix_to_json(full), indent=2) + "\n"
    assert matrix_text(table, index, "csv") == oracle_matrix_to_csv(full)
    with pytest.raises(ValueError, match="json or csv"):
        matrix_text(table, index, "dot")


_SPECIAL_FLOATS = st.sampled_from(_SPECIALS)
_FLOATS = st.one_of(_SPECIAL_FLOATS, st.floats(),
                    st.builds(np.float64, st.one_of(_SPECIAL_FLOATS, st.floats())))
_TEXTS = st.one_of(st.text(), st.sampled_from(
    ['', '"', "\\", "a\"b\\c", "\x00\x1f\n\t\x7f", "\u00e9\u2713\U0001f600", "\u2028"]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _TEXTS, _FLOATS)
# homogeneous lists take the writer's joined paths, mixed ones the per-item path
_LEAVES = st.one_of(_SCALARS, st.lists(_FLOATS), st.lists(st.floats()),
                    st.lists(st.integers()), st.lists(st.booleans()), st.lists(_SCALARS))
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(_TEXTS, children, max_size=4)),
    max_leaves=20)


@settings(max_examples=300)
@given(_PAYLOADS)
@example([1, 1.0, True])
@example({"": [[], {}, ()], "x": {"y": [[[]]]}})
@example(_SPECIALS)
@example([np.float64(math.nan), np.float64(-0.0), 2.5])
def test_json_text_equals_indented_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2) + "\n"


_INT_TABLES = [
    [[1, 2, 3], [4, 5, 6]],
    ((1, 2), (3, 4)),
    [(0, 1, 2), [3, 4, 5]],
    {"lines": ((0, 1, 2), (0, 3, 4)), "n": 2},
    [[[1, 2]], [[3, 4]]],
    [[1, 2], [3]],                      # ragged
    [[1, True], [0, 1]],                # a bool among ints
    [[True, False], [False, True]],
    [[2**64, -2**70], [0, 1]],          # ints beyond 64 bits
    [[], []],                           # empty rows
    [[], [1]],
    [[1.0, 2.0], [3.0, 4.0]],           # float rows
    [[1, 2.0], [3, 4]],
    [[1, 2], "ab"],
    [[-1]],
]


@pytest.mark.parametrize("obj", _INT_TABLES)
def test_json_text_integer_tables_equal_indented_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2) + "\n"


def _rows(k, cells):
    """Lists of up to 6 rows of k cells each, as lists or tuples."""
    return st.lists(st.one_of(st.lists(cells, min_size=k, max_size=k),
                              st.tuples(*[cells] * k)), max_size=6)


# all-int tables take the template; a bool anywhere sends them per row
@settings(max_examples=200)
@given(st.integers(0, 4).flatmap(lambda k: st.one_of(
    _rows(k, st.integers()), _rows(k, st.one_of(st.integers(-3, 3), st.booleans())))))
def test_json_text_rows_of_ints_equal_indented_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2) + "\n"


def test_json_text_rejects_what_json_rejects_and_non_str_keys():
    for bad in ({("a",): 1}, [np.int64(1)], [{"a": {1, 2}}], object()):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            json_text(bad)
    # json would write these keys as "1" and "null"; no payload has them
    for bad in ({1: 2}, {"a": {None: 1}}):
        with pytest.raises(TypeError, match="keys must be str"):
            json_text(bad)


def test_as_state_dtype_rule_and_shapes():
    for dtype in (np.float64, np.complex128):
        m = np.eye(4, dtype=dtype)
        assert as_state(m, 2) is m
    for dtype in (np.int64, np.float32, np.complex64, bool):
        assert as_state(np.eye(4, dtype=dtype), 2).dtype == np.complex128
    stack = np.zeros((2, 3, 4, 4))
    assert as_state(stack, 2, stack=True) is stack
    for bad in (np.eye(4)[0], np.eye(8), np.zeros((4, 2)), np.zeros((1, 4, 4))):
        with pytest.raises(ValueError, match=r"2-qubit state must have shape \(4, 4\)"):
            as_state(bad, 2)
    with pytest.raises(ValueError, match=r"shape \(\.\.\., 4, 4\)"):
        as_state(np.eye(8), 2, stack=True)


SINGLE_STATE_ENTRY_POINTS = {
    "decompose": lambda rho, n: decompose(rho, n, "X"),
    "partial_trace": lambda rho, n: partial_trace(rho, {1}, n),
    "partial_transpose": lambda rho, n: partial_transpose(rho, {1}, n),
    "negativity": lambda rho, n: negativity(rho, {1}, n),
    "concurrence": lambda rho, n: concurrence(rho),
    "fit_sectors": fit_sectors,
}


@pytest.mark.parametrize("name", sorted(SINGLE_STATE_ENTRY_POINTS))
def test_single_state_entry_points_reject_stacks_and_wrong_dimensions(name):
    call = SINGLE_STATE_ENTRY_POINTS[name]
    state = np.eye(4) / 4
    call(state, 2)
    for bad in (state[None], np.eye(8) / 8, np.eye(2) / 2):
        with pytest.raises(ValueError, match="2-qubit state must have shape"):
            call(bad, 2)


GATED_ENTRY_POINTS = {
    **SINGLE_STATE_ENTRY_POINTS,
    "family_residual": lambda rho, n: family_residual(rho, n, "X"),
    "apply_channel": lambda rho, n: apply_channel(rho, standard_channel("depolarizing", 0.5),
                                                  [1], n),
    "evaluate_witness": lambda rho, n: evaluate_witness(make_witness("ghz_type", n), rho),
}


@pytest.mark.parametrize("name", sorted(GATED_ENTRY_POINTS))
def test_entry_points_reject_non_finite_and_overflowing_entries(name):
    call = GATED_ENTRY_POINTS[name]
    state = np.eye(4) / 4
    call(state, 2)
    # 1e308 is above DBL_MAX / (2 dim) = 2.2e307 at n = 2; both X-shaped
    # and dense positions, and imaginary parts too
    for bad, text in ((np.nan, "not finite"), (np.inf, "not finite"),
                      (-np.inf, "not finite"), (1e308, "overflow"), (-1e308, "overflow"),
                      (1e308j, "overflow"), (complex(0, np.nan), "not finite")):
        for i, j in ((0, 0), (0, 3), (1, 3)):
            m = state.astype(type(bad))
            m[i, j] = bad
            with pytest.raises(ValueError, match=f"state entries .*{text}"):
                call(m, 2)
    # the largest entry the gate passes, and a transposed (strided) view
    edge = np.full((4, 4), np.finfo(float).max / 8)
    assert as_state(edge, 2) is edge
    assert as_state(edge + 0j, 2).shape == (4, 4)
    m = np.zeros((4, 4), complex)
    m[2, 1] = complex(0, np.inf)
    with pytest.raises(ValueError, match="not finite"):
        as_state(m.T, 2)


def test_stack_entry_points_take_empty_stacks():
    empty = np.empty((0, 4, 4))
    assert family_residual(empty, 2).shape == (0,)
    out = apply_channel(empty, standard_channel("depolarizing", 0.5), [1], 2)
    assert out.shape == (0, 4, 4)


QUBIT_COUNT_ENTRY_POINTS = {
    "decompose": lambda n: decompose(np.eye(1), n),
    "family_residual": lambda n: family_residual(np.eye(1), n),
    "fit_sectors": lambda n: fit_sectors(np.ones((1, 1)), n),
    "negativity": lambda n: negativity(np.eye(1), set(), n),
    "apply_channel": lambda n: apply_channel(np.eye(1), standard_channel("depolarizing", 0.5),
                                             [], n),
}


@pytest.mark.parametrize("n", [0, 13])
@pytest.mark.parametrize("name", sorted(QUBIT_COUNT_ENTRY_POINTS))
def test_state_entry_points_reject_qubit_count_out_of_range(name, n):
    with pytest.raises(ValueError, match=rf"qubit count must be an integer in 1\.\.12, got {n}"):
        QUBIT_COUNT_ENTRY_POINTS[name](n)


# each entry point's (call, low, high): every one runs pauli.require_qubit_count
# before it computes 1 << n
QUBIT_COUNT_GATES = {
    "PauliString": (lambda n: PauliString(n, 0, 0), 1, MAX_QUBITS),
    "generate_set": (generate_set, 1, 12),
    "build_simplex": (build_simplex, 1, MAX_GEOMETRY_QUBITS),
    "XStateParams": (lambda n: XStateParams(n, (1.0, 0.0), (0.0, 0.0)), 1, 12),
    "XStateParams.build": (XStateParams.build, 1, 12),
    "ghz_params": (ghz_params, 2, 12),
    "as_state": (lambda n: as_state(np.eye(2), n), 1, 12),
    "dicke_state": (lambda n: dicke_state(n, 1), 1, 12),
    "ghz_state": (ghz_state, 2, 12),
    "PureState": (lambda n: PureState(n, [1.0, 0.0]), 1, 12),
}


@pytest.mark.parametrize("n", [True, 2.5, 0, -1, 13, 100])
@pytest.mark.parametrize("name", sorted(QUBIT_COUNT_GATES))
def test_qubit_count_gate(name, n):
    call, low, high = QUBIT_COUNT_GATES[name]
    if type(n) is int and low <= n <= high:     # 13 Pauli qubits are allowed
        call(n)
        return
    with pytest.raises(ValueError, match=rf"^qubit count must be an integer in {low}\.\.{high}, "
                                         rf"got {re.escape(repr(n))}$"):
        call(n)


GHZ3 = ghz_params(3, "X")
GHZ3_RHO = materialize(GHZ3)

# each entry point called with one qubit index, mask or phase q
INDEX_GATES = {
    "sweep": lambda q: sweep(GHZ3, "amplitude_damping", [q], [0.0, 0.5],
                             witness_kind="ghz_type"),
    "apply_channel": lambda q: apply_channel(GHZ3_RHO, standard_channel("amplitude_damping",
                                                                        0.5), [q], 3),
    "negativity": lambda q: negativity(GHZ3_RHO, [q], 3),
    "partial_trace": lambda q: partial_trace(GHZ3_RHO, [q], 3),
    "partial_transpose": lambda q: partial_transpose(GHZ3_RHO, [q], 3),
    "PauliString.x_mask": lambda q: PauliString(2, q, 0),
    "PauliString.z_mask": lambda q: PauliString(2, 0, q),
    "PauliString.phase": lambda q: PauliString(2, 0, 0, q),
    "PauliString.single": lambda q: PauliString.single("Y", q, 2),
    "PauliString.axis_on": lambda q: PauliString(2, 1, 2).axis_on(q),
    "z_product": lambda q: z_product(q, 2),
    "xy_product": lambda q: xy_product(q, 2),
}


# an index is an Integral that is not a bool, as a qubit count is: True is not
# qubit 1, and 2.0 is not qubit 2; a numpy integer is its int
@pytest.mark.parametrize("name", sorted(INDEX_GATES))
def test_index_gates_take_integers_only(name):
    call = INDEX_GATES[name]
    for bad in (True, np.True_, 2.0, "1"):
        with pytest.raises(ValueError):
            call(bad)
    got, want = call(np.int64(1)), call(1)
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want
    if isinstance(got, PauliString):
        assert all(type(v) is int for v in (got.n, got.x_mask, got.z_mask, got.phase))
        assert got.weight == want.weight   # int.bit_count on numpy 1.24 too


def test_stack_entry_points_reject_wrong_dimensions():
    ch = standard_channel("depolarizing", 0.5)
    for call in (lambda rho: family_residual(rho, 2), lambda rho: apply_channel(rho, ch, [1], 2)):
        call(np.eye(4)[None] / 4)
        for bad in (np.eye(8) / 8, np.zeros((3, 4, 2)), np.zeros(4)):
            with pytest.raises(ValueError, match="2-qubit state must have shape"):
                call(bad)
