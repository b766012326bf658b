from math import sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (oracle_negativity, oracle_wootters_concurrence,
                      random_product_states, random_unitary, random_valid_x_params)
from xstates import (PureState, Witness, XStateParams, concurrence, dicke_state,
                     evaluate_witness, ghz_params, ghz_state, make_witness,
                     materialize, named_example, negativity, strength_grid, sweep,
                     werner, witness, witness_report)
from xstates.linalg import hermitian_eigenvalues, x_matrix_entries


def spy_dense_spectrum():
    """Patch negativity's and concurrence's dense eigenvalue solver with a
    spy that still solves."""
    return mock.patch.object(witness, "hermitian_eigenvalues", wraps=hermitian_eigenvalues)


def test_dicke_examples():
    w3 = dicke_state(3, 1)
    expect = np.zeros(8, dtype=complex)
    expect[[1, 2, 4]] = 1 / np.sqrt(3)
    assert np.max(np.abs(w3.amplitudes - expect)) < 1e-15
    d24 = dicke_state(4, 2)
    assert np.count_nonzero(d24.amplitudes) == 6
    assert np.allclose(d24.amplitudes[d24.amplitudes != 0], 1 / np.sqrt(6))
    zero = dicke_state(3, 0)
    assert zero.amplitudes[0] == 1.0 and np.count_nonzero(zero.amplitudes) == 1
    with pytest.raises(ValueError):
        dicke_state(3, 4)


def test_ghz_state_literal_forms():
    z = ghz_state(3, "Z").amplitudes
    assert abs(z[0] - 1 / np.sqrt(2)) < 1e-15 and abs(z[7] - 1 / np.sqrt(2)) < 1e-15
    assert np.count_nonzero(z) == 2
    x = ghz_state(3, "X").amplitudes
    plus = np.ones(8) / np.sqrt(8)
    minus = np.array([(-1) ** bin(b).count("1") for b in range(8)]) / np.sqrt(8)
    assert np.max(np.abs(x - (plus + minus) / np.sqrt(2))) < 1e-15
    y = ghz_state(2, "Y").amplitudes
    up = np.array([1, 1j, 1j, -1]) / 2
    down = np.array([1, -1j, -1j, -1]) / 2
    assert np.max(np.abs(y - (up + down) / np.sqrt(2))) < 1e-15


def test_ghz_projector_matches_params_z_and_y_frames():
    for frame in ("Z", "Y"):
        proj = ghz_state(3, frame).projector()
        rho = materialize(ghz_params(3, frame))
        assert np.max(np.abs(proj - rho)) < 1e-12


def test_pure_state_requires_normalization():
    with pytest.raises(ValueError):
        PureState(1, np.array([1.0, 1.0]))


def test_pure_state_rejects_non_finite_amplitudes():
    with pytest.raises(ValueError):
        PureState(1, np.array([np.nan, 0.0]))


def test_witness_rejects_non_finite_matrix():
    with pytest.raises(ValueError):
        Witness(np.full((2, 2), np.nan))


def test_witness_holds_read_only_copy():
    source = make_witness("ghz_type", 2).matrix.copy()
    w = Witness(source)
    assert not w.matrix.flags.writeable
    with pytest.raises(ValueError):
        w.matrix[0, 1] = 1.0
    source[0, 1] = 1.0  # would break Hermiticity if the witness shared it
    assert w.matrix[0, 1] == 0.0


def test_evaluate_witness_rejects_bad_state():
    w = make_witness("ghz_type", 2)
    with pytest.raises(ValueError):
        evaluate_witness(w, np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        evaluate_witness(w, np.eye(8) / 8)


def test_dense_states_reject_qubit_counts_beyond_limit():
    with pytest.raises(ValueError):
        ghz_state(13)
    with pytest.raises(ValueError):
        dicke_state(13, 1)


def test_witness_values():
    w = make_witness("w_type", 3)
    rho = materialize(named_example("w_witness_state_3"))
    value, detects = evaluate_witness(w, rho)
    assert abs(value - (2 / 3 - 3 / 4)) < 1e-12
    assert detects
    report = witness_report(w, rho)
    assert report["witness"] == "w_type_3" and report["detects"] is True

    w = make_witness("dicke_2_4", 4)
    rho = materialize(named_example("dicke_witness_state_4"))
    value, detects = evaluate_witness(w, rho)
    assert abs(value + 1 / 12) < 1e-12
    assert detects

    w = make_witness("ghz_type", 3)
    value, detects = evaluate_witness(w, ghz_state(3).projector())
    assert abs(value + 0.5) < 1e-12
    assert detects


def test_witness_kind_errors():
    with pytest.raises(ValueError):
        make_witness("w_type", 4)
    with pytest.raises(ValueError):
        make_witness("dicke_2_4", 3)
    with pytest.raises(ValueError):
        make_witness("unknown", 3)


def test_witnesses_nonnegative_on_product_states(rng):
    cases = [(make_witness("w_type", 3), 3),
             (make_witness("dicke_2_4", 4), 4),
             (make_witness("ghz_type", 3), 3)]
    for w, n in cases:
        vectors = random_product_states(rng, n, 10_000)
        values = np.einsum("bi,ij,bj->b", vectors.conj(), w.matrix, vectors).real
        assert values.min() >= -1e-10


def test_negativity_examples():
    bell = ghz_state(2).projector()
    assert abs(negativity(bell, {1}, 2) - 0.5) < 1e-12
    assert abs(negativity(bell, {2}, 2) - 0.5) < 1e-12
    ghz3 = ghz_state(3).projector()
    from xstates import partial_trace

    marginal = partial_trace(ghz3, {2, 3}, 3)
    assert negativity(marginal, {1}, 2) < 1e-12
    product = np.kron(np.diag([1.0, 0.0]), np.diag([0.5, 0.5])).astype(complex)
    assert negativity(product, {2}, 2) < 1e-12


def test_negativity_local_unitary_invariant(rng):
    rho = materialize(werner(0.7))
    base = negativity(rho, {1}, 2)
    for _ in range(5):
        u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert abs(negativity(rotated, {1}, 2) - base) < 1e-9


def test_concurrence_examples():
    assert abs(concurrence(ghz_state(2).projector()) - 1.0) < 1e-10
    assert concurrence(np.eye(4) / 4) < 1e-12
    for p in (0.2, 0.5, 0.9):
        rho = materialize(werner(p))
        expect = max(0.0, (3 * p - 1) / 2)
        assert abs(concurrence(rho) - expect) < 1e-9
        assert abs(oracle_wootters_concurrence(rho) - expect) < 1e-9


def test_concurrence_matches_brute_force(rng):
    for _ in range(50):
        rho = materialize(random_valid_x_params(rng, 2))
        assert abs(concurrence(rho) - oracle_wootters_concurrence(rho)) < 1e-9


@pytest.mark.parametrize("frame", ["X", "Y"])
def test_concurrence_of_xy_frame_states_takes_yu_eberly(rng, frame):
    cases = [werner(p) for p in (0.2, 0.5, 0.9)]
    cases += [random_valid_x_params(rng, 2) for _ in range(50)]
    with spy_dense_spectrum() as dense:
        for p in cases:
            want = concurrence(materialize(p))      # Z frame: X-shaped
            rho = materialize(XStateParams(2, p.d, p.a, frame))
            assert abs(concurrence(rho) - want) <= 1e-12
            assert abs(oracle_wootters_concurrence(rho) - want) <= 1e-9
        assert dense.call_count == 0


def test_concurrence_swap_invariant(rng):
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    for _ in range(20):
        rho = materialize(random_valid_x_params(rng, 2))
        assert abs(concurrence(rho) - concurrence(swap @ rho @ swap)) < 1e-10


def test_concurrence_rejects_bad_input():
    with pytest.raises(ValueError):
        concurrence(np.eye(8) / 8)
    with pytest.raises(ValueError):
        concurrence(np.eye(4))  # trace 4, not a state


def test_concurrence_rejects_non_finite_state():
    with pytest.raises(ValueError):
        concurrence(np.full((4, 4), np.nan))
    # on the diagonal, the anti-diagonal and off both, as Hermitian pairs
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (0, 3), (0, 1)):
            rho = np.eye(4, dtype=complex) / 4
            rho[i, j] = rho[j, i] = bad
            with pytest.raises(ValueError):
                concurrence(rho)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_negativity_rejects_non_finite(bad):
    # X-shaped input takes the sector path, the rest the fit and dense path
    for i, j in ((1, 6), (1, 1), (0, 1)):
        rho = np.eye(8, dtype=complex) / 8
        rho[i, j] = rho[j, i] = bad
        with pytest.raises(ValueError):
            negativity(rho, {1}, 3)


def test_concurrence_negativity_agree_for_two_qubit_x_states(rng):
    detected = 0
    for _ in range(1000):
        rho = materialize(random_valid_x_params(rng, 2))
        c = concurrence(rho)
        neg = negativity(rho, {1}, 2)
        if c > 1e-8:
            detected += 1
            assert neg > 1e-12
        if neg > 1e-8:
            assert c > 1e-12
    assert 0 < detected < 1000  # the draw mixes entangled and separable states


@st.composite
def x_matrix_and_subset(draw, frames):
    """An X matrix in one of the frames, of any sign pattern (often not PSD,
    sometimes entangled), a nonempty qubit subset, and an off-X index pair."""
    n = draw(st.integers(2, 7))
    coeffs = arrays(np.float64, 1 << n, elements=st.floats(-1.0, 1.0))
    scale = 2.0 ** -draw(st.floats(0.0, n + 1.0))
    d = scale * draw(coeffs)
    d[0] = 1.0
    frame = draw(st.sampled_from(frames))
    rho = materialize(XStateParams(n, tuple(d), tuple(scale * draw(coeffs)), frame))
    subset = draw(st.sets(st.integers(1, n), min_size=1))
    full = (1 << n) - 1
    i = draw(st.integers(0, full))
    j = draw(st.integers(0, full).filter(lambda j: j not in (i, i ^ full)))
    return rho, subset, n, (i, j)


@settings(max_examples=60)
@given(x_matrix_and_subset(("Z",)))
def test_negativity_matches_index_loop_oracle(case):
    rho, subset, n, (i, j) = case
    assert x_matrix_entries(rho) is not None  # the sector path
    assert abs(negativity(rho, subset, n) - oracle_negativity(rho, subset, n)) <= 1e-12
    rho = rho.copy()
    rho[i, j] = rho[j, i] = 1e-3
    assert x_matrix_entries(rho) is None      # the dense path
    assert abs(negativity(rho, subset, n) - oracle_negativity(rho, subset, n)) <= 1e-12


@settings(max_examples=60)
@given(x_matrix_and_subset(("X", "Y")))
def test_negativity_of_xy_frame_states_from_fitted_sectors(case):
    rho, subset, n, (i, j) = case
    off_family = rho.copy()
    off_family[i, j] += 1e-3
    off_family[j, i] += 1e-3
    with spy_dense_spectrum() as dense:
        assert abs(negativity(rho, subset, n) - oracle_negativity(rho, subset, n)) <= 1e-12
        assert dense.call_count == 0                # the fitted sector path
        for m in (off_family, 2 * rho):             # off the family; trace 2
            assert abs(negativity(m, subset, n) - oracle_negativity(m, subset, n)) <= 1e-12
        # the dense path, except for an X-shaped 2 * rho (the Z-sector path)
        assert dense.call_count == 1 + (x_matrix_entries(rho) is None)
    rho[i, j] += 0.25
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity(rho, subset, n)


def test_negativity_rejects_non_hermitian_x_matrix():
    rho = materialize(ghz_params(3))
    rho[0, 7] = 0.25          # rho[7, 0] stays 0.5
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity(rho, {1}, 3)
    rho = materialize(ghz_params(3))
    rho[2, 2] += 1e-6j
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity(rho, {1}, 3)


@pytest.mark.parametrize("qubits", [[1], [2], [1, 2]])
def test_concurrence_of_damped_bell_state_matches_yu_eberly(qubits):
    # Amplitude damping at strength g scales the |00><11| coherence of |Phi+>
    # by sqrt(1 - g) per damped qubit.  One damped qubit leaves one of |01>,
    # |10> empty; both put g (1 - g) / 2 on each.  Yu-Eberly then gives
    # sqrt(1 - g) and (1 - g) - g (1 - g) = (1 - g)**2.
    grid = strength_grid(0.0, 1.0, 21)
    traj = sweep(werner(1.0), "amplitude_damping", qubits, grid)
    for g, c in zip(grid, traj.concurrence):
        expect = sqrt(1 - g) if len(qubits) == 1 else (1 - g) ** 2
        assert abs(c - expect) <= 1e-12, (g, c, expect)
