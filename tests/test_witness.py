import functools
import tracemalloc
from math import copysign, sqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (center_twist, fit_is_rounding_dependent, kron_chain, oracle_fit_distance,
                      oracle_fit_sectors, oracle_negativity, oracle_witness_matrix,
                      oracle_wootters_concurrence, random_density, random_product_states,
                      random_unitary, random_valid_x_params, unscreened_fit_sectors)
from xstates import (FRAMES, PureState, Witness, XStateParams, apply_channel, concurrence,
                     dicke_state, evaluate_witness, ghz_params, ghz_state, make_witness,
                     materialize, named_example, negativity, standard_channel,
                     strength_grid, sweep, werner, witness, witness_report)
from xstates import linalg, model
from xstates.linalg import ToleranceError, hermitian_eigen, hermitian_eigenvalues
from xstates.witness import DETECTION_TOL


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
    for k in (4, -1, 1.5, True, "1"):
        with pytest.raises(ValueError, match=r"^excitation count must be in 0\.\.3$"):
            dicke_state(3, k)
    assert np.array_equal(dicke_state(3, np.int64(1)).amplitudes, w3.amplitudes)


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


def test_witness_rejects_non_finite_or_non_real_alpha():
    for alpha in (np.nan, np.inf, -np.inf, 0.5 + 0.1j, np.complex128(0.5), "0.5"):
        with pytest.raises(ValueError, match="alpha"):
            Witness(alpha, ghz_state(2))


def test_evaluate_witness_rejects_bad_state():
    w = make_witness("ghz_type", 2)
    with pytest.raises(ValueError):
        evaluate_witness(w, np.full((4, 4), np.nan))
    with pytest.raises(ValueError):
        evaluate_witness(w, np.eye(8) / 8)
    with pytest.raises(ValueError, match="2-qubit witness given a 3-qubit state"):
        evaluate_witness(w, ghz_params(3))


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
    for kind, n in (("w_type", 3), ("dicke_2_4", 4), ("ghz_type", 3)):
        w = make_witness(kind, n)
        vectors = random_product_states(rng, n, 10_000)
        m = oracle_witness_matrix(w.alpha, w.psi)
        values = np.einsum("bi,ij,bj->b", vectors.conj(), m, vectors).real
        assert values.min() >= -1e-10
        for v, want in zip(vectors[:50], values):   # the dense route agrees
            assert abs(evaluate_witness(w, np.outer(v, v.conj()))[0] - want) <= 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
def test_dense_witness_route_copies_no_state(rng, dtype):
    """The GHZ witness reads four entries; a psi with full support reads
    all of rho, a strip of rows at a time, with no copy of it."""
    amplitudes = rng.normal(size=1 << 10) + 1j * rng.normal(size=1 << 10)
    full = Witness(0.5, PureState(10, amplitudes / np.linalg.norm(amplitudes)))
    rho = np.eye(1 << 10, dtype=dtype) / (1 << 10)   # 8 or 16 MiB
    for w in (make_witness("ghz_type", 10), full):
        tracemalloc.start()
        try:
            value, _ = evaluate_witness(w, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert abs(value - (0.5 - 1 / 1024)) <= 1e-12


@functools.lru_cache(maxsize=None)
def bundled_witness(kind, n):
    """A bundled witness and its dense oracle matrix, built once."""
    w = make_witness(kind, n)
    return w, oracle_witness_matrix(w.alpha, w.psi)


@st.composite
def dense_witness_cases(draw):
    """A bundled witness (GHZ at n = 2..10, W, Dicke(4, 2)) or a custom
    one whose random psi has full support, with its oracle matrix, and a
    dense X state of any frame for its qubit count."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        amplitudes = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        w = Witness(float(rng.uniform(0.0, 1.0)),
                    PureState(n, amplitudes / np.linalg.norm(amplitudes)), "custom")
        m = oracle_witness_matrix(w.alpha, w.psi)
    else:
        w, m = bundled_witness(*draw(st.sampled_from(
            [("w_type", 3), ("dicke_2_4", 4)] + [("ghz_type", n) for n in range(2, 11)])))
    rho = materialize(random_valid_x_params(rng, w.psi.n, draw(st.sampled_from("ZXY"))))
    full = (1 << w.psi.n) - 1
    return w, m, rho, draw(st.integers(0, full)), draw(st.integers(1, full))


@settings(max_examples=60)
@given(dense_witness_cases())
def test_dense_witness_reads_only_the_support(case):
    """The support-only route against the dense oracle, on a complex state
    and on its real part; an entry off supp psi x supp psi, off the
    diagonal, does not change the value's bits."""
    w, m, rho, r, flip = case
    for state in (rho, rho.real):
        want = np.einsum("ij,ji->", m, state).real
        value, detects = evaluate_witness(w, state)
        assert abs(value - want) <= 1e-12
        assert detects == (want < DETECTION_TOL)
    support = w.psi.amplitudes.nonzero()[0]
    if r not in support:
        c = r ^ flip                      # off the diagonal
        off = rho.copy()
        off[r, c] += 0.25
        off[c, r] += 0.25
        assert evaluate_witness(w, off)[0] == evaluate_witness(w, rho)[0]


WITNESS_CASES = [("w_type", 3), ("dicke_2_4", 4)] + [("ghz_type", n) for n in range(2, 9)]


@st.composite
def witness_cases(draw):
    """A bundled witness, X-state parameters in any frame and a dense state
    outside every family, for the witness's qubit count."""
    kind, n = draw(st.sampled_from(WITNESS_CASES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_valid_x_params(rng, n, draw(st.sampled_from("ZXY")))
    full = (1 << n) - 1
    return make_witness(kind, n), p, random_density(rng, 1 << n), (
        draw(st.integers(0, full)), draw(st.integers(0, full)))


@settings(max_examples=60)
@given(witness_cases())
def test_witness_routes_match_dense_oracle(case):
    w, p, dense, (i, j) = case
    m = oracle_witness_matrix(w.alpha, w.psi)
    rho = materialize(p)
    want = np.einsum("ij,ji->", m, rho).real
    assert abs(evaluate_witness(w, p)[0] - want) <= 1e-12            # parameters
    assert abs(evaluate_witness(w, rho)[0] - want) <= 1e-12          # dense X state
    want = np.einsum("ij,ji->", m, dense).real
    assert abs(evaluate_witness(w, dense)[0] - want) <= 1e-12        # dense, no family
    want = np.einsum("ij,ji->", m, dense.real).real
    assert abs(evaluate_witness(w, dense.real)[0] - want) <= 1e-12   # float64
    bad = rho.copy()
    bad[i, j] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        evaluate_witness(w, bad)
    with pytest.raises(ValueError, match="must have shape"):
        evaluate_witness(w, rho[:, :-1])
    # anti-Hermitian part i eps |psi><psi| gives the value imaginary part eps (alpha - 1)
    skew = rho + 1e-6j * w.psi.projector()
    assert abs(np.einsum("ij,ji->", m, skew).imag) > 1e-10
    with pytest.raises(ToleranceError):
        evaluate_witness(w, skew)


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
    with spy_dense_spectrum() as dense:
        assert abs(negativity(rho, subset, n) - oracle_negativity(rho, subset, n)) <= 1e-12
        assert dense.call_count == 0              # the sector path
        rho = rho.copy()
        rho[i, j] = rho[j, i] = 1e-3
        assert abs(negativity(rho, subset, n) - oracle_negativity(rho, subset, n)) <= 1e-12
        assert dense.call_count == 1              # the dense path


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
        # the dense path for both: 2 * rho fits no frame, as its trace is 2
        assert dense.call_count == 2
    rho[i, j] += 0.25
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity(rho, subset, n)


def test_negativity_rejects_non_hermitian_x_matrix():
    # X-shaped, but no Z-frame projection fits: the dense gate rejects it
    for (i, j), bump, text in (((0, 7), -0.25, "2.500e-01"),     # rho[7, 0] stays 0.5
                               ((2, 2), 1e-6j, "2.000e-06")):
        rho = materialize(ghz_params(3))
        rho[i, j] += bump
        with spy_dense_spectrum() as dense, \
             pytest.raises(ValueError, match=rf"^matrix is not Hermitian \(deviation {text}\)$"):
            negativity(rho, {1}, 3)
        assert dense.call_count == 1


@pytest.mark.parametrize("qubits", [[1], [2], [1, 2]])
def test_concurrence_of_damped_bell_state_matches_yu_eberly(qubits):
    # Amplitude damping at strength g scales the |00><11| coherence of |Phi+>
    # by sqrt(1 - g) per damped qubit.  One damped qubit leaves one of |01>,
    # |10> empty; both put g (1 - g) / 2 on each.  Yu-Eberly then gives
    # sqrt(1 - g) and (1 - g) - g (1 - g) = (1 - g)**2.
    # The dense damped state is X-shaped with exact zero populations: its
    # Z-frame fit must keep them, or Yu-Eberly's square roots turn rounding
    # into errors near 1e-8.
    grid = strength_grid(0.0, 1.0, 21)
    traj = sweep(werner(1.0), "amplitude_damping", qubits, grid)
    bell = materialize(werner(1.0))
    for g, c in zip(grid, traj.concurrence):
        expect = sqrt(1 - g) if len(qubits) == 1 else (1 - g) ** 2
        dense = concurrence(apply_channel(bell, standard_channel("amplitude_damping", g),
                                          qubits, 2))
        assert abs(c - expect) <= 1e-12 and abs(dense - expect) <= 1e-12, (g, c, dense, expect)



def oracle_ghz(n, frame):
    """(|u..u> + |v..v>)/sqrt(2) by a chain of np.kron."""
    up, down = {"Z": ([1, 0], [0, 1]), "X": ([1, 1], [1, -1]), "Y": ([1, 1j], [1, -1j])}[frame]
    scale = 1.0 if frame == "Z" else sqrt(2)
    up, down = (np.array(v, dtype=complex) / scale for v in (up, down))
    return (kron_chain([up] * n) + kron_chain([down] * n)).ravel() / sqrt(2)


# each frame's U^dag is made once per process and read-only, with the bits
# of a fresh unitary: a witness value of parameters runs no eigh
def test_frame_unitary_is_made_once_per_frame(rng):
    w = make_witness("ghz_type", 4)
    states = [random_valid_x_params(rng, 4, frame) for frame in "ZXY"]
    first = [evaluate_witness(w, p) for p in states]
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        again = [evaluate_witness(w, p) for p in states]
    assert eigh.call_count == 0
    assert again == first
    assert sorted(witness._FRAME_ADJOINTS) == sorted(FRAMES)
    for frame, u_dag in witness._FRAME_ADJOINTS.items():
        assert u_dag.tobytes() == FRAMES[frame].unitary().conj().T.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            u_dag[0, 0] = 0.0


@pytest.mark.parametrize("n", range(2, 13))
def test_ghz_amplitudes_bitwise_equal_kron_chain(n):
    for frame in ("X", "Y", "Z"):
        assert ghz_state(n, frame).amplitudes.tobytes() == oracle_ghz(n, frame).tobytes()


def test_concurrence_checks_hermiticity_once(rng):
    # a fitted state is within SECTOR_FIT_TOL of a Hermitian projection, so
    # its route computes no Hermiticity deviation; any other rho's is the
    # eigensolver's, once (the final spectrum's solver checks its own matrix)
    for rho, count in ((materialize(werner(0.7)), 0), (random_density(rng, 4), 1)):
        with mock.patch.object(linalg, "hermiticity_deviation",
                               wraps=linalg.hermiticity_deviation) as dense, \
             mock.patch.object(linalg, "sector_hermiticity_deviation",
                               wraps=linalg.sector_hermiticity_deviation) as sector:
            concurrence(rho)
        checked = [c.args[0] for c in dense.call_args_list]
        assert sum(m is rho for m in checked) == count and sector.call_count == 0
        assert len(checked) == 2 * count


def test_non_hermitian_input_rejected_on_every_route(rng):
    x_shaped = materialize(werner(0.7))
    fitted = materialize(random_valid_x_params(rng, 2, "Y"))
    dense = random_density(rng, 4)
    with spy_dense_spectrum() as spectrum:
        concurrence(x_shaped)
        concurrence(fitted)
        assert spectrum.call_count == 0          # the Z- and Y-frame fits
        concurrence(dense)
        assert spectrum.call_count == 1          # the dense route
    # a non-Hermitian rho fits no frame, X-shaped or not: the dense gate
    # rejects it
    text = r"^matrix is not Hermitian \(deviation 1\.000e-06\)$"
    for rho in (x_shaped, fitted, dense):
        rho = rho.copy()
        rho[0, 3] += 1e-6                        # no longer conj(rho[3, 0])
        with mock.patch.object(witness, "hermitian_eigen", wraps=hermitian_eigen) as eigen, \
             pytest.raises(ValueError, match=text):
            concurrence(rho)
        with spy_dense_spectrum() as spectrum, pytest.raises(ValueError, match=text):
            negativity(rho, {1}, 2)
        assert eigen.call_count == spectrum.call_count == 1


@st.composite
def near_z_family_states(draw):
    """A physical Z-frame X state, n = 2..7, plus a Hermitian perturbation
    off the X of Frobenius norm 2**t SECTOR_FIT_TOL / sqrt(dim), t in
    [-3, 3]: on both sides of the fit bound."""
    n = draw(st.integers(2, 7))
    dim = 1 << n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rho = materialize(random_valid_x_params(rng, n, "Z"))
    e = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    e = e + e.conj().T
    rows = np.arange(dim)
    e[rows, rows] = e[rows, rows[::-1]] = 0.0
    size = 2.0 ** draw(st.floats(-3.0, 3.0)) * linalg.SECTOR_FIT_TOL / sqrt(dim)
    return rho + e * (size / np.linalg.norm(e)), n


@settings(max_examples=150)
@given(near_z_family_states())
def test_near_x_z_input_fits_exactly_within_the_bound(case):
    # the decision is the oracle's wherever rounding cannot decide it (at
    # t = 0 the perturbation lies at the bound); the rest holds everywhere
    rho, n = case
    want, distance, spread = oracle_fit_distance(rho, n, "Z")
    entries = model.fit_sectors(rho, n)
    if not fit_is_rounding_dependent(distance, spread, n):
        assert (entries is not None) == (distance <= linalg.SECTOR_FIT_TOL)
    if entries is not None:
        assert all(map(np.array_equal, entries, want))
    for q in ([1], [n], range(1, n)):
        assert abs(negativity(rho, q, n) - oracle_negativity(rho, q, n)) <= linalg.SECTOR_FIT_TOL


def test_overflowing_state_raises():
    # finite entries whose family coefficients overflow; RuntimeWarnings are
    # errors in the test settings, so this also checks that none is emitted
    with pytest.raises(ValueError, match="overflow"):
        negativity(1e308 * np.ones((8, 8)), [1], 3)
    rho = np.eye(4) / 4
    rho[0, 1] = rho[1, 0] = 1e308                # off the X, Hermitian, unit trace
    with pytest.raises(ValueError, match="overflow"):
        concurrence(rho)


@st.composite
def near_family_states(draw):
    """X states of any frame, n = 2..7, exact or perturbed near the fit's
    SECTOR_FIT_TOL: by a Hermitian bump off every family, or by a center
    twist (conftest.center_twist), which is not Hermitian; or dense states."""
    n = draw(st.integers(2, 7))
    dim = 1 << n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["exact", "bump", "twist", "dense"]))
    if kind == "dense":
        return random_density(rng, dim), n
    rho = materialize(random_valid_x_params(rng, n, draw(st.sampled_from(["Z", "X", "Y"]))))
    size = 2.0 ** draw(st.floats(-3.0, 3.0)) * linalg.SECTOR_FIT_TOL / sqrt(dim)
    if kind == "bump":
        j = draw(st.integers(1, dim - 1))
        rho[0, j] += size
        rho[j, 0] += size
    elif kind == "twist":
        rho = rho + size * center_twist(rng, n, draw(st.sampled_from(["Z", "X", "Y"])))
    return rho, n


@settings(max_examples=150)
@given(near_family_states())
def test_measures_bitwise_equal_to_unscreened_fit(case):
    # the row screens change no measure, at the bound too; and the
    # unscreened fit is the oracle's wherever rounding cannot decide it
    rho, n = case
    with mock.patch.object(witness, "_fit_sectors", unscreened_fit_sectors):
        want = [negativity(rho, q, n) for q in ([1], [n], range(1, n))]
        want_c = concurrence(rho) if n == 2 else None
    got = [negativity(rho, q, n) for q in ([1], [n], range(1, n))]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    if n == 2:
        assert concurrence(rho).hex() == want_c.hex()
    oracle, settled = oracle_fit_sectors(rho, n)
    if settled:
        entries = unscreened_fit_sectors(rho, n)
        assert (entries is None) == (oracle is None)
        if entries is not None:
            assert all(map(np.array_equal, entries, oracle))


def test_y_frame_negativity_projects_once(rng):
    for n in (2, 5, 8):
        rho = materialize(random_valid_x_params(rng, n, "Y"))
        with mock.patch.object(model, "_project", wraps=model._project) as project, \
             spy_dense_spectrum() as dense:
            negativity(rho, [1], n)
        assert project.call_count == 1 and dense.call_count == 0
        assert [c.args[2] for c in project.call_args_list] == ["Y"]


def test_negativity_without_negative_eigenvalue_is_positive_zero(rng):
    for n in (2, 3):
        dim = 1 << n
        product = random_product_states(rng, n, 1)[0]
        states = [np.eye(dim) / dim,                                      # X-shaped
                  materialize(XStateParams.build(n, "Y", d={1: 0.5})),    # fitted
                  np.outer(product, product.conj())]                      # dense
        for rho, dense_calls in zip(states, (0, 0, 3)):
            with spy_dense_spectrum() as dense:
                for subset in (set(), set(range(1, n + 1)), {1}):
                    assert copysign(1.0, negativity(rho, subset, n)) == 1.0
            assert dense.call_count == dense_calls
