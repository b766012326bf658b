import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (SX, SY, SZ, oracle_apply_frame, oracle_axis_on, oracle_label,
                      oracle_pauli_matrix, oracle_single, random_pauli)
from xstates import (AXES, FRAME_X, FRAME_Y, FRAME_Z, AxisFrame, PauliString,
                     all_proper_frames, apply_frame, decompose, generate_set, ghz_params,
                     ghz_state, resolve_frame, xy_product, z_product)
from xstates.pauli import MAX_QUBITS, require_frame

PROPER_FRAMES = all_proper_frames()

# a random string on 1..MAX_QUBITS qubits: its masks and phase
pauli_strings = st.integers(1, MAX_QUBITS).flatmap(lambda n: st.builds(
    PauliString, st.just(n), st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1),
    st.integers(0, 3)))


def test_z_product_examples():
    assert z_product(2, 2).label() == "+Z2"
    assert z_product(0, 3) == PauliString.identity(3)
    assert z_product(7, 3).label() == "+Z1Z2Z3"


def test_xy_product_examples():
    assert xy_product(2, 2).label() == "+X1Y2"
    assert xy_product(0, 3).label() == "+X1X2X3"
    assert xy_product(1, 3).label() == "+Y1X2X3"


def test_three_qubit_term_tables():
    z_expected = ["+Z1", "+Z2", "+Z1Z2", "+Z3", "+Z1Z3", "+Z2Z3", "+Z1Z2Z3"]
    assert [z_product(i, 3).label() for i in range(1, 8)] == z_expected
    xy_expected = ["+X1X2X3", "+Y1X2X3", "+X1Y2X3", "+Y1Y2X3",
                   "+X1X2Y3", "+Y1X2Y3", "+X1Y2Y3", "+Y1Y2Y3"]
    assert [xy_product(i, 3).label() for i in range(8)] == xy_expected


def test_index_range_errors():
    with pytest.raises(ValueError):
        z_product(4, 2)
    with pytest.raises(ValueError):
        xy_product(-1, 2)


# n is gated before the index check computes 1 << n
@pytest.mark.parametrize("product", [z_product, xy_product])
@pytest.mark.parametrize("n", [2.5, -1, 0, 17, True, "3", None])
def test_products_gate_the_qubit_count_first(product, n):
    with pytest.raises(ValueError, match=rf"^qubit count must be an integer in 1\.\.16, "
                                         rf"got {re.escape(repr(n))}$"):
        product(0, n)


def test_multiply_single_qubit_cycle():
    x = PauliString.single("X", 1, 1)
    y = PauliString.single("Y", 1, 1)
    z = PauliString.single("Z", 1, 1)
    assert (x * y).label() == "+iZ1"
    assert (y * z).label() == "+iX1"
    assert (z * x).label() == "+iY1"


def test_multiply_examples():
    xx = PauliString.from_label("+X1X2")
    yy = PauliString.from_label("+Y1Y2")
    assert (xx * yy).label() == "-Z1Z2"
    chained = (PauliString.from_label("+X1Y2") * yy) * PauliString.from_label("+Z2", n=2)
    assert chained.label() == "+iZ1Z2"
    # dense oracle for the chained product
    expect = (oracle_pauli_matrix(PauliString.from_label("+X1Y2"))
              @ oracle_pauli_matrix(yy)
              @ oracle_pauli_matrix(PauliString.from_label("+Z2", n=2)))
    assert np.array_equal(oracle_pauli_matrix(chained), expect)


def test_multiply_size_mismatch():
    with pytest.raises(ValueError):
        PauliString.single("X", 1, 1) * PauliString.single("X", 1, 2)


def test_multiply_matrix_faithful_and_associative(rng):
    for _ in range(10_000):
        n = int(rng.integers(1, 5))
        p, q, r = (random_pauli(rng, n) for _ in range(3))
        pq = p * q
        assert np.array_equal(oracle_pauli_matrix(pq),
                              oracle_pauli_matrix(p) @ oracle_pauli_matrix(q))
        assert (pq * r) == (p * (q * r))


def test_squares_to_plus_minus_identity(rng):
    for _ in range(200):
        p = random_pauli(rng, int(rng.integers(1, 6)))
        sq = p * p
        assert sq.x_mask == 0 and sq.z_mask == 0
        assert sq.phase in (0, 2)
        assert sq.phase == (2 * p.phase + 2 * p.y_mask.bit_count()) % 4


def test_commutes_examples():
    assert PauliString.from_label("+Z1Z2").commutes(PauliString.from_label("+X1X2"))
    assert not PauliString.single("Z", 1, 1).commutes(PauliString.single("X", 1, 1))
    # two anticommuting factor pairs cancel: the triple-X and YYX strings commute
    xxx = PauliString.from_label("+X1X2X3")
    yyx = PauliString.from_label("+Y1Y2X3")
    assert xxx.commutes(yyx)
    m1, m2 = oracle_pauli_matrix(xxx), oracle_pauli_matrix(yyx)
    assert np.max(np.abs(m1 @ m2 - m2 @ m1)) == 0.0
    assert not xxx.commutes(PauliString.from_label("+Y1Y2Y3"))


def test_commutes_matches_dense_commutator_all_pairs():
    for n in (1, 2, 3):
        strings = [PauliString(n, x, z, 0)
                   for x in range(1 << n) for z in range(1 << n)]
        mats = [oracle_pauli_matrix(p) for p in strings]
        for (p, mp), (q, mq) in itertools.product(zip(strings, mats), repeat=2):
            dense_commute = np.max(np.abs(mp @ mq - mq @ mp)) == 0.0
            assert p.commutes(q) == dense_commute


def test_z_products_close_and_commute():
    n = 4
    for i in range(1 << n):
        for j in range(1 << n):
            prod = z_product(i, n) * z_product(j, n)
            assert prod == z_product(i ^ j, n)
            assert z_product(i, n).commutes(z_product(j, n))


def test_frame_examples():
    assert apply_frame(PauliString.from_label("+Z1Z2"), "Y").label() == "+Y1Y2"
    p = PauliString.from_label("-iX1Z2Y3")
    assert FRAME_Z.apply(p) == p
    quarter_turn = AxisFrame(("Y", -1), ("X", 1), ("Z", 1))
    assert quarter_turn.apply(PauliString.single("X", 1, 1)).label() == "-Y1"


def test_named_frames_are_proper():
    assert FRAME_X.describe() == {"X": "-Y", "Y": "-Z", "Z": "+X"}
    assert FRAME_Y.describe() == {"X": "+Z", "Y": "+X", "Z": "+Y"}
    for f in (FRAME_Z, FRAME_X, FRAME_Y):
        assert round(np.linalg.det(f.rotation())) == 1


# every entry point that takes a frame name runs pauli.require_frame first:
# anything but "Z", "X" or "Y", unhashable or not, gets the one text
@pytest.mark.parametrize("frame", [["X"], "Q", 1, b"X", None, "x"])
def test_unknown_frame_names_get_one_value_error(frame):
    calls = (lambda: require_frame(frame), lambda: resolve_frame(frame),
             lambda: apply_frame(PauliString.from_label("+Z1"), frame),
             lambda: ghz_state(3, frame), lambda: generate_set(2, frame),
             lambda: ghz_params(2, frame), lambda: decompose(np.eye(4) / 4, 2, frame))
    for call in calls:
        with pytest.raises(ValueError, match=r"^unknown frame .*; expected one of "
                                             r"\['X', 'Y', 'Z'\]$"):
            call()


def test_improper_frame_rejected():
    with pytest.raises(ValueError):
        AxisFrame(("X", -1), ("Y", 1), ("Z", 1))  # determinant -1
    with pytest.raises(ValueError):
        AxisFrame(("X", 1), ("X", 1), ("Z", 1))  # not a permutation


def test_all_proper_frames_closed_under_composition():
    frames = all_proper_frames()
    assert len(frames) == 24
    assert sum(f.is_identity for f in frames) == 1
    table = {tuple(map(tuple, f.rotation())) for f in frames}
    for f in frames:
        g = f
        for _ in range(3):
            g = g.compose(f)
            assert tuple(map(tuple, g.rotation())) in table


def test_frame_preserves_commutation(rng):
    frames = all_proper_frames()
    for _ in range(300):
        n = int(rng.integers(1, 5))
        p, q = random_pauli(rng, n), random_pauli(rng, n)
        f = frames[int(rng.integers(0, len(frames)))]
        assert p.commutes(q) == f.apply(p).commutes(f.apply(q))


def test_frame_unitary_realizes_rotation():
    sigmas = {"X": SX, "Y": SY, "Z": SZ}
    for f in all_proper_frames():
        u = f.unitary()
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
        for axis in AXES:
            new_axis, sign = f.image(axis)
            got = u @ sigmas[axis] @ u.conj().T
            assert np.max(np.abs(got - sign * sigmas[new_axis])) < 1e-12


def test_frame_application_matches_unitary_conjugation(rng):
    for f in all_proper_frames():
        n = int(rng.integers(1, 4))
        p = random_pauli(rng, n)
        u = f.unitary()
        big = np.array([[1.0 + 0j]])
        for _ in range(n):
            big = np.kron(big, u)
        got = oracle_pauli_matrix(f.apply(p))
        expect = big @ oracle_pauli_matrix(p) @ big.conj().T
        assert np.max(np.abs(got - expect)) < 1e-12


def test_to_matrix_examples():
    assert np.array_equal(PauliString.single("Z", 1, 1).to_matrix(),
                          np.diag([1.0 + 0j, -1.0]))
    m = PauliString.from_label("+X1Y2").to_matrix()
    assert m[0, 3] == -1j
    assert np.array_equal(PauliString.identity(3).to_matrix(), np.eye(8))


def test_to_matrix_matches_kron_oracle(rng):
    for _ in range(400):
        p = random_pauli(rng, int(rng.integers(1, 9)))
        assert np.array_equal(p.to_matrix(), oracle_pauli_matrix(p))


def test_to_matrix_is_unitary(rng):
    for _ in range(50):
        p = random_pauli(rng, int(rng.integers(1, 4)))
        m = p.to_matrix()
        assert np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))) == 0.0


def test_dense_cap():
    with pytest.raises(ValueError):
        PauliString.identity(13).to_matrix()
    with pytest.raises(ValueError):
        PauliString.identity(17)


def test_label_round_trip(rng):
    for _ in range(300):
        p = random_pauli(rng, int(rng.integers(1, 7)))
        assert PauliString.from_label(p.label(), n=p.n) == p
    assert PauliString.from_label("-iZ1Z2").label() == "-iZ1Z2"
    assert PauliString.from_label("+I", n=3) == PauliString.identity(3)


def test_label_parse_errors():
    for bad in ("Z1", "+Q1", "+X0X1", "+X1X1", ""):
        with pytest.raises(ValueError):
            PauliString.from_label(bad, n=2)
    with pytest.raises(ValueError):
        PauliString.from_label("+I")  # identity needs explicit qubit count
    with pytest.raises(ValueError):
        PauliString.from_label("+X3", n=2)  # index beyond qubit count


def test_equality_and_proportionality():
    p = PauliString(2, 1, 2, 0)
    q = PauliString(2, 1, 2, 2)
    assert p != q
    assert p.proportional_to(q)
    assert not p.proportional_to(PauliString(2, 1, 3, 0))


# the whole-mask relabeling against the per-qubit loop, in all 24 frames
@settings(max_examples=300)
@given(pauli_strings)
def test_frame_apply_matches_per_qubit_oracle(p):
    for frame in PROPER_FRAMES:
        assert frame.apply(p) == oracle_apply_frame(frame, p)


# axis_on, single and the label read the one axis-bit table
@settings(max_examples=300)
@given(pauli_strings)
def test_axis_bits_match_literal_oracles(p):
    for j in range(1, p.n + 1):
        assert p.axis_on(j) == oracle_axis_on(p, j)
        for axis in AXES:
            assert PauliString.single(axis, j, p.n) == oracle_single(axis, j, p.n)
    assert p.label() == oracle_label(p)
    assert PauliString.from_label(p.label(), p.n) == p


# axis_on takes the index rule of PauliString.single: 0 and n + 1 are no
# qubit of the string (they were a negative shift and a bit past the masks)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_axis_on_rejects_qubits_outside_1_to_n(n):
    p = PauliString(n, (1 << n) - 1, 1)
    for bad in (0, n + 1, -1, 17):
        with pytest.raises(ValueError, match="qubit index out of range"):
            p.axis_on(bad)
    assert [p.axis_on(j) for j in range(1, n + 1)] == ["Y"] + ["X"] * (n - 1)
