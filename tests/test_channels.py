import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_apply_kraus, random_density, random_valid_x_params
from xstates import (Channel, Trajectory, apply_channel, bell_diagonal,
                     dicke_state, ghz_params, materialize, standard_channel,
                     strength_grid, sweep, x_form_residual)

KINDS = ("amplitude_damping", "phase_damping", "depolarizing")


def test_kraus_completeness():
    for kind in KINDS:
        for s in np.linspace(0.0, 1.0, 11):
            ch = standard_channel(kind, s)
            total = sum(k.conj().T @ k for k in ch.kraus)
            assert np.max(np.abs(total - np.eye(2))) <= 1e-12


def test_standard_channel_forms():
    ch = standard_channel("amplitude_damping", 0.36)
    assert np.allclose(ch.kraus[0], np.diag([1.0, 0.8]))
    assert np.allclose(ch.kraus[1], [[0.0, 0.6], [0.0, 0.0]])
    assert len(standard_channel("phase_damping", 0.5).kraus) == 3
    assert len(standard_channel("depolarizing", 0.5).kraus) == 4
    alias = standard_channel("spontaneous_emission", 0.36)
    assert all(np.array_equal(a, b) for a, b in zip(alias.kraus, ch.kraus))
    with pytest.raises(ValueError):
        standard_channel("amplitude_damping", 1.2)
    with pytest.raises(ValueError):
        standard_channel("bit_flip", 0.5)


def test_channel_rejects_incomplete_kraus():
    with pytest.raises(ValueError):
        Channel((np.eye(2) * 0.5,), "broken")


def test_channel_rejects_non_finite_kraus():
    with pytest.raises(ValueError):
        Channel((np.full((2, 2), np.nan),), "x")


def test_identity_channel_fixes_state(rng):
    rho = random_density(rng, 8)
    for kind in KINDS:
        out = apply_channel(rho, standard_channel(kind, 0.0), [1, 2, 3], 3)
        assert np.max(np.abs(out - rho)) < 1e-14


def test_amplitude_damping_extremes():
    excited = np.diag([0.0, 1.0]).astype(complex)
    out = apply_channel(excited, standard_channel("amplitude_damping", 1.0), [1], 1)
    assert np.max(np.abs(out - np.diag([1.0, 0.0]))) < 1e-14


def test_depolarizing_full_strength(rng):
    rho = random_density(rng, 2)
    out = apply_channel(rho, standard_channel("depolarizing", 1.0), [1], 1)
    assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-12


def test_amplitude_damping_mixed_state_closed_form():
    n, gamma = 3, 0.3
    rho = np.eye(1 << n).astype(complex) / (1 << n)
    out = apply_channel(rho, standard_channel("amplitude_damping", gamma),
                        range(1, n + 1), n)
    single = np.diag([(1 + gamma) / 2, (1 - gamma) / 2])
    expect = single
    for _ in range(n - 1):
        expect = np.kron(expect, single)
    assert np.max(np.abs(out - expect)) < 1e-12


def test_phase_damping_scales_bell_corners():
    lam = 0.4
    rho = materialize(ghz_params(2))
    one = apply_channel(rho, standard_channel("phase_damping", lam), [1], 2)
    assert abs(one[0, 3] - (1 - lam) * rho[0, 3]) < 1e-14
    assert np.max(np.abs(np.diag(one) - np.diag(rho))) < 1e-14
    both = apply_channel(rho, standard_channel("phase_damping", lam), [1, 2], 2)
    assert abs(both[0, 3] - (1 - lam) ** 2 * rho[0, 3]) < 1e-14


def test_apply_channel_preserves_trace_and_positivity(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        rho = random_density(rng, 1 << n)
        kind = KINDS[int(rng.integers(0, 3))]
        qubits = [q for q in range(1, n + 1) if rng.random() < 0.6] or [1]
        out = apply_channel(rho, standard_channel(kind, float(rng.random())),
                            qubits, n)
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-10


def test_apply_channel_qubit_order_irrelevant(rng):
    rho = random_density(rng, 8)
    ch = standard_channel("amplitude_damping", 0.45)
    a = apply_channel(rho, ch, [1, 2, 3], 3)
    b = apply_channel(rho, ch, [3, 1, 2], 3)
    assert np.max(np.abs(a - b)) < 1e-12


def test_apply_channel_rejects_bad_qubits(rng):
    rho = random_density(rng, 4)
    with pytest.raises(ValueError):
        apply_channel(rho, standard_channel("phase_damping", 0.2), [3], 2)


def _isometry_channel(rng, k):
    """k Kraus operators cut from a random (2k, 2) isometry: a CPTP map."""
    g = rng.normal(size=(2 * k, 2)) + 1j * rng.normal(size=(2 * k, 2))
    v, _ = np.linalg.qr(g)
    return Channel(tuple(v[2 * j:2 * j + 2] for j in range(k)), f"isometry({k})")


@st.composite
def channel_cases(draw):
    """A state or stack, a repeated/any-order qubit list, and a channel."""
    n = draw(st.integers(1, 6))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    qubits = draw(st.lists(st.integers(1, n), min_size=0, max_size=2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(KINDS + ("isometry",)))
    if kind == "isometry":
        ch = _isometry_channel(rng, draw(st.integers(1, 5)))
    else:
        ch = standard_channel(kind, draw(st.floats(0.0, 1.0)))
    shape = batch + (1 << n, 1 << n)
    rho = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return rho, ch, qubits, n


@settings(max_examples=150)
@given(channel_cases())
def test_apply_channel_matches_lifted_kraus_oracle(case):
    rho, ch, qubits, n = case
    out = apply_channel(rho, ch, qubits, n)
    assert out.shape == rho.shape
    assert np.max(np.abs(out - oracle_apply_kraus(rho, ch.kraus, qubits, n))) <= 1e-12


def test_x_form_residual_baseline():
    w_proj = dicke_state(3, 1).projector()
    assert x_form_residual(w_proj, "Z", 3) > 0.1


def test_form_preservation_small_grid(rng):
    for n in (2, 3):
        draws = [materialize(random_valid_x_params(rng, n)) for _ in range(10)]
        stack = np.stack(draws)
        subsets = [list(c) for r in range(1, n + 1)
                   for c in itertools.combinations(range(1, n + 1), r)]
        for kind in KINDS:
            for s in np.linspace(0.0, 1.0, 5):
                ch = standard_channel(kind, float(s))
                for subset in subsets:
                    out = apply_channel(stack, ch, subset, n)
                    res = x_form_residual(out, "Z", n)
                    assert float(np.max(res)) <= 1e-12


def test_strength_grid():
    grid = strength_grid(0.0, 1.0, 5)
    assert grid == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ValueError):
        strength_grid(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        strength_grid(0.0, 1.0, 1)


def test_sweep_bell_amplitude_damping_endpoints():
    traj = sweep(ghz_params(2), "amplitude_damping", [1, 2],
                 strength_grid(0.0, 1.0, 5))
    assert traj.concurrence[0] > 0.99
    assert traj.concurrence[-1] == 0.0
    assert max(traj.x_residual) <= 1e-14


def test_sweep_sudden_death():
    p0 = bell_diagonal(0.9, -0.9, 0.9)
    traj = sweep(p0, "amplitude_damping", [1, 2], strength_grid(0.0, 1.0, 21))
    zeros = [s for s, c in zip(traj.strengths, traj.concurrence) if c == 0.0]
    assert zeros and min(zeros) < 1.0
    gamma_star = min(zeros)
    assert all(c == 0.0 for s, c in zip(traj.strengths, traj.concurrence)
               if s >= gamma_star)
    assert traj.concurrence[0] > 0.8


def test_sweep_witness_mode():
    traj = sweep(ghz_params(3), "phase_damping", [1, 2, 3],
                 strength_grid(0.0, 1.0, 5), witness_kind="ghz_type")
    assert traj.concurrence is None
    assert abs(traj.witness[0] + 0.5) < 1e-12
    assert traj.witness[-1] > traj.witness[0]
    assert max(traj.x_residual) <= 1e-14


def test_sweep_concurrence_needs_two_qubits():
    with pytest.raises(ValueError):
        sweep(ghz_params(3), "amplitude_damping", [1], strength_grid(0.0, 1.0, 3))


def test_trajectory_csv():
    traj = sweep(ghz_params(2), "amplitude_damping", [1],
                 strength_grid(0.0, 1.0, 3))
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "strength,concurrence,witness,x_residual"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[2] == ""
    assert float(first[1]) == traj.concurrence[0]
    with pytest.raises(ValueError):
        Trajectory((0.5, 0.5), None, None, (0.0, 0.0))
