import collections
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_apply_kraus, random_density, random_valid_x_params
from xstates import (Channel, Trajectory, XStateParams, apply_channel, bell_diagonal,
                     concurrence, decompose, dicke_state, evaluate_witness,
                     family_residual, ghz_params, make_witness, materialize,
                     standard_channel, strength_grid, sweep)
from xstates import channels, model
from xstates.model import _sector_entries
from xstates.pauli import FRAMES, PAULI_MATRICES

KINDS = ("amplitude_damping", "phase_damping", "depolarizing")


@pytest.fixture(autouse=True)
def cold_channel_families():
    """Each test starts with no channel family, sweep table or sweep witness
    cached, so the builds it counts or forbids are its own."""
    for cache in (channels._channel_family, channels._sweep_tables, channels._sweep_witness):
        cache.cache_clear()


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
    for kind in ("bit_flip", None, 5, ["amplitude_damping"]):    # of any type
        with pytest.raises(ValueError, match="unknown channel kind"):
            standard_channel(kind, 0.5)


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


@pytest.mark.parametrize("qubits", [[], [1], [2, 1, 2]])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_apply_channel_returns_a_new_array(qubits, dtype):
    rho = (np.eye(4) / 4).astype(dtype)
    keep = rho.copy()
    out = apply_channel(rho, standard_channel("depolarizing", 0.0), qubits, 2)
    assert not np.shares_memory(out, rho)
    out[0, 1] = 7.0
    assert np.array_equal(rho, keep)


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
    assert family_residual(w_proj, 3, "Z") > 0.1


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
                    res = family_residual(out, n, "Z")
                    assert float(np.max(res)) <= 1e-12


def test_strength_grid():
    grid = strength_grid(0.0, 1.0, 5)
    assert grid == (0.0, 0.25, 0.5, 0.75, 1.0)
    for count in (2, 11, 21, np.int64(21)):  # np.linspace's floats, bit for bit
        grid = strength_grid(0.1, 0.9, count)
        assert all(type(s) is float for s in grid)
        assert np.array(grid).tobytes() == np.linspace(0.1, 0.9, count).tobytes()
    with pytest.raises(ValueError):
        strength_grid(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        strength_grid(0.0, 1.0, 1)
    # a count that is not an integer, even an integral float, takes the same
    # rule rather than np.linspace's TypeError
    for count in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="integer count of at least two points"):
            strength_grid(0.0, 1.0, count)


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


def _forbid_work(monkeypatch, check):
    def no_work(*args, **kwargs):
        raise AssertionError(f"work started before the {check} check")
    for name in ("make_witness", "_factor_points", "standard_channel", "_kraus_stack",
                 "_sector_entries"):
        monkeypatch.setattr(channels, name, no_work)


# amplitude damping keeps the Z-frame family and leaves the X frame's: both paths
@pytest.mark.parametrize("frame", ["Z", "X"])
def test_sweep_rejects_bad_qubits_before_any_work(monkeypatch, frame):
    _forbid_work(monkeypatch, "qubit")
    for qubits in ([4], [0], [1, 5]):
        with pytest.raises(ValueError, match=r"qubit subset must lie in 1\.\.3"):
            sweep(ghz_params(3, frame), "amplitude_damping", qubits,
                  strength_grid(0.0, 1.0, 3),
                  witness_kind="ghz_type")


# every strength is range-checked before the grid's order is
@pytest.mark.parametrize("grid,message", [
    ((0.0, 1.2), r"channel strength must lie in \[0, 1\], got 1\.2$"),
    ((-0.1, 0.5), r"channel strength must lie in \[0, 1\], got -0\.1$"),
    ((0.0, float("nan")), r"channel strength must lie in \[0, 1\], got nan$"),
    ((0.6, 0.4, 1.5), r"channel strength must lie in \[0, 1\], got 1\.5$"),
    ((0.5, 0.5), r"strength grid must be strictly increasing"),
    ((0.0, 0.6, 0.4), r"strength grid must be strictly increasing"),
])
@pytest.mark.parametrize("frame", ["Z", "X"])
def test_sweep_rejects_bad_grid_before_any_work(monkeypatch, frame, grid, message):
    _forbid_work(monkeypatch, "grid")
    for _ in range(2):      # a bad grid is never cached: every sweep of it raises
        with pytest.raises(ValueError, match=message):
            sweep(ghz_params(3, frame), "amplitude_damping", [1, 3], grid,
                  witness_kind="ghz_type")
    assert channels._channel_family.cache_info().currsize == 0


# the qubits are checked before the grid, and the grid before the kind
def test_sweep_checks_the_qubits_then_the_grid_then_the_kind():
    with pytest.raises(ValueError, match=r"qubit subset must lie in 1\.\.2"):
        sweep(ghz_params(2), "bit_flip", [3], (0.5, 0.5))
    with pytest.raises(ValueError, match="strictly increasing"):
        sweep(ghz_params(2), "bit_flip", [1], (0.5, 0.5))


# the kind is checked before the witness kind; either raises on every sweep,
# a bad kind caches no family and a bad witness kind no witness.  A kind
# that is not a str, even an unhashable one, is the same unknown kind.
@pytest.mark.parametrize("kind,witness_kind,message", [
    ("bit_flip", "w_type", "unknown channel kind 'bit_flip'"),
    (["phase_damping"], "w_type", r"unknown channel kind \['phase_damping'\]"),
    (3, "w_type", "unknown channel kind 3"),
    (None, "w_type", "unknown channel kind None"),
    ("phase_damping", "w_type", "w_type witness is defined for n=3"),
    ("amplitude_damping", "bell_type", "unknown witness kind 'bell_type'"),
])
@pytest.mark.parametrize("frame", ["Z", "X"])
def test_sweep_checks_the_kind_then_the_witness(frame, kind, witness_kind, message):
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            sweep(ghz_params(4, frame), kind, [1], (0.0, 0.5), witness_kind)
    assert channels._sweep_witness.cache_info().currsize == 0
    if message.startswith("unknown channel kind"):
        assert channels._channel_family.cache_info().currsize == 0
        assert channels._sweep_tables.cache_info().currsize == 0


def test_sweep_of_an_empty_grid_is_empty():
    assert sweep(ghz_params(2), "depolarizing", [1], []) == Trajectory((), (), None, ())
    assert sweep(ghz_params(3, "X"), "amplitude_damping", [1], (),
                 witness_kind="ghz_type") == Trajectory((), None, (), ())
    with pytest.raises(ValueError, match="unknown channel kind"):
        sweep(ghz_params(2), "bit_flip", [1], [])


# the sweep builds no Channel: a dense point, here amplitude damping off the Z
# frame at every strength > 0, maps the factors by its row of the checked
# stack, and all dense points are read in one _factor_points call from
# per-qubit tables.  No dense initial state is built, nothing is contracted
# and no dense point is projected through family_residual.
@pytest.mark.parametrize("frame,kind,dense", [("Z", "amplitude_damping", 0),
                                              ("X", "amplitude_damping", 1),
                                              ("Y", "depolarizing", 0)])
@pytest.mark.parametrize("count", [2, 21])
def test_sweep_builds_and_checks_one_kraus_stack(monkeypatch, frame, kind, dense, count):
    calls = collections.Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(channels, "_kraus_stack", counted("kraus", channels._kraus_stack))
    monkeypatch.setattr(channels, "_check_completeness",
                        counted("completeness", channels._check_completeness))
    monkeypatch.setattr(Channel, "__post_init__", counted("channel", Channel.__post_init__))
    monkeypatch.setattr(channels, "_factor_points",
                        counted("points", channels._factor_points))
    for module, name in ((channels, "_contract"), (model, "family_residual"),
                         (model, "materialize")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    traj = sweep(ghz_params(3, frame), kind, [1, 3], strength_grid(0.0, 1.0, count),
                 witness_kind="ghz_type")
    assert len(traj.witness) == count
    assert calls == collections.Counter(kraus=1, completeness=1, points=dense)
    # the same sweep again: the family and the tables are cached, the points
    # are not
    again = sweep(ghz_params(3, frame), kind, [1, 3], strength_grid(0.0, 1.0, count),
                  witness_kind="ghz_type")
    assert again == traj
    assert calls == collections.Counter(kraus=1, completeness=1, points=2 * dense)


def _trajectory_bits(traj):
    columns = (traj.strengths, traj.concurrence or (), traj.witness or (), traj.x_residual)
    return b"|".join(np.array(c, dtype=float).tobytes() for c in columns)


# a cached family gives the bits of a fresh build: Werner and GHZ states,
# every kind and frame (X/Y amplitude damping on the dense points), and a
# grid that starts at -0.0.  The cold sweep builds the sweep tables and,
# for them, the family; the warm one finds the tables.
@pytest.mark.parametrize("grid", [strength_grid(0.0, 1.0, 11), (-0.0, 0.25, 0.5, 1.0)])
@pytest.mark.parametrize("kind", KINDS)
def test_cached_channel_family_gives_the_bits_of_a_fresh_build(kind, grid):
    cases = [(model.werner(0.7), [1, 2], None)] + [
        (ghz_params(3, frame), [1, 3, 1], "ghz_type") for frame in "ZXY"]
    for p, qubits, witness_kind in cases:
        channels._channel_family.cache_clear()
        channels._sweep_tables.cache_clear()
        cold = sweep(p, kind, qubits, grid, witness_kind)
        warm = sweep(p, kind, qubits, grid, witness_kind)
        assert channels._channel_family.cache_info()[:2] == (0, 1)     # (hits, misses)
        assert channels._sweep_tables.cache_info()[:2] == (1, 1)
        assert _trajectory_bits(warm) == _trajectory_bits(cold)


# keyed on the grid's float64 bits: -0.0 and 0.0 are two entries
def test_signed_zero_grids_are_separate_channel_families():
    for start in (-0.0, 0.0, -0.0):
        sweep(ghz_params(2), "amplitude_damping", [1], (start, 0.5))
    info = channels._channel_family.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    info = channels._sweep_tables.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


def test_channel_family_cache_is_bounded():
    size = channels._CACHE_SIZE
    for top in np.linspace(0.5, 1.0, size + 3):
        sweep(ghz_params(2), "depolarizing", [1], (0.0, float(top)))
    assert channels._channel_family.cache_info().currsize == size


def test_cached_channel_family_is_read_only():
    sweep(ghz_params(3, "X"), "amplitude_damping", [1], (0.0, 0.5, 1.0),
          witness_kind="ghz_type")
    hits = channels._channel_family.cache_info().hits
    family = channels._channel_family("amplitude_damping",
                                      np.array([0.0, 0.5, 1.0]).tobytes(), "X")
    assert channels._channel_family.cache_info().hits == hits + 1
    assert [a.shape for a in family] == [(3, 4, 4), (3,), (1, 2, 2), (1, 2, 2)]
    for a in family:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def _table_arrays(tables):
    """Every array of a _sweep_tables entry: the mask, the step tables and
    the dense points' XOR tables, if any."""
    preserving, steps, mapped, unmapped = tables
    return [preserving, *steps[0], *steps[1], *(() if mapped is None else (mapped, unmapped))]


# a cached sweep table gives the bits of a fresh build, on one block, on the
# uneven blocks (4, 1) and (4, 4, 1), with repeated and unlisted qubits, and
# with dense points (X-frame amplitude damping past strength 0)
@pytest.mark.parametrize("kind,frame", [("amplitude_damping", "Z"), ("phase_damping", "X"),
                                        ("depolarizing", "Y"), ("amplitude_damping", "X")])
@pytest.mark.parametrize("counts", [(1, 0, 2), (2, 1, 0, 0, 3), (1,) * 9])
def test_cached_step_tables_give_the_bits_of_a_fresh_build(kind, frame, counts):
    grid = np.linspace(0.0, 1.0, 11).tobytes()
    cold = channels._sweep_tables(kind, grid, frame, counts)
    warm = channels._sweep_tables(kind, grid, frame, counts)
    fresh = channels._sweep_tables.__wrapped__(kind, grid, frame, counts)
    assert channels._sweep_tables.cache_info()[:2] == (1, 1)
    assert warm is cold
    preserving, steps, mapped, _ = cold
    points = 1 if (kind, frame) == ("amplitude_damping", "X") else 11
    assert preserving.sum() == points
    sizes = [min(4, len(counts) - q) for q in range(0, len(counts), 4)]
    for half, dtype in zip(steps, (float, complex)):
        assert [t.shape for t in half] == [(points, 1 << g, 1 << g) for g in sizes]
        assert all(t.dtype == dtype for t in half)
    assert (mapped is None) == (points == 11)
    assert [a.tobytes() for a in _table_arrays(cold)] == [a.tobytes() for a in _table_arrays(fresh)]


# each qubit's XOR table (model._xor_table) is F[r, r ^ s] of its two
# mapped factors S^k F summed from +0.0, bitwise, with S^k F the left
# products of model._powers; a qubit listed once, one unlisted and one
# listed 3 times
@pytest.mark.parametrize("frame", sorted(FRAMES))
@pytest.mark.parametrize("kind", KINDS)
def test_xor_tables_read_each_mapped_factor(kind, frame):
    superops = channels._superoperator(channels._kraus_stack(kind, [0.0, 0.3, 1.0]))
    counts = (1, 0, 3)
    mapped, unmapped = channels._xor_tables(superops, frame, counts)
    assert mapped.shape == (3, 3, 2, 2, 2) and unmapped.shape == (3, 2, 2, 2)
    columns = np.broadcast_to(model._frame_factors(FRAMES[frame]).reshape(4, 4).T, (3, 4, 4))
    for table, k in zip([*mapped, unmapped], [*counts, 0]):
        f = columns             # columns vec(S^k F): (G, row and column, half and bit)
        for _ in range(k):
            f = superops @ f
        want = np.empty((3, 2, 2, 2), complex)
        for g, h, r, s in itertools.product(range(3), range(2), range(2), range(2)):
            column = f[g, 2 * r + (r ^ s)]
            want[g, h, r, s] = 0.0 + column[2 * h] + column[2 * h + 1]
        assert table.tobytes() == want.tobytes()


def test_step_table_cache_is_bounded():
    size = channels._CACHE_SIZE
    for k in range(1, size + 4):     # a qubit listed k times: counts (k, 0)
        sweep(ghz_params(2), "depolarizing", [1] * k, (0.0, 0.5))
    assert channels._sweep_tables.cache_info().currsize == size
    assert channels._channel_family.cache_info().misses == 1


def test_cached_step_tables_are_read_only():
    grid, counts = np.array([0.0, 0.5, 1.0]).tobytes(), (2, 0, 0, 0, 1, 0, 0, 0, 2)
    for frame, points in (("Z", 3), ("X", 1)):     # amplitude damping: 2 dense points off Z
        sweep(ghz_params(9, frame), "amplitude_damping", [1, 9, 1, 5, 9], (0.0, 0.5, 1.0),
              "ghz_type")
        hits = channels._sweep_tables.cache_info().hits
        tables = channels._sweep_tables("amplitude_damping", grid, frame, counts)
        assert channels._sweep_tables.cache_info().hits == hits + 1
        steps = [(points, 16, 16), (points, 16, 16), (points, 2, 2)] * 2
        dense = [(9, 2, 2, 2, 2), (2, 2, 2, 2)] if points == 1 else []
        arrays = _table_arrays(tables)
        assert [a.shape for a in arrays] == [(3,), *steps, *dense]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


# the witness and its frame amplitudes are made once per (kind, n, frame),
# read-only, and make_witness still gives each caller a fresh witness
def test_sweep_witness_is_made_once_and_read_only(monkeypatch):
    made = []
    monkeypatch.setattr(channels, "make_witness",
                        lambda kind, n: made.append((kind, n)) or make_witness(kind, n))
    for frame in ("Z", "X", "Z"):
        for _ in range(2):
            sweep(ghz_params(4, frame), "phase_damping", [1, 4], (0.0, 0.5), "dicke_2_4")
    assert made == [("dicke_2_4", 4)] * 2
    w, phi = channels._sweep_witness("dicke_2_4", 4, "X")
    for a in (w.psi.amplitudes, phi):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
    assert make_witness("dicke_2_4", 4).psi.amplitudes.flags.writeable


# one process, the same sweep twice: the second, served from every cache,
# writes the bytes of the first (Werner concurrence, GHZ witnesses in the Z
# frame on two and three blocks, and an X-frame sweep with dense points)
@pytest.mark.parametrize("p,kind,qubits,witness_kind", [
    (model.werner(0.6), "amplitude_damping", [1, 2], None),
    (ghz_params(8), "amplitude_damping", [*range(1, 9)], "ghz_type"),
    (ghz_params(9), "phase_damping", [1, 9, 1, 5, 9], "ghz_type"),
    (ghz_params(6, "X"), "amplitude_damping", [6, 1, 6], "ghz_type")])
def test_a_second_identical_sweep_writes_the_same_bytes(p, kind, qubits, witness_kind):
    grid = strength_grid(0.0, 1.0, 11)
    first = sweep(p, kind, qubits, grid, witness_kind).to_csv()
    assert sweep(p, kind, qubits, grid, witness_kind).to_csv() == first
    assert channels._sweep_tables.cache_info()[:2] == (1, 1)


# the alias spontaneous_emission is keyed as amplitude_damping: one family,
# one table entry, the same bytes
@pytest.mark.parametrize("frame", ["Z", "X"])
def test_spontaneous_emission_sweeps_as_amplitude_damping(frame):
    grid = strength_grid(0.0, 1.0, 5)
    want = sweep(ghz_params(4, frame), "amplitude_damping", [1, 4], grid, "ghz_type").to_csv()
    got = sweep(ghz_params(4, frame), "spontaneous_emission", [1, 4], grid, "ghz_type").to_csv()
    assert got == want
    assert channels._channel_family.cache_info()[:2] == (0, 1)
    assert channels._sweep_tables.cache_info()[:2] == (1, 1)


def test_unknown_channel_kind_raises_on_every_sweep():
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown channel kind 'bit_flip'"):
            sweep(ghz_params(2), "bit_flip", [1], strength_grid(0.0, 1.0, 3))
    assert channels._channel_family.cache_info().currsize == 0


def _closed_form_kraus(kind, s):
    """The Kraus operators of standard_channel's docstring, one strength."""
    if kind == "amplitude_damping":
        return [[[1, 0], [0, np.sqrt(1 - s)]], [[0, np.sqrt(s)], [0, 0]]]
    if kind == "phase_damping":
        return [np.sqrt(1 - s) * np.eye(2), np.sqrt(s) * np.diag([1, 0]),
                np.sqrt(s) * np.diag([0, 1])]
    p = PAULI_MATRICES
    return [np.sqrt(1 - 3 * s / 4) * p["I"], *(np.sqrt(s / 4) * p[a] for a in "XYZ")]


# bitwise equality keeps every exact-zero preservation decision of the
# per-point channels, down to strengths where sqrt(1 - s) rounds to 1
@pytest.mark.parametrize("kind", KINDS)
def test_stacked_channels_equal_per_point_channels(rng, kind):
    strengths = np.concatenate([np.linspace(0.0, 1.0, 21), rng.random(40),
                                np.logspace(-17, -13, 41)])
    kraus = channels._kraus_stack(kind, strengths)
    superops = channels._superoperator(kraus)
    bases = [channels._frame_bases(frame)[0] for frame in "ZXY"]
    preserving = [channels._preserves_family(superops, factors) for factors in bases]
    assert kraus.shape == (len(strengths), len(_closed_form_kraus(kind, 0.5)), 2, 2)
    for g, s in enumerate(strengths):
        ch = standard_channel(kind, s)
        assert np.array_equal(kraus[g], np.stack(ch.kraus))
        assert np.array_equal(kraus[g], _closed_form_kraus(kind, s))
        superop = channels._superoperator(np.stack(ch.kraus))
        assert np.array_equal(superops[g], superop)
        assert [p[g] for p in preserving] == [
            channels._preserves_family(superop, factors) for factors in bases]


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


# NaN compares False both ways, so it must fail "strictly increasing" anywhere
@pytest.mark.parametrize("strengths", [(float("nan"), 0.5, 1.0), (0.0, float("nan"), 1.0),
                                       (0.0, 0.5, float("nan"))])
def test_trajectory_rejects_nan_strengths(strengths):
    with pytest.raises(ValueError, match="strength grid must be strictly increasing"):
        Trajectory(strengths, None, (1.0, 2.0, 3.0), (0.0, 0.0, 0.0))


# ---- sweeps on the sector entries ------------------------------------------

PRESERVING = {(kind, frame) for kind in KINDS for frame in "ZXY"} - {
    ("amplitude_damping", "X"), ("amplitude_damping", "Y")}
WITNESS_KINDS = {2: (None, "ghz_type"), 3: ("ghz_type", "w_type"),
                 4: ("ghz_type", "dicke_2_4"), 5: ("ghz_type",), 6: ("ghz_type",),
                 7: ("ghz_type",), 8: ("ghz_type",)}


def _dense_sweep(p0, kind, qubits, grid, witness_kind=None):
    """The sweep with every point on the dense state: records and residuals."""
    rho0 = materialize(p0)
    w = make_witness(witness_kind, p0.n) if witness_kind is not None else None
    records, residuals = [], []
    for s in grid:
        rho = apply_channel(rho0, standard_channel(kind, s), qubits, p0.n)
        records.append(concurrence(rho) if w is None else evaluate_witness(w, rho)[0])
        residuals.append(float(family_residual(rho, p0.n, p0.frame)))
    return records, residuals


def _preserves(kind, s, frame):
    factors, _ = channels._frame_bases(frame)
    return channels._preserves_family(
        channels._superoperator(np.stack(standard_channel(kind, s).kraus)), factors)


# Below about 1e-16, sqrt(1 - s) rounds to 1 and 1 + s to 1, so the computed
# transfer matrix of amplitude damping is the identity's, which preserves
# every family; the dense path then differs by less than rounding.
@settings(max_examples=100)
@given(st.sampled_from(KINDS), st.floats(1e-15, 1.0))
def test_family_preserving_pairs(kind, s):
    assert {f for f in "ZXY" if _preserves(kind, s, f)} == {
        f for k, f in PRESERVING if k == kind}
    assert all(_preserves(k, 0.0, f) for k in KINDS for f in "ZXY")


@st.composite
def sector_step_cases(draw):
    n = draw(st.integers(1, 9))
    frame = draw(st.sampled_from("ZXY"))
    kind = draw(st.sampled_from(sorted(k for k, f in PRESERVING if f == frame)))
    qubits = draw(st.lists(st.integers(1, n), min_size=0, max_size=2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 1 << n
    p = XStateParams(n, (1.0, *rng.normal(size=size - 1)), tuple(rng.normal(size=size)),
                     frame)
    return p, kind, draw(st.floats(0.0, 1.0)), qubits


def _stepped(p, kind, grid, qubits):
    """The sector entries (P, 2**n) of the sweep's step of p's entries."""
    counts = tuple(qubits.count(q) for q in range(1, p.n + 1))
    _, steps, _, _ = channels._sweep_tables(kind, np.array(grid, dtype=float).tobytes(), p.frame,
                                            counts)
    return channels._sector_step(_sector_entries(np.concatenate([p.d, p.a]), p.n), steps)


# n = 1..9 crosses the block splits 4 | 5 and 8 | 9 of the step tables; the
# lists are empty, repeat qubits or leave some out
@settings(max_examples=150)
@given(sector_step_cases())
def test_sector_step_matches_dense_oracle(case):
    p, kind, s, qubits = case
    n = p.n
    _, preserving, _, _ = channels._channel_family(kind, np.array([s]).tobytes(), p.frame)
    assert preserving.tolist() == [True]
    (diag,), (anti,) = _stepped(p, kind, [s], qubits)
    rho = apply_channel(materialize(p), standard_channel(kind, s), qubits, n)
    q, residual = decompose(rho, n, p.frame)
    want_diag, want_anti = _sector_entries(np.concatenate([q.d, q.a]), n)
    assert residual <= 1e-12
    assert np.max(np.abs(diag - want_diag)) <= 1e-12
    assert np.max(np.abs(anti - want_anti)) <= 1e-12
    if p.frame == "Z":   # the dense result is X-shaped: compare its own entries
        dense_diag, dense_anti = rho.diagonal(), rho[:, ::-1].diagonal()
        assert np.max(np.abs(diag - dense_diag)) <= 1e-12
        assert np.max(np.abs(anti - dense_anti)) <= 1e-12


# amplitude damping on every qubit of a Z-frame GHZ state, across one block
# boundary (n = 5) and two (n = 9): at full strength it gives
# |0..0><0..0|, and every other entry is unreachable and stays exactly +0.0;
# at half strength every population is reached, and the coherences other
# than the two GHZ corners stay exactly +0.0 too
@pytest.mark.parametrize("n", [5, 9])
def test_sector_step_keeps_unreachable_entries_zero(n):
    p = ghz_params(n)
    diag, anti = _stepped(p, "amplitude_damping", [0.5, 1.0], [*range(1, n + 1)])
    assert (diag[0] > 0.0).all() and (anti[0, [0, -1]] != 0.0).all()
    assert diag[1, 0] == 1.0
    for zeros in (anti[0, 1:-1], diag[1, 1:], anti[1]):
        assert not zeros.any() and not np.signbit(zeros.view(float)).any()
    traj = sweep(p, "amplitude_damping", range(1, n + 1), (0.5, 1.0), "ghz_type")
    assert traj.x_residual == (0.0, 0.0)


# Why the preserving points step the sector entries: amplitude damping on
# qubit 1 of a Z-frame state whose population rho[10, 10] is exactly 0 keeps
# it exactly 0, so with rho[01, 10] = 0 the Yu-Eberly concurrence is exactly
# 2 |rho[00, 11]| sqrt(1 - s).  A step through a transform of (d, a) leaves
# rounding noise e there, and sqrt(e) moves the concurrence by about 1e-8.
@pytest.mark.parametrize("seed", range(8))
def test_sector_step_keeps_an_exact_zero_population(seed):
    rng = np.random.default_rng(seed)
    # dyadic entries, so that their coefficients and back are exact
    p00, p01 = rng.integers(1, 32, 2) / 64
    p11 = 1.0 - p00 - p01
    bound = int(np.sqrt(p00 * p11) * 64 / np.sqrt(2))
    a0 = complex(*rng.integers(-bound, bound + 1, 2) / 64)
    x = np.array([[p00, p01, 0.0, p11], [a0, 0.0, 0.0, a0.conjugate()]])
    coeffs = model._sector_coefficients(x, 2)
    p = XStateParams(2, coeffs[:4], coeffs[4:])
    diag, anti = _sector_entries(np.concatenate([p.d, p.a]), 2)
    assert diag[2] == 0.0 and anti[1] == 0.0 and anti[0] == a0
    grid = strength_grid(0.0, 1.0, 21)
    traj = sweep(p, "amplitude_damping", [1], grid)
    assert traj.concurrence == tuple(2 * abs(a0 * np.sqrt(1 - s)) for s in grid)


@st.composite
def sweep_cases(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    frame = draw(st.sampled_from("ZXY"))
    witness_kind = draw(st.sampled_from(WITNESS_KINDS[n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_valid_x_params(rng, n, frame)
    if witness_kind is None:
        # a tenth of I/4 keeps every population >= 1/40, where the Yu-Eberly
        # square roots are well conditioned in every frame
        p = XStateParams(2, (1.0, *(0.9 * v for v in p.d[1:])),
                         tuple(0.9 * v for v in p.a), frame)
    kind = draw(st.sampled_from(KINDS))
    qubits = draw(st.lists(st.integers(1, n), min_size=0, max_size=2 * n))
    grid = sorted(set(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))))
    return p, kind, qubits, grid, witness_kind


@settings(max_examples=100)
@given(sweep_cases())
def test_sweep_matches_dense_sweep(case):
    p, kind, qubits, grid, witness_kind = case
    traj = sweep(p, kind, qubits, grid, witness_kind)
    got = traj.concurrence if witness_kind is None else traj.witness
    want, residuals = _dense_sweep(p, kind, qubits, grid, witness_kind)
    for s, g, v, r, dense_r in zip(grid, got, want, traj.x_residual, residuals):
        assert abs(g - v) <= 1e-12
        if _preserves(kind, s, p.frame):
            assert r == 0.0
        else:   # the channel-mapped factors, against the dense oracle
            assert abs(r - dense_r) <= 1e-12


# the dense points split their qubits into a top half and the rest, (4, 5)
# at n = 9; the lists repeat qubits within a half and across the halves, or
# list none
@pytest.mark.parametrize("frame", ["X", "Y"])
@pytest.mark.parametrize("n,witness_kind", [(2, None), (3, "ghz_type"), (4, "dicke_2_4"),
                                            (6, "ghz_type"), (8, "ghz_type"), (9, "ghz_type")])
def test_amplitude_damping_off_the_z_frame_stays_dense(rng, frame, n, witness_kind):
    p = random_valid_x_params(rng, n, frame)
    grid = strength_grid(0.0, 1.0, 11)[1:]
    for qubits in ([1, n, 1], [], [n, 2, n, n], [*range(1, n + 1)] * 2):
        traj = sweep(p, "amplitude_damping", qubits, grid, witness_kind)
        records, residuals = _dense_sweep(p, "amplitude_damping", qubits, grid, witness_kind)
        got = traj.concurrence if witness_kind is None else traj.witness
        assert np.max(np.abs(np.subtract(got, records))) <= 1e-12
        assert np.max(np.abs(np.subtract(traj.x_residual, residuals))) <= 1e-12
        if qubits:
            assert min(residuals) > 0.0


def _table_states(p, m):
    """Each point E(rho0) of p as a dense matrix, built from the mapped XOR
    tables m (qubit, G, half, r, s) that channels._factor_points reads and
    p's coefficients c (half, s) times 2**-n."""
    c = p.coeffs.take(model._xor_terms(p.n, p.frame).index) / (1 << p.n)
    t = channels._kron(list(m))                        # (G, half, r, s)
    r = np.arange(1 << p.n)[:, None]
    rho = np.zeros((m.shape[1], 1 << p.n, 1 << p.n), complex)
    rho[:, r, r ^ r.T] = (t * c[:, None, :]).sum(axis=1)
    return rho


@st.composite
def mapped_cases(draw):
    n = draw(st.integers(1, 6))
    frame = draw(st.sampled_from("XY"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_valid_x_params(rng, n, frame)
    kind = draw(st.sampled_from(KINDS))
    strengths = sorted(set(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))))
    qubits = draw(st.lists(st.integers(1, n), min_size=0, max_size=2 * n))
    return p, kind, strengths, qubits


# the X and Y frames, every kind, family-preserving or not: E(rho0) from the
# tables of the mapped factors, against the dense oracle (the Z frame's
# points are the sector step's, test_sector_step_matches_dense_oracle)
@settings(max_examples=100)
@given(mapped_cases())
def test_mapped_points_match_dense_oracle(case):
    p, kind, strengths, qubits = case
    superops = channels._superoperator(channels._kraus_stack(kind, np.array(strengths)))
    counts = [qubits.count(q) for q in range(1, p.n + 1)]
    points = _table_states(p, channels._xor_tables(superops, p.frame, counts)[0])
    assert len(points) == len(strengths)
    rho0 = materialize(p)
    for s, rho in zip(strengths, points):
        want = apply_channel(rho0, standard_channel(kind, s), qubits, p.n)
        assert np.max(np.abs(rho - want)) <= 1e-12


# every frame and kind: the sweep reads its dense points in one
# _factor_points call, and each one's residual is family_residual of that
# point's state, built from the same tables, and of the dense oracle's,
# within 1e-12.  A sweep needs n >= 2 (concurrence at n = 2, a witness from
# n = 2 on).
@settings(max_examples=100)
@given(sweep_cases())
def test_dense_point_residual_is_the_family_residual_of_its_state(case):
    p, kind, qubits, grid, witness_kind = case
    n, frame = p.n, p.frame
    calls, factor_points = [], channels._factor_points

    def recorded(p0, m, unmapped, w):
        calls.append(m)
        return factor_points(p0, m, unmapped, w)
    with mock.patch.object(channels, "_factor_points", recorded):
        traj = sweep(p, kind, qubits, grid, witness_kind)
    dense = [g for g, s in enumerate(grid) if not _preserves(kind, s, frame)]
    assert len(calls) == (1 if dense else 0)
    states = [rho for m in calls for rho in _table_states(p, m)]
    assert len(states) == len(dense)
    rho0 = materialize(p)
    for g, rho in zip(dense, states):
        residual = traj.x_residual[g]
        assert abs(residual - model.family_residual(rho, n, frame)) <= 1e-12
        want = apply_channel(rho0, standard_channel(kind, grid[g]), qubits, n)
        assert abs(residual - decompose(want, n, frame)[1]) <= 1e-12


# every frame and kind, n = 2..8: each point of the sweep against the dense
# oracle state apply_channel(materialize(p)), a dense point's residual and
# record read from its per-qubit tables (channels._factor_points) against
# decompose, evaluate_witness (a support of 2, 3 or 6 entries) and
# concurrence of that state; a family-preserving point's residual is 0.0
@settings(max_examples=150)
@given(sweep_cases(max_n=8))
def test_dense_points_match_the_dense_oracle(case):
    p, kind, qubits, grid, witness_kind = case
    n, frame = p.n, p.frame
    traj = sweep(p, kind, qubits, grid, witness_kind)
    got = traj.concurrence if witness_kind is None else traj.witness
    w = make_witness(witness_kind, n) if witness_kind is not None else None
    rho0 = materialize(p)
    for s, record, residual in zip(grid, got, traj.x_residual):
        rho = apply_channel(rho0, standard_channel(kind, s), qubits, n)
        want = concurrence(rho) if w is None else evaluate_witness(w, rho)[0]
        assert abs(record - want) <= 1e-12
        if _preserves(kind, s, frame):
            assert residual == 0.0
        else:
            assert abs(residual - decompose(rho, n, frame)[1]) <= 1e-12


# the points are read from O(2**n) tables and strips of linalg._STRIP_BYTES:
# no (dim, dim) complex array, 16 MiB at n = 10, is ever allocated
def test_dense_sweep_builds_no_dense_array():
    p = ghz_params(10, "X")
    sweep(p, "amplitude_damping", range(1, 11), (0.0, 0.5, 1.0), "ghz_type")
    channels._channel_family.cache_clear()
    tracemalloc.start()
    try:
        traj = sweep(p, "amplitude_damping", range(1, 11), (0.0, 0.5, 1.0), "ghz_type")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert min(traj.x_residual[1:]) > 0.0
    assert peak < 16 * (1 << 20)


# a qubit listed k times costs k small matmuls, not k powers held at once:
# 5000 listings stay far below the 12.8 MiB that the powers of the X
# frame's (10, 4, 4) superoperators alone would take, on the dense points
# and on the preserving ones
@pytest.mark.parametrize("frame,kind", [("X", "amplitude_damping"), ("Z", "phase_damping")])
def test_a_repeated_qubit_keeps_memory_flat(frame, kind):
    p = ghz_params(4, frame)
    grid = strength_grid(0.0, 1.0, 11)
    tracemalloc.start()
    try:
        traj = sweep(p, kind, [1] * 5000, grid, "ghz_type")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (1 << 20)
    rho = apply_channel(materialize(p), standard_channel(kind, grid[1]), [1] * 5000, 4)
    assert abs(traj.witness[1] - evaluate_witness(make_witness("ghz_type", 4), rho)[0]) <= 1e-12
    if kind == "phase_damping":
        assert traj.x_residual == (0.0,) * 11
    else:
        assert min(traj.x_residual[1:]) > 0.0


# a strip of 8 complex rows of a slab (16 * dl**2 bytes each, dl = 8 at n = 6
# and 16 at n = 7) holds half a slab's rows beside its operand, and one of
# 256 rows two points' slabs: the points are the dense oracle's either way
@pytest.mark.parametrize("strip_rows", [8, 256])
@pytest.mark.parametrize("n", [6, 7])
def test_dense_points_in_any_strip_size(monkeypatch, rng, strip_rows, n):
    monkeypatch.setattr(channels, "_STRIP_BYTES", strip_rows * 16 * (1 << 2 * (n - n // 2)))
    grid = strength_grid(0.0, 1.0, 6)
    for frame in "XY":
        p = random_valid_x_params(rng, n, frame)
        traj = sweep(p, "amplitude_damping", [n, 1, 2, n], grid, "ghz_type")
        records, residuals = _dense_sweep(p, "amplitude_damping", [n, 1, 2, n], grid, "ghz_type")
        assert np.max(np.abs(np.subtract(traj.witness, records))) <= 1e-12
        assert np.max(np.abs(np.subtract(traj.x_residual, residuals))) <= 1e-12


# the tables of _factor_points take each qubit's mapped factors to stay
# diagonal or anti-diagonal: every channel's superoperator maps the
# diagonal (|0><0|, |1><1|) and the off-diagonal (|0><1|, |1><0|) matrix
# units into their own spans, with exact zeros between them
@pytest.mark.parametrize("kind", KINDS)
def test_channels_are_phase_covariant(rng, kind):
    superops = channels._superoperator(channels._kraus_stack(
        kind, np.concatenate([np.linspace(0.0, 1.0, 21), rng.random(40)])))
    diagonal, off = [0, 3], [1, 2]
    assert not superops[:, diagonal][:, :, off].any()
    assert not superops[:, off][:, :, diagonal].any()
