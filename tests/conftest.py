"""Shared independent oracles and random generators for the test suite."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import settings

from xstates import (FRAMES, DesignReport, PauliString, XStateParams, decompose, generate_set,
                     materialize, model)
from xstates.linalg import SECTOR_FIT_TOL

# An example's cost grows with its qubit count, so no per-example deadline;
# each @settings gives only its max_examples.
settings.register_profile("xstates", deadline=None)
settings.load_profile("xstates")

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
NAMED = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def oracle_pauli_matrix(p: PauliString) -> np.ndarray:
    """Literal Kronecker build from named factors; independent of the library path."""
    mats = [NAMED[p.axis_on(j)] for j in range(1, p.n + 1)]
    return (1j ** p.named_phase) * kron_chain(mats)


def oracle_axis_on(p: PauliString, qubit: int) -> str:
    """The named factor on ``qubit``: one bit test per mask, a literal table."""
    bit = 1 << (qubit - 1)
    x, z = bool(p.x_mask & bit), bool(p.z_mask & bit)
    return {(False, False): "I", (True, False): "X",
            (True, True): "Y", (False, True): "Z"}[(x, z)]


def oracle_single(axis: str, qubit: int, n: int) -> PauliString:
    bit = 1 << (qubit - 1)
    x = bit if axis in ("X", "Y") else 0
    z = bit if axis in ("Z", "Y") else 0
    return PauliString(n, x, z, 1 if axis == "Y" else 0)


def oracle_label(p: PauliString) -> str:
    parts = [f"{oracle_axis_on(p, j)}{j}" for j in range(1, p.n + 1)
             if oracle_axis_on(p, j) != "I"]
    return {0: "+", 1: "+i", 2: "-", 3: "-i"}[p.named_phase] + ("".join(parts) or "I")


def oracle_apply_frame(frame, p: PauliString) -> PauliString:
    """AxisFrame.apply qubit by qubit: relabel each factor, set its image's
    bits and count its sign flip."""
    x = z = 0
    flips = 0
    for j in range(1, p.n + 1):
        axis = oracle_axis_on(p, j)
        if axis == "I":
            continue
        new_axis, sign = {"X": frame.x, "Y": frame.y, "Z": frame.z}[axis]
        bit = 1 << (j - 1)
        if new_axis in ("X", "Y"):
            x |= bit
        if new_axis in ("Z", "Y"):
            z |= bit
        if sign < 0:
            flips += 1
    phase = (p.named_phase + (x & z).bit_count() + 2 * flips) % 4
    return PauliString(p.n, x, z, phase)


def oracle_family_operators(n, frame):
    """The frame's 2**(n+1) family operators in parameter order, d then a
    (the identity first), as dense matrices from the named factors, one at
    a time."""
    yield np.eye(1 << n, dtype=complex)
    for q in generate_set(n, frame).elements:
        yield oracle_pauli_matrix(q)


def oracle_family_sum(p):
    """2**-n * sum_k c_k P_k, one operator at a time.  In the X and Y
    frames each entry has exactly two nonzero terms, so one rounding."""
    expect = 0.0
    for c, op in zip(p.d + p.a, oracle_family_operators(p.n, p.frame)):
        expect = expect + c * op
    return expect / (1 << p.n)


def oracle_family_projection(rho, n, frame):
    """(coeffs, residual) of the projection of rho, or of each matrix of a
    stack, by the dense operators, 16 at a time: coeffs[..., k] =
    Re tr(P_k rho) = Re vec(rho) . vec(P_k^T), with d_0 pinned to 1, and
    the max-norm of rho minus their family sum."""
    dim = 1 << n
    flat = np.reshape(rho, (-1, dim * dim))
    ops = oracle_family_operators(n, frame)
    coeffs, sigma = [], 0.0
    while block := list(itertools.islice(ops, 16)):
        block = np.array(block)
        c = (flat @ block.transpose(0, 2, 1).reshape(len(block), -1).T).real
        if not coeffs:
            c[:, 0] = 1.0
        coeffs.append(c)
        sigma = sigma + c @ block.reshape(len(block), -1)
    residual = np.abs(flat - sigma / dim).max(axis=-1, initial=0.0)
    shape = np.shape(rho)[:-2]
    return (np.concatenate(coeffs, axis=-1).reshape(*shape, 2 << n),
            residual.reshape(shape))


def oracle_center_image(n, frame):
    """The frame's image of Z_1 Z_2, which commutes with every operator of
    the frame's family, as a dense matrix from the named factors."""
    axis = NAMED[FRAMES[frame].image("Z")[0]]
    return kron_chain([axis, axis] + [I2] * (n - 2))


def center_twist(rng, n, frame):
    """g U g^dag - U for g the frame's center image and U a random matrix
    unit in row 0, scaled to Frobenius norm 1 (U itself when that is 0).
    It lies off the commutant of g; its row-0 screen deviation is up to
    sqrt(2) times its norm, the most that the screen bound allows."""
    dim = 1 << n
    g = oracle_center_image(n, frame)
    unit = np.zeros((dim, dim), dtype=complex)
    unit[0, rng.integers(dim)] = 1.0
    twist = g @ unit @ g.conj().T - unit
    if not twist.any():
        twist = unit
    return twist / np.linalg.norm(twist)


def oracle_witness_matrix(alpha, psi):
    """The dense fidelity witness alpha * I - |psi><psi|, entry by entry."""
    amp = psi.amplitudes
    dim = len(amp)
    w = np.empty((dim, dim), dtype=complex)
    for r in range(dim):
        for c in range(dim):
            w[r, c] = (alpha if r == c else 0.0) - amp[r] * amp[c].conjugate()
    return w


def oracle_apply_kraus(rho, kraus, qubits, n):
    """Literal lifted Kraus sum: rho -> sum_k L rho L^dag with L = I (x) K_k (x) I,
    one listed qubit at a time; works on single matrices and stacks."""
    for q in qubits:
        pre, post = np.eye(1 << (q - 1)), np.eye(1 << (n - q))
        lifted = [kron_chain([pre, k, post]) for k in kraus]
        rho = sum(l @ rho @ l.conj().T for l in lifted)
    return rho


def oracle_partial_trace(rho, keep, n):
    """Index-summation partial trace, written without reshape tricks."""
    keep = sorted(keep)
    drop = [q for q in range(1, n + 1) if q not in keep]
    dim_out = 1 << len(keep)
    out = np.zeros((dim_out, dim_out), dtype=complex)

    def assemble(kept_bits, dropped_bits):
        idx = 0
        for q in range(1, n + 1):
            idx <<= 1
            if q in keep:
                idx |= kept_bits[keep.index(q)]
            else:
                idx |= dropped_bits[drop.index(q)]
        return idx

    for r in range(dim_out):
        rb = [(r >> (len(keep) - 1 - i)) & 1 for i in range(len(keep))]
        for c in range(dim_out):
            cb = [(c >> (len(keep) - 1 - i)) & 1 for i in range(len(keep))]
            total = 0.0 + 0j
            for e in range(1 << len(drop)):
                eb = [(e >> (len(drop) - 1 - i)) & 1 for i in range(len(drop))]
                total += rho[assemble(rb, eb), assemble(cb, eb)]
            out[r, c] = total
    return out


def oracle_negativity(rho, subset, n):
    """Negativity from a partial transpose written as an index loop: entry
    (r, c) moves to the pair with the subset's row and column bits exchanged;
    then a dense eigvalsh."""
    dim = 1 << n
    mask = sum(1 << (n - q) for q in set(subset))
    pt = np.zeros_like(rho)
    for r in range(dim):
        for c in range(dim):
            swap = (r ^ c) & mask
            pt[r ^ swap, c ^ swap] = rho[r, c]
    w = np.linalg.eigvalsh(pt)
    return float(-w[w < 0].sum())


def oracle_z_projection(rho, n):
    """(diff, entries) of the Z-frame projection, from a mask of the X
    positions built here: every Z-frame family operator is zero off the X,
    so the coefficients come from the X entries, rho minus the projection
    is rho's own entries off the X and the difference on it, and the
    sector entries are the X entries made Hermitian."""
    dim = 1 << n
    rows = np.arange(dim)
    cols = (rows, rows[::-1])                   # (b, b) and (b, ~b)
    on_x = np.zeros((dim, dim), dtype=bool)
    for c in cols:
        on_x[rows, c] = True
    x = np.array([rho[rows, c] for c in cols])
    coeffs = model._sector_coefficients(x, n)
    coeffs[0] = 1.0
    sigma = model._x_entries(coeffs, n).T
    diff = np.zeros((dim, dim), dtype=complex)
    diff[~on_x] = rho[~on_x]
    for c, e, s in zip(cols, x, sigma):
        diff[rows, c] = e - s
    return diff, (x[0].real, (x[1] + x[1][::-1].conj()) / 2)


def oracle_fit_distance(rho, n, frame):
    """(entries, distance, spread) of the frame's projection sigma:
    distance = sqrt(dim) ||rho - sigma||_F, for the Z frame's sigma from
    oracle_z_projection, the others' oracle_family_sum of
    oracle_family_projection's coefficients; their entries are the sector
    entries of decompose's coefficients, which the fit returns bitwise.
    spread = sqrt(dim) ||sigma - sigma'||_F for sigma' the program's
    projection, materialize of decompose's parameters, bounds how far the
    program's distance lies from this one besides the rounding of the
    norms; it is 0 in the Z frame, whose sigma the program's transforms
    make here too."""
    dim = 1 << n
    if frame == "Z":
        diff, entries = oracle_z_projection(rho, n)
        spread = 0.0
    else:
        coeffs, _ = oracle_family_projection(rho, n, frame)
        sigma = oracle_family_sum(XStateParams(n, coeffs[:dim], coeffs[dim:], frame))
        diff = rho - sigma
        q, _ = decompose(rho, n, frame)
        entries = model._sector_entries(np.concatenate([q.d, q.a]), n)
        spread = math.sqrt(dim) * np.linalg.norm(sigma - materialize(q))
    return entries, math.sqrt(dim) * np.linalg.norm(diff), spread


def fit_is_rounding_dependent(distance, spread, n):
    """Whether a fit decision at this oracle distance may go either way in
    the program: within spread (oracle_fit_distance) plus the rounding of
    the two norms, each to a relative (4**n + 16) 2**-52 (see
    model._screen_bound), of SECTOR_FIT_TOL."""
    rounding = 2 * (4 ** n + 16) * np.finfo(float).eps * SECTOR_FIT_TOL
    return abs(distance - SECTOR_FIT_TOL) <= spread + rounding


def oracle_fit_sectors(rho, n):
    """(entries, settled): the sector resolver by the one fit rule, without
    its row screens: the sector entries of the first frame, in the order
    Z, X, Y, whose projection lies within SECTOR_FIT_TOL
    (oracle_fit_distance), else None; settled is False when the decision
    of one of the frames tried may go either way in the program
    (fit_is_rounding_dependent)."""
    settled = True
    for frame in FRAMES:
        entries, distance, spread = oracle_fit_distance(rho, n, frame)
        settled = settled and not fit_is_rounding_dependent(distance, spread, n)
        if distance <= SECTOR_FIT_TOL:
            return entries, settled
    return None, settled


def unscreened_fit_sectors(rho, n):
    """The program's sector fit without its row screens: model._fit in the
    frames Z, X, Y, the first that fits, else None."""
    for frame in FRAMES:
        if (entries := model._fit(rho, n, frame)) is not None:
            return entries
    return None


def oracle_wootters_concurrence(rho):
    """Brute-force concurrence via a general (non-Hermitian) eigensolver."""
    yy = np.kron(SY, SY)
    m = rho @ yy @ rho.conj() @ yy
    lam = np.sqrt(np.abs(np.sort(np.linalg.eigvals(m).real)[::-1]))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def oracle_lines(opset):
    """Closed triples by a literal pair loop over the elements' masks."""
    index = {(p.x_mask, p.z_mask): k for k, p in enumerate(opset.elements)}
    seen = set()
    for i, p in enumerate(opset.elements):
        for j in range(i + 1, len(opset.elements)):
            q = opset.elements[j]
            k = index[(p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask)]
            seen.add(tuple(sorted((i, j, k))))
    return tuple(sorted(seen))


def oracle_center(opset):
    """Elements commuting with every element, by the symplectic-form test."""
    return tuple(p for p in opset.elements
                 if all(p.commutes(q) for q in opset.elements))


def oracle_verify_design(opset):
    """Pair coverage counted in a dict and searched pair by pair."""
    triples = oracle_lines(opset)
    v = len(opset.elements)
    cover = {}
    per_point = [0] * v
    for (i, j, k) in triples:
        for a, b in ((i, j), (i, k), (j, k)):
            cover[(a, b)] = cover.get((a, b), 0) + 1
        for p in (i, j, k):
            per_point[p] += 1
    counterexample = next(((i, j) for i in range(v) for j in range(i + 1, v)
                           if cover.get((i, j), 0) != 1), None)
    uniform = len(set(per_point)) == 1
    return DesignReport(points=v, blocks=len(triples), block_size=3,
                        lam=1 if counterexample is None else None,
                        lines_per_point=per_point[0] if uniform else None,
                        passed=counterexample is None and uniform,
                        counterexample=counterexample)


def oracle_simplex_labels(s):
    """Face labels as phase-tracked products of the vertex labels over every
    vertex subset, with the phase then dropped to named phase 0."""
    labels = {}
    for size in range(1, len(s.vertices) + 1):
        for verts in itertools.combinations(range(1, len(s.vertices) + 1), size):
            label = PauliString.identity(s.n)
            for v in verts:
                label = label * s.vertices[v - 1]
            labels[verts] = PauliString(s.n, label.x_mask, label.z_mask,
                                        label.y_mask.bit_count() % 4)
    return labels


def oracle_matrix_to_json(m):
    """The matrix dump built element by element."""
    m = np.asarray(m)
    return {"dim": int(m.shape[0]),
            "re": [[float(x) for x in row] for row in m.real],
            "im": [[float(x) for x in row] for row in m.imag]}


def oracle_matrix_to_csv(m):
    """The CSV dump built cell by cell."""
    lines = []
    for row in np.asarray(m):
        cells = []
        for x in row:
            cells.append(repr(float(x.real)))
            cells.append(repr(float(x.imag)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def params_with_signed_zeros(n, frame, seed):
    """XStateParams of random reals over ten decades, about a quarter of
    them exactly 0.0 and a quarter -0.0, d[0] = 1."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((2, 1 << n)) * 10.0 ** rng.integers(-5, 5, (2, 1 << n))
    pick = rng.integers(0, 4, values.shape)
    values[pick == 0] = 0.0
    values[pick == 1] = -0.0
    values[0, 0] = 1.0
    return model.XStateParams(n, *values, frame)


def random_pauli(rng, n) -> PauliString:
    full = (1 << n) - 1
    return PauliString(n, int(rng.integers(0, full + 1)),
                       int(rng.integers(0, full + 1)), int(rng.integers(0, 4)))


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_state_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_product_states(rng, n, count):
    """(count, 2**n) stack of product-state vectors."""
    out = np.ones((count, 1), dtype=complex)
    for _ in range(n):
        single = rng.normal(size=(count, 2)) + 1j * rng.normal(size=(count, 2))
        single /= np.linalg.norm(single, axis=1, keepdims=True)
        out = np.einsum("bi,bj->bij", out, single).reshape(count, -1)
    return out


def random_valid_x_matrix(rng, n):
    """A random physical X-pattern density matrix, built sector by sector."""
    dim = 1 << n
    full = dim - 1
    pairs = [(b, b ^ full) for b in range(dim) if b < (b ^ full)]
    if not pairs:  # n = 1: the single sector is the whole space
        pairs = [(0, 1)]
    weights = rng.random(len(pairs)) + 0.05
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for (lo, hi), w in zip(pairs, weights):
        block = random_density(rng, 2) * w
        rho[lo, lo] = block[0, 0]
        rho[lo, hi] = block[0, 1]
        rho[hi, lo] = block[1, 0]
        rho[hi, hi] = block[1, 1]
    return rho


def random_valid_x_params(rng, n, frame="Z"):
    """Parameters of a random physical X state, tagged with the given frame."""
    params, residual = decompose(random_valid_x_matrix(rng, n), n, "Z")
    assert residual < 1e-12
    if frame == "Z":
        return params
    return type(params)(n, params.d, params.a, frame)


def oracle_ghz_params(n, frame="Z"):
    """GHZ parameters by an index loop: d_i = 1 on even popcount; a_i = +1
    on popcount 0 mod 4, -1 on 2 mod 4, 0 on odd popcount."""
    d, a = {}, {}
    for i in range(1 << n):
        w = bin(i).count("1")
        if w % 2 == 0 and i:
            d[i] = 1.0
        if w % 4 == 0:
            a[i] = 1.0
        elif w % 4 == 2:
            a[i] = -1.0
    return model.XStateParams.build(n, frame, d=d, a=a)


def bit_reversal_permutation(n):
    return np.array([int(format(b, f"0{n}b")[::-1], 2) for b in range(1 << n)])


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
