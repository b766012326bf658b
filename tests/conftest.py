"""Shared independent oracles and random generators for the test suite."""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from xstates import DesignReport, PauliString, decompose

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


def bit_reversal_permutation(n):
    return np.array([int(format(b, f"0{n}b")[::-1], 2) for b in range(1 << n)])


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
