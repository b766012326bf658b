"""The three workloads: their operations, warm-ups and output checks.

A workload hands out one *cycle* at a time: a fixed mix of operations whose
random values come from the seed.  Every cycle of a workload has the same
composition, so figures over whole cycles do not depend on the seed.  One
operation is one unit of user work; ``Op.run`` is the timed part and
``Op.check`` compares its output with an independent reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from xstates import channels, cli, model, witness

import reference as ref
from inputs import StateInput, random_state

TOL = 1e-9
DETECTION_TOL = -1e-10
FRAMES = ("Z", "X", "Y")
KINDS = ("amplitude_damping", "phase_damping", "depolarizing")
HERE = os.path.dirname(os.path.abspath(__file__))


class Mismatch(Exception):
    """An output disagreed with its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def close(got, want, what: str, tol: float = TOL) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    expect(err <= tol, f"{what}: off by {err:.3e}")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]     # raises Mismatch on a wrong output


# ---- state_scan ---------------------------------------------------------------

# States per cycle for each n: weighted toward small n, a multiple of three
# so that every frame gets the same share of each size.  The 90th latency
# percentile falls among the n = 8 states; twelve of them per cycle give it
# a sample of its own instead of a step between two sizes.
SCAN_COUNTS = {2: 30, 3: 21, 4: 15, 5: 12, 6: 9, 7: 6, 8: 12, 9: 3, 10: 3}


def _scan(s: StateInput) -> dict:
    p = model.XStateParams(s.n, s.d, s.a, s.frame)
    out = {"report": model.validate(p)}
    rho = model.materialize(p)
    out["rho"] = rho
    out["params"], out["residual"] = model.decompose(rho, s.n, s.frame)
    if s.n == 2:
        out["concurrence"] = witness.concurrence(rho)
    else:
        out["negativity"] = witness.negativity(rho, [1], s.n)
        w = witness.make_witness("ghz_type", s.n)
        out["witness"] = witness.evaluate_witness(w, rho)
    return out


def _check_scan(s: StateInput, out: dict) -> None:
    diag, anti = s.entries()
    rep = out["report"]
    expect(rep.is_valid == s.physical, f"is_valid {rep.is_valid}, physical {s.physical}")
    close(rep.min_eigenvalue, ref.min_eigenvalue(diag, anti), "min_eigenvalue")
    expect(rep.trace_deviation <= TOL, "trace_deviation")
    expect(rep.hermiticity_deviation <= TOL, "hermiticity_deviation")
    rho_ref = ref.to_frame(ref.dense_x(diag, anti), s.n, s.frame)
    close(out["rho"], rho_ref, "materialize")
    q = out["params"]
    expect((q.n, q.frame) == (s.n, s.frame), "decompose n/frame")
    close(q.d, s.d, "decompose d")
    close(q.a, s.a, "decompose a")
    expect(out["residual"] <= TOL, f"decompose residual {out['residual']:.3e}")
    if s.n == 2:
        c = out["concurrence"]
        if s.physical:
            close(c, ref.yu_eberly(diag, anti), "concurrence")
        else:   # undefined for an unphysical state; it must still be a number
            expect(math.isfinite(c) and c >= 0, "concurrence not a number")
    else:
        close(out["negativity"], ref.negativity_qubit1(diag, anti), "negativity")
        value, detects = out["witness"]
        want = 0.5 - ref.ghz_fidelity(rho_ref)
        close(value, want, "ghz_type witness")
        expect(detects == (want < DETECTION_TOL), "witness detects flag")


def _scan_op(s: StateInput) -> Op:
    kind = "physical" if s.physical else "unphysical"
    return Op(f"scan n={s.n} {s.frame} {kind}", lambda: _scan(s),
              lambda out: _check_scan(s, out))


class StateScan:
    """Analyse random X states: validate, materialize, decompose, measures."""

    name = "state_scan"
    cycle_seconds = 16.0      # one cycle at the seed commit

    def __init__(self, counts: dict[int, int] = SCAN_COUNTS):
        self.counts = counts
        self.inputs: list = []

    def cycle(self, rng: np.random.Generator) -> list[Op]:
        states = []
        for n, count in self.counts.items():
            offset = int(rng.integers(4))
            for j in range(count):
                # frames rotate; about a quarter of the states are unphysical
                states.append(random_state(rng, n, FRAMES[j % 3],
                                           physical=(j + offset) % 4 != 0))
        self.inputs += states
        return [_scan_op(states[i]) for i in rng.permutation(len(states))]

    def warm_up(self) -> None:
        """One operation per frame at each n whose operator stack is cached."""
        rng = np.random.default_rng(0)
        for n in range(2, 7):
            for f in FRAMES:
                _scan(random_state(rng, n, f))


# ---- decoherence_sweep ----------------------------------------------------------

WERNER_WEIGHTS = 8
QUBIT_SETS = ((1,), (2,), (1, 2))
GHZ_SIZES = (4, 6, 8)
GHZ_FRAMES = ("Z", "X")


def _ghz_entries(n: int) -> tuple[np.ndarray, np.ndarray]:
    size = 1 << n
    diag = np.zeros(size)
    anti = np.zeros(size, dtype=complex)
    diag[0] = diag[-1] = anti[0] = anti[-1] = 0.5
    return diag, anti


def _werner_entries(p: float) -> tuple[np.ndarray, np.ndarray]:
    """(1-p)/4 I + p |Phi+><Phi+|."""
    diag = np.full(4, (1 - p) / 4) + np.array([p / 2, 0, 0, p / 2])
    anti = np.array([p / 2, 0, 0, p / 2], dtype=complex)
    return diag, anti


def _check_grid(traj, count: int) -> np.ndarray:
    grid = np.linspace(0.0, 1.0, count)
    close(traj.strengths, grid, "strengths", tol=1e-15)
    expect(len(traj.x_residual) == count, "x_residual length")
    return grid


def _check_werner(p: float, kind: str, qubits, traj) -> None:
    grid = _check_grid(traj, 21)
    expect(traj.witness is None and traj.concurrence is not None, "record columns")
    diag, anti = _werner_entries(p)
    for s, c, r in zip(grid, traj.concurrence, traj.x_residual):
        close(c, ref.yu_eberly(*ref.evolve_x(2, diag, anti, kind, s, qubits)),
              f"concurrence at {s}")
        expect(r <= TOL, f"x_residual {r:.3e} at {s}")


class DecoherenceSweep:
    """Channel sweeps: two-qubit Werner states and n-qubit GHZ states."""

    name = "decoherence_sweep"
    cycle_seconds = 13.0      # one cycle at the seed commit

    def __init__(self, weights: int = WERNER_WEIGHTS, ghz_sizes=GHZ_SIZES):
        self.weights = weights
        self.ghz_sizes = ghz_sizes
        self._ghz_ref: dict = {}
        self.inputs: list = []

    def _werner_op(self, p: float, kind: str, qubits) -> Op:
        def run():
            return channels.sweep(model.werner(p), kind, list(qubits),
                                  channels.strength_grid(0.0, 1.0, 21))
        return Op(f"werner {kind} {qubits}", run,
                  lambda traj: _check_werner(p, kind, qubits, traj))

    def _ghz_op(self, n: int, frame: str, kind: str) -> Op:
        qubits = list(range(1, n + 1))

        def run():
            return channels.sweep(model.ghz_params(n, frame), kind, qubits,
                                  channels.strength_grid(0.0, 1.0, 11),
                                  witness_kind="ghz_type")

        def check(traj):
            grid = _check_grid(traj, 11)
            expect(traj.concurrence is None and traj.witness is not None, "record columns")
            want_w, want_r = self._ghz_reference(n, frame, kind, grid)
            close(traj.witness, want_w, "ghz_type witness")
            close(traj.x_residual, want_r, "x_residual")
        return Op(f"ghz n={n} {frame} {kind}", run, check)

    def _ghz_reference(self, n, frame, kind, grid):
        key = (n, frame, kind)
        if key not in self._ghz_ref:
            qubits = range(1, n + 1)
            diag, anti = _ghz_entries(n)
            wit, res = [], []
            if frame == "Z":   # stays an X state: evolve the entries
                for s in grid:
                    d2, a2 = ref.evolve_x(n, diag, anti, kind, s, qubits)
                    wit.append(0.5 - ref.ghz_fidelity_x(d2, a2))
                    res.append(0.0)
            else:              # leaves the family: evolve the dense matrix
                rho0 = ref.to_frame(ref.dense_x(diag, anti), n, frame)
                for s in grid:
                    rho = ref.apply_kraus(rho0, ref.kraus_ops(kind, s), qubits, n)
                    wit.append(0.5 - ref.ghz_fidelity(rho))
                    res.append(ref.family_residual(rho, n, frame))
            self._ghz_ref[key] = (np.array(wit), np.array(res))
        return self._ghz_ref[key]

    def cycle(self, rng: np.random.Generator) -> list[Op]:
        weights = [float(p) for p in rng.uniform(0.0, 1.0, size=self.weights)]
        self.inputs += weights
        ops = [self._werner_op(p, kind, qs)
               for p in weights for kind in KINDS for qs in QUBIT_SETS]
        ops += [self._ghz_op(n, f, kind) for n in self.ghz_sizes
                for f in GHZ_FRAMES for kind in KINDS]
        return [ops[i] for i in rng.permutation(len(ops))]

    def warm_up(self) -> None:
        """Short sweeps of each kind; fills the cached operator stacks."""
        grid = channels.strength_grid(0.0, 1.0, 2)
        for kind in KINDS:
            channels.sweep(model.werner(0.5), kind, [1, 2], grid)
            for n in (4, 6):
                for f in GHZ_FRAMES:
                    channels.sweep(model.ghz_params(n, f), kind, range(1, n + 1),
                                   grid, witness_kind="ghz_type")


# ---- cli_session ----------------------------------------------------------------

with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as _fh:
    DIGESTS: dict[str, str] = json.load(_fh)

# model._NAMED_EXAMPLES["w_witness_state_3"], copied as data.
W_EXAMPLE = dict(n=3, frame="X", d={3: 1.0, 5: 1.0, 6: 1.0},
                 a={1: -1.0, 2: -1.0, 4: -1.0, 7: 1.0})


def _sparse_params(n, d, a):
    dv = np.zeros(1 << n)
    av = np.zeros(1 << n)
    dv[0] = 1.0
    for i, v in d.items():
        dv[i] = v
    for i, v in a.items():
        av[i] = v
    return dv, av


def _check_digest(key: str):
    def check(res):
        code, out = res
        expect(code == 0, f"exit code {code}")
        expect(hashlib.sha256(out).hexdigest() == DIGESTS[key], f"digest of {key!r}")
    return check


def _json_out(res, code: int):
    got, out = res
    expect(got == code, f"exit code {got}, expected {code}")
    return json.loads(out)


def _check_exit(code: int):
    def check(res):
        got, out = res
        expect(got == code, f"exit code {got}, expected {code}")
        expect(out == b"", "payload on a failed invocation")
    return check


def _check_validate(code: int, diag, anti):
    def check(res):
        rep = _json_out(res, code)
        expect(rep["is_valid"] == (code == 0), "is_valid")
        close(rep["min_eigenvalue"], ref.min_eigenvalue(diag, anti), "min_eigenvalue")
        expect(rep["trace_deviation"] <= TOL, "trace_deviation")
        expect(rep["hermiticity_deviation"] <= TOL, "hermiticity_deviation")
    return check


def _check_witness(label: str, want: float):
    def check(res):
        rep = _json_out(res, 0)
        expect(rep["witness"] == label, "witness label")
        close(rep["value"], want, "witness value")
        expect(rep["detects"] == (want < DETECTION_TOL), "detects flag")
    return check


def _check_matrix(want: np.ndarray):
    def check(res):
        dump = _json_out(res, 0)
        expect(dump["dim"] == want.shape[0], "matrix dim")
        close(np.asarray(dump["re"]) + 1j * np.asarray(dump["im"]), want, "matrix")
    return check


def _check_trajectory(count: int, column: str, want: np.ndarray):
    def check(res):
        code, out = res
        expect(code == 0, f"exit code {code}")
        lines = out.decode().splitlines()
        expect(lines[0] == "strength,concurrence,witness,x_residual", "csv header")
        rows = [line.split(",") for line in lines[1:]]
        expect(len(rows) == count, "csv rows")
        col = {"concurrence": 1, "witness": 2}[column]
        other = 3 - col
        close([float(r[0]) for r in rows], np.linspace(0.0, 1.0, count), "strengths", 1e-15)
        expect(all(r[other] == "" for r in rows), "unrecorded column not empty")
        close([float(r[col]) for r in rows], want, column)
        expect(all(float(r[3]) <= TOL for r in rows), "x_residual")
    return check


def _check_gen_params(n: int):
    d, a = ref.params_from_entries(n, *_ghz_entries(n))

    def check(res):
        obj = _json_out(res, 0)
        expect((obj["n"], obj["frame"]) == (n, "Z"), "n/frame")
        close(obj["d"], d, "d")
        close(obj["a"], a, "a")
    return check


def _ghz_marginal() -> np.ndarray:
    """Any two-qubit marginal of a GHZ state: (|00><00| + |11><11|) / 2."""
    return np.diag([0.5, 0, 0, 0.5]).astype(complex)


def _evolve_ghz(n: int, column: str, count: int) -> np.ndarray:
    diag, anti = _ghz_entries(n)
    out = []
    for s in np.linspace(0.0, 1.0, count):
        d2, a2 = ref.evolve_x(n, diag, anti, "amplitude_damping", s, range(1, n + 1))
        out.append(ref.yu_eberly(d2, a2) if column == "concurrence"
                   else 0.5 - ref.ghz_fidelity_x(d2, a2))
    return np.array(out)


class CliSession:
    """``python -m xstates`` invocations: the README examples, a large-n set,
    and invocations that must fail with exit code 1 or 2.

    With ``in_process`` the same invocations go through ``cli.run`` in this
    interpreter, which the traced run needs.
    """

    name = "cli_session"
    cycle_seconds = 14.0      # one cycle at the seed commit

    def __init__(self, root: str, workdir: str, in_process: bool = False,
                 large: bool = True):
        self.root = root
        self.workdir = workdir
        self.in_process = in_process
        self.large = large
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self._y_ghz = None
        self._cycles = 0
        self.inputs: list = []

    def invoke(self, argv: list[str]) -> tuple[int, bytes]:
        if not self.in_process:
            proc = subprocess.run([sys.executable, "-m", "xstates", *argv],
                                  cwd=self.root, env=self.env,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            return proc.returncode, proc.stdout
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out):    # argparse --help prints here
            code = cli.run(argv, stdout=out, stderr=err)
        return code, out.getvalue().encode()

    def _op(self, argv: str, check) -> Op:
        args = argv.split()
        return Op(argv, lambda: self.invoke(args), check)

    def _write_state(self, name: str, s: StateInput, d0: float = 1.0) -> str:
        path = os.path.join(self.workdir, name)
        d = list(s.d)
        d[0] = d0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": s.n, "frame": s.frame, "d": d, "a": list(s.a)}, fh)
        return os.path.relpath(path, self.root)

    def _y_frame_ghz(self) -> np.ndarray:
        if self._y_ghz is None:
            self._y_ghz = ref.to_frame(ref.dense_x(*_ghz_entries(10)), 10, "Y")
        return self._y_ghz

    def cycle(self, rng: np.random.Generator) -> list[Op]:
        good = random_state(rng, 3, FRAMES[int(rng.integers(3))])
        bad = random_state(rng, 3, FRAMES[int(rng.integers(3))], physical=False)
        self.inputs += [good, bad]
        k = self._cycles        # files per cycle: the traced run replays cycles
        self._cycles += 1
        good_path = self._write_state(f"state-{k}.json", good)
        bad_path = self._write_state(f"unphysical-{k}.json", bad)
        trace_path = self._write_state(f"trace2-{k}.json", good, d0=2.0)
        w_rho = ref.to_frame(ref.dense_x(*ref.x_entries(
            3, *_sparse_params(3, W_EXAMPLE["d"], W_EXAMPLE["a"]))), 3, "X")
        w_vec = np.zeros(8)
        w_vec[[1, 2, 4]] = 1 / np.sqrt(3)
        w_value = 2.0 / 3.0 - float((w_vec @ w_rho @ w_vec).real)
        ghz10 = _ghz_entries(10)
        ops = [  # the README examples
            self._op("gen --state ghz --n 3", _check_gen_params(3)),
            self._op(f"validate --state {good_path}",
                     _check_validate(0, *good.entries())),
            self._op("algebra --n 2", _check_digest("algebra --n 2")),
            self._op("incidence --n 3 --format dot",
                     _check_digest("incidence --n 3 --format dot")),
            self._op("witness --state w_witness_state_3 --kind w_type",
                     _check_witness("w_type_3", w_value)),
            self._op("evolve --state bell --channel amplitude_damping "
                     "--strength-grid 0:1:21 --qubits 1,2",
                     _check_trajectory(21, "concurrence",
                                       _evolve_ghz(2, "concurrence", 21))),
            self._op("marginal --state ghz --n 3 --keep 2,3",
                     _check_matrix(_ghz_marginal())),
        ]
        if self.large:
            ops += [
                self._op("algebra --n 8", _check_digest("algebra --n 8")),
                self._op("incidence --n 8 --format dot",
                         _check_digest("incidence --n 8 --format dot")),
                self._op("gen --state ghz --n 10 --frame Y --format matrix",
                         _check_matrix(self._y_frame_ghz())),
                self._op("validate --state ghz --n 10 --frame X",
                         _check_validate(0, *ghz10)),
                self._op("validate --state ghz --n 11",
                         _check_validate(0, *_ghz_entries(11))),
                self._op("witness --state ghz --n 10 --kind ghz_type",
                         _check_witness("ghz_type_10", 0.5 - ref.ghz_fidelity_x(*ghz10))),
                self._op("evolve --state ghz --n 8 --channel amplitude_damping "
                         "--strength-grid 0:1:11 --kind ghz_type",
                         _check_trajectory(11, "witness", _evolve_ghz(8, "witness", 11))),
                self._op("marginal --state ghz --n 10 --keep 1,2",
                         _check_matrix(_ghz_marginal())),
            ]
        ops += [  # invocations that must fail
            self._op(f"validate --state {trace_path}", _check_exit(1)),
            self._op("validate --state no_such_state", _check_exit(1)),
            self._op(f"validate --state {bad_path}", _check_validate(2, *bad.entries())),
            self._op("--help", _check_digest("--help")),
        ]
        return ops

    def warm_up(self) -> None:
        """In process, run each README example once; a subprocess has no
        state to warm."""
        if self.in_process:
            for op in self.cycle(np.random.default_rng(0))[:7]:
                op.run()
