"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402  (sets the environment the CLI digests assume)
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import xstates  # noqa: E402
from xstates import cli, model  # noqa: E402


def run_cycle(workload, seed=0, tracer=None):
    pas = run.Pass()
    for op in workload.cycle(np.random.default_rng(seed)):
        pas.run_op(op, tracer)
    return pas


# ---- tiny smoke pass of each workload ----------------------------------------

def test_state_scan_smoke():
    pas = run_cycle(workloads.StateScan({2: 4, 3: 3, 4: 3}))
    assert len(pas.latencies) == 10
    assert pas.failures == []


def test_decoherence_sweep_smoke():
    pas = run_cycle(workloads.DecoherenceSweep(weights=1, ghz_sizes=(4,)))
    assert len(pas.latencies) == 9 + 6
    assert pas.failures == []


def test_cli_session_smoke(tmp_path):
    session = workloads.CliSession(run.ROOT, str(tmp_path), large=False)
    pas = run_cycle(session)
    assert len(pas.latencies) == 11
    assert pas.failures == []


def test_cli_session_in_process_matches_subprocess(tmp_path):
    session = workloads.CliSession(run.ROOT, str(tmp_path), in_process=True, large=False)
    assert run_cycle(session).failures == []


# ---- attribution ----------------------------------------------------------------

def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    inner = tracer.span("test.inner", lambda: _busy(0.01))

    def outer_body():
        _busy(0.01)
        inner()
        inner()

    outer = tracer.span("test.outer", outer_body)
    tracer.active = True
    outer()
    tracer.active = False
    ids, dur, self_s = tracer.self_times()
    names = [tracer.names[i] for i in ids]
    assert names == ["test.outer", "test.inner", "test.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert self_s[0] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert self_s[0] == pytest.approx(0.01, abs=0.005)
    assert self_s.sum() == pytest.approx(tracer.top_level_seconds())


def test_inactive_tracer_records_nothing():
    tracer = tracing.Tracer()
    tracer.span("test.f", lambda: 1)()
    assert tracer.spans == []


def test_install_patches_every_binding_and_uninstall_restores():
    original = model.materialize
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = model.materialize
        assert wrapped is not original
        assert xstates.materialize is wrapped
        assert cli.materialize is wrapped
        assert xstates.channels.materialize is wrapped
        tracer.active = True
        cli.run(["marginal", "--state", "ghz", "--n", "3", "--keep", "1"],
                stdout=open(os.devnull, "w"))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert model.materialize is original and cli.materialize is original
    names = [tracer.names[s[0]] for s in tracer.spans]
    assert names[0] == "cli.run"
    assert "model.materialize" in names and "linalg.partial_trace" in names
    assert all(s[3] >= 0 for s in tracer.spans[1:])
    assert tracer.work["model.materialize.bytes"] == 16 * 4 ** 3
    _, _, self_s = tracer.self_times()
    assert self_s.sum() == pytest.approx(tracer.top_level_seconds())


# ---- generator ------------------------------------------------------------------

def test_generator_is_deterministic():
    def draw(seed):
        scan = workloads.StateScan({2: 3, 5: 3})
        scan.cycle(np.random.default_rng(seed))
        return inputs.digest(scan.inputs)
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_generated_states_have_the_requested_physicality(n):
    rng = np.random.default_rng(n)
    good = inputs.random_state(rng, n, "X")
    bad = inputs.random_state(rng, n, "Y", physical=False)
    assert good.d[0] == bad.d[0] == 1.0
    assert ref.min_eigenvalue(*good.entries()) > 0
    assert ref.min_eigenvalue(*bad.entries()) <= -1e-6
    assert model.validate(model.XStateParams(n, bad.d, bad.a, "Y")).is_valid is False


@pytest.mark.parametrize("frame", ["Z", "X", "Y"])
def test_reference_materialization_matches_library(frame):
    s = inputs.random_state(np.random.default_rng(1), 4, frame)
    rho = model.materialize(model.XStateParams(4, s.d, s.a, frame))
    want = ref.to_frame(ref.dense_x(*s.entries()), 4, frame)
    assert np.max(np.abs(rho - want)) < 1e-12


# ---- wrong outputs are counted --------------------------------------------------

def test_wrong_output_is_counted_as_failed():
    scan = workloads.StateScan({3: 2})
    ops = scan.cycle(np.random.default_rng(0))
    good, bad = ops

    def corrupted():
        out = good.run()
        out["rho"] = out["rho"] + 1e-6
        return out

    def raising():
        raise RuntimeError("boom")

    pas = run.Pass()
    pas.run_op(workloads.Op("corrupted", corrupted, good.check))
    pas.run_op(workloads.Op("raising", raising, good.check))
    pas.run_op(bad)
    assert len(pas.latencies) == 3
    assert len(pas.failures) == 2
    assert pas.failures[0].startswith("corrupted: materialize")
    assert pas.failures[1].startswith("raising: raised")


def test_wrong_exit_code_is_counted(tmp_path):
    session = workloads.CliSession(run.ROOT, str(tmp_path), in_process=True, large=False)
    op = session.cycle(np.random.default_rng(0))[-3]     # unknown state: exit 1
    pas = run.Pass()
    pas.run_op(workloads.Op(op.label, lambda: (0, b""), op.check))
    assert len(pas.failures) == 1 and "exit code 0" in pas.failures[0]
