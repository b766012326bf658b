import io
import json
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (oracle_matrix_to_csv, oracle_matrix_to_json, params_with_signed_zeros,
                      random_valid_x_params)
from xstates import cli, matrix_from_json, model, params_from_json, params_to_json
from xstates.cli import run
from xstates.model import XStateParams, ghz_params


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


DOCUMENTED = [
    ["gen", "--state", "ghz", "--n", "3"],
    ["gen", "--state", "werner:0.5"],
    ["gen", "--state", "bell_diagonal:1,-1,1", "--format", "matrix"],
    ["gen", "--state", "w_witness_state_3", "--format", "csv"],
    ["validate", "--state", "ghz", "--n", "4"],
    ["algebra", "--n", "2"],
    ["algebra", "--n", "3", "--frame", "X"],
    ["incidence", "--n", "2", "--format", "dot"],
    ["incidence", "--n", "3", "--format", "json"],
    ["witness", "--state", "w_witness_state_3", "--kind", "w_type"],
    ["witness", "--state", "dicke_witness_state_4", "--kind", "dicke_2_4"],
    ["evolve", "--state", "bell", "--channel", "amplitude_damping",
     "--strength-grid", "0:1:5", "--qubits", "1,2"],
    ["evolve", "--state", "ghz", "--n", "3", "--channel", "phase_damping",
     "--strength-grid", "0:1:5", "--kind", "ghz_type"],
    ["marginal", "--state", "ghz", "--n", "3", "--keep", "2,3"],
]


@pytest.mark.parametrize("argv", DOCUMENTED, ids=lambda a: " ".join(a))
def test_documented_invocations_succeed_and_are_deterministic(argv):
    code1, out1, err1 = invoke(argv)
    code2, out2, _ = invoke(argv)
    assert code1 == code2 == 0, err1
    assert out1 == out2
    assert out1


def test_documented_invocations_use_no_indented_json_encoder():
    real_iterencode = json.JSONEncoder.iterencode
    indents = []

    def iterencode(self, o, _one_shot=False):
        indents.append(self.indent)
        return real_iterencode(self, o, _one_shot)

    with mock.patch.object(json.JSONEncoder, "iterencode", iterencode), \
         mock.patch("json.dumps", wraps=json.dumps) as dumps:
        for argv in DOCUMENTED:
            assert invoke(argv)[0] == 0, argv
    assert all(c.kwargs.get("indent") is None for c in dumps.call_args_list)
    assert indents and all(indent is None for indent in indents)


def _assert_indent_2_json(argv):
    code, out, err = invoke(argv)
    assert code == 0, err
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("frame", ["Z", "X", "Y"])
def test_matrix_dumps_equal_indented_json_dumps(tmp_path, rng, frame):
    for n in range(1, 7):
        state = tmp_path / f"random-{n}.json"
        state.write_text(json.dumps(params_to_json(random_valid_x_params(rng, n, frame))))
        states = [["--state", str(state)]]
        if n > 1:  # GHZ states and proper subsets of the qubits start at n = 2
            states.append(["--state", "ghz", "--n", str(n), "--frame", frame])
        for flags in states:
            _assert_indent_2_json(["gen", *flags, "--format", "matrix"])
            if n > 1:
                keep = "1,2" if n > 2 else "1"
                _assert_indent_2_json(["marginal", *flags, "--keep", keep])


@settings(max_examples=40, deadline=None)
@given(p=st.builds(params_with_signed_zeros, st.integers(1, 7), st.sampled_from("ZXY"),
                   st.integers(0, 2**32 - 1)))
def test_gen_dumps_equal_elementwise_oracles(tmp_path_factory, p):
    state = tmp_path_factory.getbasetemp() / "gen-dump-state.json"
    state.write_text(json.dumps(params_to_json(p)))
    rho = model.materialize(p)
    for fmt, text in (("matrix", json.dumps(oracle_matrix_to_json(rho), indent=2) + "\n"),
                      ("csv", oracle_matrix_to_csv(rho))):
        code, out, err = invoke(["gen", "--state", str(state), "--format", fmt])
        assert code == 0, err
        assert out == text


def test_largest_matrix_dump_equals_indented_json_dumps():
    _assert_indent_2_json(["gen", "--state", "ghz", "--n", "10", "--frame", "Y",
                           "--format", "matrix"])


def test_algebra_summary_golden():
    code, out, _ = invoke(["algebra", "--n", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["points"] == 7
    assert obj["lines"] == 7
    assert obj["center"] == ["+Z1Z2"]
    assert obj["design"]["pass"] is True
    assert len(obj["set"]["points"]) == 7
    assert len(obj["set"]["lines"]) == 7


def test_witness_golden_value():
    code, out, _ = invoke(["witness", "--state", "w_witness_state_3",
                           "--kind", "w_type"])
    assert code == 0
    obj = json.loads(out)
    assert obj["detects"] is True
    assert abs(obj["value"] + 1 / 12) < 1e-12


def test_gen_state_round_trip():
    code, out, _ = invoke(["gen", "--state", "ghz", "--n", "3"])
    assert code == 0
    params = params_from_json(json.loads(out))
    assert params == ghz_params(3)


def test_marginal_round_trip():
    code, out, _ = invoke(["marginal", "--state", "ghz", "--n", "3",
                           "--keep", "2,3"])
    assert code == 0
    m = matrix_from_json(json.loads(out))
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.max(np.abs(m - expect)) < 1e-14


def test_validate_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(params_to_json(ghz_params(2))))
    code, out, _ = invoke(["validate", "--state", str(good)])
    assert code == 0
    assert json.loads(out)["is_valid"] is True

    unphysical = tmp_path / "unphysical.json"
    params = XStateParams.build(2, a={0: 2.0})
    unphysical.write_text(json.dumps(params_to_json(params)))
    code, out, _ = invoke(["validate", "--state", str(unphysical)])
    assert code == 2
    assert json.loads(out)["is_valid"] is False

    tampered = tmp_path / "tampered.json"
    obj = params_to_json(ghz_params(2))
    obj["d"] = [0.9] + obj["d"][1:]
    tampered.write_text(json.dumps(obj))
    code, out, err = invoke(["validate", "--state", str(tampered)])
    assert code == 1
    assert "d[0]" in err


@pytest.mark.parametrize("mutate", [
    lambda o: o.update(n=True, d=[True, False], a=[0, 0]),
    lambda o: o.update(d=[1.0, False, 0.0, 0.0]),
    lambda o: o.update(a=[0.0, 0.0, 0.0, True]),
], ids=["n", "d", "a"])
def test_validate_rejects_json_booleans(tmp_path, mutate):
    obj = params_to_json(ghz_params(2))
    mutate(obj)
    state = tmp_path / "booleans.json"
    state.write_text(json.dumps(obj))
    code, out, err = invoke(["validate", "--state", str(state)])
    assert code == 1
    assert out == ""
    assert "state file" in err


@pytest.mark.parametrize("mutate, text", [
    (lambda o: o["a"].__setitem__(1, 10 ** 400), "parameters must be finite reals"),
    (lambda o: o.update(n=13), "qubit count must be an integer in 1..12, got 13"),
], ids=["401-digit entry", "n=13"])
def test_validate_rejects_out_of_range_state_file_in_one_line(tmp_path, mutate, text):
    obj = params_to_json(ghz_params(2))
    mutate(obj)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(obj))
    proc = subprocess.run([sys.executable, "-m", "xstates", "validate", "--state", str(state)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: state file {str(state)!r}: {text}\n"


def test_malformed_invocations_exit_one():
    for argv in (
        ["algebra", "--n", "2", "--bogus"],
        ["nonsense"],
        ["witness", "--state", "w_witness_state_3"],
        ["gen", "--state", "no_such_state"],
        ["gen"],
        ["evolve", "--state", "bell", "--channel", "amplitude_damping",
         "--strength-grid", "oops"],
        ["marginal", "--state", "bell", "--keep", "1,2"],
        ["gen", "--state", "ghz", "--n", "3", "--frame", "Q"],
    ):
        code, out, err = invoke(argv)
        assert code == 1, argv
        assert err


@pytest.mark.parametrize("argv", [
    ["gen", "--state", "ghz", "--n", "3", "--keep", "1"],
    ["validate", "--state", "ghz", "--n", "4", "--format", "csv"],
    ["algebra", "--n", "2", "--channel", "foo"],
    ["incidence", "--n", "2", "--state", "bell"],
    ["witness", "--state", "w_witness_state_3", "--kind", "w_type",
     "--qubits", "1"],
    ["evolve", "--state", "bell", "--channel", "amplitude_damping",
     "--strength-grid", "0:1:5", "--keep", "1"],
    ["marginal", "--state", "ghz", "--n", "3", "--keep", "2,3",
     "--strength-grid", "0:1:5"],
], ids=lambda a: a[0])
def test_flag_of_another_subcommand_exits_one(argv):
    code, out, err = invoke(argv)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "payload.json"
    code, out, _ = invoke(["algebra", "--n", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["points"] == 7


# an --out path that cannot be opened exits 1 in one error line: no
# traceback, no payload on stdout and no file, also for an unphysical state
# (exit 2 otherwise)
@pytest.mark.parametrize("where", ["missing/x.json", "."])
@pytest.mark.parametrize("state", [["ghz", "--n", "3"], ["bell_diagonal:1,1,1"]])
def test_out_flag_unwritable_path_exits_one(tmp_path, where, state):
    target = tmp_path / where
    code, out, err = invoke(["validate", "--state", *state, "--out", str(target)])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {str(target)!r}: ")
    assert list(tmp_path.iterdir()) == []


def test_evolve_csv_parses():
    code, out, _ = invoke(["evolve", "--state", "bell", "--channel",
                           "amplitude_damping", "--strength-grid", "0:1:5",
                           "--qubits", "1,2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "strength,concurrence,witness,x_residual"
    assert len(lines) == 6
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] > 0.99 and values[-1] == 0.0


@pytest.mark.parametrize("grid,message", [
    ("0:2:3", "error: channel strength must lie in [0, 1], got 2.0"),
    ("0.5:1.5:2", "error: channel strength must lie in [0, 1], got 1.5"),
    ("1:0:3", "grid must be strictly increasing"),
])
def test_evolve_bad_grid_exits_one(grid, message):
    code, out, err = invoke(["evolve", "--state", "bell", "--channel", "amplitude_damping",
                             "--strength-grid", grid, "--qubits", "1,2"])
    assert (code, out) == (1, "")
    assert message in err


# the channel kind is checked before the witness kind
@pytest.mark.parametrize("flags,message", [
    (["--state", "bell", "--channel", "bit_flip", "--qubits", "1,2"],
     "error: unknown channel kind 'bit_flip'"),
    (["--state", "ghz", "--n", "4", "--channel", "phase_damping", "--kind", "w_type"],
     "error: w_type witness is defined for n=3"),
    (["--state", "ghz", "--n", "4", "--channel", "bit_flip", "--kind", "w_type"],
     "error: unknown channel kind 'bit_flip'"),
])
def test_evolve_bad_channel_or_witness_exits_one(flags, message):
    code, out, err = invoke(["evolve", *flags, "--strength-grid", "0:1:3"])
    assert (code, out) == (1, "")
    assert message in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "xstates", "algebra", "--n", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["points"] == 7


def test_validate_twelve_qubit_ghz_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "xstates", "validate", "--state", "ghz", "--n", "12"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["is_valid"] is True
    assert abs(report["min_eigenvalue"]) <= 1e-12


def test_witness_command_builds_no_dense_matrix():
    argv = ["witness", "--state", "ghz", "--n", "12", "--kind", "ghz_type"]
    with mock.patch.object(cli, "materialize", wraps=model.materialize) as imported, \
         mock.patch.object(model, "materialize", wraps=model.materialize) as spy:
        tracemalloc.start()
        try:
            code, out, err = invoke(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0, err
    assert imported.call_count + spy.call_count == 0
    assert peak < 8 << 20       # one 4096 x 4096 complex matrix takes 256 MiB
    report = json.loads(out)
    assert report["witness"] == "ghz_type_12" and report["detects"] is True
    assert abs(report["value"] + 0.5) <= 1e-12


# a bad format or keep list exits 1 before the 12-qubit dense matrix is built
@pytest.mark.parametrize("options,message", [
    (["--keep", "1,2", "--format", "dot"],
     "error: marginal supports --format json|csv, got 'dot'\n"),
    (["--keep", "13"], "error: keep set must be a nonempty subset of 1..12\n"),
    (["--keep", ",".join(map(str, range(1, 13)))],
     "error: keep set must be a proper subset\n"),
], ids=["format", "keep-outside", "keep-all"])
def test_marginal_rejects_a_bad_format_before_the_dense_matrix(options, message):
    argv = ["marginal", "--state", "ghz", "--n", "12", *options]
    with mock.patch.object(cli, "materialize", wraps=model.materialize) as spy:
        tracemalloc.start()
        try:
            code, out, err = invoke(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 1 and out == ""
    assert err == message
    assert spy.call_count == 0
    assert peak < 8 << 20       # one 4096 x 4096 complex matrix takes 256 MiB
