"""Command-line front end.

Subcommands: gen, validate, algebra, incidence, witness, evolve, marginal.
Payload goes to stdout (or --out), diagnostics to stderr.  Exit codes:
0 success, 1 malformed input, 2 invalid state, 3 internal tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import algebra, channels, simplex
from .linalg import (ConvergenceError, ToleranceError, _checked_keep, json_text,
                     matrix_table, matrix_text, partial_trace)
from .model import (NAMED_EXAMPLES, XStateParams, bell_diagonal, entry_table,
                    ghz_params, materialize, named_example, params_from_json,
                    params_to_json, validate, werner)
from .pauli import FRAMES, require_qubit_count
from .witness import make_witness, witness_report


class CliError(Exception):
    """Malformed invocation or input (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _parse_qubits(text: str) -> list[int]:
    try:
        qubits = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"qubit list {text!r} must be comma-separated integers")
    if not qubits:
        raise CliError("qubit list must not be empty")
    return qubits


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"strength grid {text!r} must look like start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        return channels.strength_grid(start, stop, count)
    except ValueError as exc:
        raise CliError(f"bad strength grid {text!r}: {exc}")


def _resolve_state(selector: str, args) -> XStateParams:
    """Resolve --state: a named family, name:args form, or a params file path."""
    if selector in NAMED_EXAMPLES:
        return named_example(selector)
    if selector == "ghz":
        if args.n is None:
            raise CliError("--state ghz requires --n")
        return ghz_params(args.n, args.frame)
    if selector == "bell":
        return ghz_params(2, args.frame)
    if selector.startswith("werner:"):
        try:
            return werner(float(selector.split(":", 1)[1]))
        except ValueError as exc:
            raise CliError(f"bad werner argument {selector!r}: {exc}")
    if selector.startswith("bell_diagonal:"):
        try:
            a0, a3, d3 = (float(v) for v in selector.split(":", 1)[1].split(","))
            return bell_diagonal(a0, a3, d3)
        except ValueError as exc:
            raise CliError(f"bad bell_diagonal argument {selector!r}: {exc}")
    if os.path.exists(selector):
        try:
            with open(selector, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:    # ValueError: bad JSON
            raise CliError(f"cannot read state file {selector!r}: {exc}")
        try:
            return params_from_json(obj)
        except ValueError as exc:
            raise CliError(f"state file {selector!r}: {exc}")
    raise CliError(
        f"unknown state {selector!r}: expected a file path, one of {NAMED_EXAMPLES}, "
        "'ghz', 'bell', 'werner:<p>' or 'bell_diagonal:<a0>,<a3>,<d3>'")


# ---- subcommand handlers ----------------------------------------------------

def _cmd_gen(args) -> tuple[str, int]:
    params = _resolve_state(args.state, args)
    fmt = args.format or "json"
    if fmt == "json":
        return json_text(params_to_json(params)), 0
    if fmt in ("matrix", "csv"):
        return matrix_text(*entry_table(params), "csv" if fmt == "csv" else "json"), 0
    raise CliError(f"gen supports --format json|matrix|csv, got {fmt!r}")


def _cmd_validate(args) -> tuple[str, int]:
    params = _resolve_state(args.state, args)
    report = validate(params)
    return json_text(report.to_json()), 0 if report.is_valid else 2


def _cmd_algebra(args) -> tuple[str, int]:
    if args.n is None:
        raise CliError("algebra requires --n")
    require_qubit_count(args.n, high=algebra.MAX_GEOMETRY_QUBITS)  # before any work
    opset = algebra.generate_set(args.n, args.frame)
    lineset = algebra.lines(opset)
    central = algebra.center(opset)
    report = algebra.verify_design(opset, lineset)
    payload = {
        "n": args.n,
        "frame": args.frame,
        "points": len(opset.elements),
        "lines": len(lineset.lines),
        "center": [p.label() for p in central],
        "design": report.to_json(),
        "set": algebra.incidence_json(opset, lineset),
    }
    return json_text(payload), 0


def _cmd_incidence(args) -> tuple[str, int]:
    if args.n is None:
        raise CliError("incidence requires --n")
    fmt = args.format or "json"
    if fmt not in ("dot", "json"):
        raise CliError(f"incidence supports --format dot|json, got {fmt!r}")
    return simplex.export(simplex.build_simplex(args.n), fmt), 0


def _cmd_witness(args) -> tuple[str, int]:
    params = _resolve_state(args.state, args)
    if args.kind is None:
        raise CliError("witness requires --kind")
    w = make_witness(args.kind, params.n)
    return json_text(witness_report(w, params)), 0


def _cmd_evolve(args) -> tuple[str, int]:
    params = _resolve_state(args.state, args)
    if args.channel is None or args.strength_grid is None:
        raise CliError("evolve requires --channel and --strength-grid")
    qubits = (_parse_qubits(args.qubits) if args.qubits
              else list(range(1, params.n + 1)))
    grid = _parse_grid(args.strength_grid)
    traj = channels.sweep(params, args.channel, qubits, grid,
                          witness_kind=args.kind)
    return traj.to_csv(), 0


def _cmd_marginal(args) -> tuple[str, int]:
    params = _resolve_state(args.state, args)
    if args.keep is None:
        raise CliError("marginal requires --keep")
    keep = _parse_qubits(args.keep)
    fmt = args.format or "json"
    if fmt not in ("json", "csv"):
        raise CliError(f"marginal supports --format json|csv, got {fmt!r}")
    _checked_keep(keep, params.n)
    reduced = partial_trace(materialize(params), keep, params.n)
    return matrix_text(*matrix_table(reduced), fmt), 0


# Every other flag takes a string and defaults to None.
_FLAG_OPTIONS = {
    "--n": dict(type=int),
    "--frame": dict(choices=tuple(FRAMES), default="Z"),
}

_STATE_FLAGS = ("--state", "--n", "--frame")


def build_parser() -> _Parser:
    parser = _Parser(prog="xstates", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name, func, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag in (*flags, "--out"):
            p.add_argument(flag, **_FLAG_OPTIONS.get(flag, {}))

    add("gen", _cmd_gen, "emit a named family or params file as state JSON or matrix dump",
        (*_STATE_FLAGS, "--format"))
    add("validate", _cmd_validate, "check a state file; exit 0 iff physical", _STATE_FLAGS)
    add("algebra", _cmd_algebra, "operator counts, center, and design report",
        ("--n", "--frame"))
    add("incidence", _cmd_incidence, "labeled simplex as DOT or JSON", ("--n", "--format"))
    add("witness", _cmd_witness, "evaluate a witness on a state", (*_STATE_FLAGS, "--kind"))
    add("evolve", _cmd_evolve, "channel sweep to a trajectory CSV",
        (*_STATE_FLAGS, "--channel", "--strength-grid", "--qubits", "--kind"))
    add("marginal", _cmd_marginal, "partial trace to a matrix dump",
        (*_STATE_FLAGS, "--keep", "--format"))
    return parser


def run(argv, stdout=None, stderr=None) -> int:
    """Parse argv, execute, and write payload/diagnostics to the streams."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise CliError("a subcommand is required (see --help)")
        if "state" in vars(args) and args.state is None:
            raise CliError(f"{args.command} requires --state")
        payload, code = args.func(args)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    except (ToleranceError, ConvergenceError) as exc:
        print(f"tolerance failure: {exc}", file=err)
        return 3
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.out!r}: {exc.strerror}", file=err)
            return 1
    else:
        out.write(payload)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
