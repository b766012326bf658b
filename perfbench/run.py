#!/usr/bin/env python3
"""Benchmark for xstates: drives the library and CLI from outside.

    python3 perfbench/run.py --workload state_scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30     # every workload

Workloads: cli_session, state_scan, decoherence_sweep (see workloads.py).
Each is one process running a closed loop with one client.  It runs whole
cycles of operations, as many as took --seconds at the seed commit (at
least one), so that a run does the same work on every commit.  It checks
every output against an independent reference, and prints one line per
metric followed by a JSON object as the last line of stdout.  With
--trace 0 the metrics are end to end; with --trace 1 the same cycles run
once untraced and once with spans around every public xstates function,
and the metrics are per layer.  The exit code is 1 when any output check
failed and 2 when the xstates sources are missing.
"""

import os

# One BLAS thread in this process and every process it starts.  With the
# default of one thread per core, small BLAS calls intermittently wait on
# the scheduler and the figures measure that instead of xstates.  This has
# to happen before numpy is loaded.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)
os.environ["COLUMNS"] = "80"     # argparse wraps --help to the terminal width

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cli_session", "state_scan", "decoherence_sweep")
# setup_s is the median over fresh interpreters started before each cycle
# and after the last; spreading them over the run samples the host's load
# the way the timed operations do.
SETUP_PROBES_PER_SLOT = 3
STARTUP_PROBES = 3    # fresh `xstates --help` processes for cli.startup_s
MAX_FAILURES_SHOWN = 5

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MiB"}
HOT = ("model.materialize", "model.decompose", "model.validate", "model.family_residual",
       "linalg.hermitian_eigen", "linalg.expectation", "linalg.partial_transpose",
       "linalg.partial_trace", "linalg.matrix_to_json", "channels.apply_channel",
       "witness.negativity", "witness.concurrence", "witness.make_witness",
       "algebra.lines", "algebra.verify_design", "simplex.export")


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def _git_commit() -> str:
    """HEAD of the repository, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        path = os.path.join(ROOT, ".git", ref_name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_header() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "commit": _git_commit()}


def _spawn_until(argv: list[str], until_line: bool) -> float:
    """Seconds from spawning a fresh interpreter to its first output line
    (``until_line``) or to its exit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        if until_line:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait()
            if line.strip() != b"ready":
                raise RuntimeError(f"set-up probe failed: {argv}")
        else:
            proc.stdout.read()
            proc.wait()
            elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited with {proc.returncode}: {argv}")
    return elapsed


def setup_probes(name: str) -> list[float]:
    argv = [sys.executable, os.path.join(HERE, "probe.py"), name]
    return [_spawn_until(argv, True) for _ in range(SETUP_PROBES_PER_SLOT)]


def cli_startup_seconds() -> float:
    argv = [sys.executable, "-m", "xstates", "--help"]
    return statistics.median(_spawn_until(argv, False) for _ in range(STARTUP_PROBES))


class Pass:
    """Timed operations of one pass and the outcome of their checks."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.cycles: list = []

    def run_op(self, op, tracer=None) -> None:
        import workloads

        err = None
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:       # a raising operation is a failed one
            err = f"raised {exc!r}"
        finally:
            self.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
        if err is None:
            try:
                op.check(out)
            except workloads.Mismatch as exc:
                err = str(exc)
            except Exception as exc:   # malformed output
                err = f"check raised {exc!r}"
        if err is not None:
            self.failures.append(f"{op.label}: {err}")

    def run_cycles(self, workload, rng, count: int, between=None) -> None:
        """``count`` whole cycles; ``between`` runs before each and after the last."""
        for _ in range(count):
            if between is not None:
                between()
            ops = workload.cycle(rng)
            self.cycles.append(ops)
            for op in ops:
                self.run_op(op)
        if between is not None:
            between()

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def make_workload(name: str, workdir: str, in_process: bool):
    import workloads

    if name == "cli_session":
        return workloads.CliSession(ROOT, workdir, in_process=in_process)
    if name == "state_scan":
        return workloads.StateScan()
    return workloads.DecoherenceSweep()


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A cycle mixes operations whose latencies differ by orders of magnitude,
    so interpolating between the two nearest order statistics reads one or
    two operations at a step between kinds.  This weighs every order
    statistic by the Beta(p(n+1), (1-p)(n+1)) probability of its slot.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = (np.arange(200_000) + 0.5) / 200_000
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, grid, cdf, left=0.0, right=1.0)
    return float(np.diff(edges) @ x)


def end_to_end(name: str, pas: Pass, setup: float) -> dict:
    import numpy as np

    who = resource.RUSAGE_CHILDREN if name == "cli_session" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0    # before our own arrays
    lat_ms = np.array(pas.latencies) * 1e3
    values = {
        "ops_per_s": len(lat_ms) / pas.wall,
        "latency_p50_ms": quantile(lat_ms, 0.5),
        "latency_p90_ms": quantile(lat_ms, 0.9),
        "setup_s": setup,
        "peak_rss_mb": peak_mb,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(name: str, tracer, untraced: Pass, traced: Pass) -> dict:
    import numpy as np

    import tracing

    ids, _, self_s = tracer.self_times()
    span_names = np.array(tracer.names, dtype=object)[ids] if len(ids) else np.array([])
    layer_of = np.array([s.split(".")[0] for s in span_names], dtype=object)
    m = {}

    def put(key, value, unit):
        m[key] = {"value": float(value), "unit": unit}

    for layer in tracing.LAYERS:
        counted = sum(c for k, c in tracer.counts.items() if k.startswith(layer + "."))
        put(f"{layer}.calls", int(np.sum(layer_of == layer)) + counted, "count")
        put(f"{layer}.self_s", self_s[layer_of == layer].sum(), "s")
    for fn in HOT:
        put(f"{fn}.self_s", self_s[span_names == fn].sum(), "s")
    put("pauli.matrix_elements.calls", np.sum(span_names == "pauli.matrix_elements"), "count")
    for key in ("model.materialize.bytes", "linalg.hermitian_eigen.dim3_sum",
                "channels.apply_channel.lifted_bytes"):
        put(key, tracer.work.get(key, 0), "count")
    put("cli.startup_s", cli_startup_seconds() if name == "cli_session" else 0.0, "s")
    put("bench.self_s", traced.wall - tracer.top_level_seconds(), "s")
    put("trace.overhead_frac", traced.wall / untraced.wall - 1.0, "1")
    covered = sum(m[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS)
    print(f"# trace: layer self times {covered:.4f} s + bench.self_s "
          f"{m['bench.self_s']['value']:.4f} s of traced wall {traced.wall:.4f} s; "
          f"{len(tracer.spans)} spans", file=sys.stderr)
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import numpy as np

    import inputs
    import tracing

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        print("# header " + json.dumps(machine_header()))
        workload = make_workload(name, workdir, in_process=trace)
        rng = np.random.default_rng(seed)
        workload.warm_up()
        first = Pass()
        setups: list[float] = []
        cycles = max(1, round((seconds / 2 if trace else seconds) / workload.cycle_seconds))
        first.run_cycles(workload, rng, cycles,
                         None if trace else lambda: setups.extend(setup_probes(name)))
        passes = [first]
        if trace:
            traced = Pass()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                for ops in first.cycles:
                    for op in ops:
                        traced.run_op(op, tracer)
            finally:
                tracer.uninstall()
            passes.append(traced)
            metrics = per_layer(name, tracer, first, traced)
            tracer.write(os.path.join(OUT, f"trace-{name}-seed{seed}.csv.gz"))
        else:
            metrics = end_to_end(name, first, statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    labels = [op.label for ops in first.cycles for op in ops]
    print(f"# inputs {inputs.digest(labels + workload.inputs)}; {len(first.cycles)} "
          f"cycle(s) of {len(first.cycles[0])} operations")
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    for f in failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED {f}", file=sys.stderr)
    for key, v in metrics.items():
        print(f"{name} {key} {v['value']:.6g} {v['unit']}")
    print(f"{name} fail_frac {len(failures) / attempted:.6g} 1")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; prints every metric by name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        status = max(status, proc.returncode)
    print(json.dumps(merged))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "xstates", "__init__.py")):
        print(f"error: no xstates sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
