"""Set-up probe, run in a fresh interpreter by run.py.

Imports xstates, runs the workload's untimed warm-up and prints ``ready``;
run.py times the interval from spawning this process to that line.

    python3 perfbench/probe.py <workload>
"""

import sys

import xstates  # noqa: F401  (the import is part of what is timed)

if __name__ == "__main__":
    name = sys.argv[1]
    if name != "cli_session":     # a CLI user pays only for the import
        import workloads

        {"state_scan": workloads.StateScan,
         "decoherence_sweep": workloads.DecoherenceSweep}[name]().warm_up()
    print("ready", flush=True)
