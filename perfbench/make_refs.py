"""Regenerate the stored reference outputs of the benchmark workloads.

    python3 perfbench/make_refs.py [WORKLOAD ...]

Runs every workload once per seed in workloads.REF_SEEDS and stores exit
codes, suite verdicts and CSV bodies under perfbench/reference/.  The stored
files were generated from the commit that introduced the benchmark; only
regenerate them when a change is meant to alter the suites' outputs, and say
so in that change.
"""

import sys

import workloads as wl
from run import WORK, spawn


def main(names):
    for workload in names or wl.WORKLOADS:
        per_seed = {}
        for seed in wl.REF_SEEDS:
            commands = wl.commands(workload, seed)
            record = spawn(commands, WORK / f"refs-{workload}-{seed}")
            if record["result"] is None:
                raise SystemExit(f"{workload} seed {seed}: child exited with {record['exit_status']}")
            invocations = []
            for argv, inv in zip(commands, record["result"]["invocations"]):
                if inv["error"]:
                    raise SystemExit(f"{workload} seed {seed}: {inv['error']}")
                invocations.append({"argv": argv, "exit_code": inv["exit_code"],
                                    "verdicts": inv["verdicts"], "bodies": inv["bodies"]})
            per_seed[seed] = invocations
            print(f"{workload} seed {seed}: {record['wall_s']:.1f} s, exit codes "
                  f"{[inv['exit_code'] for inv in invocations]}", flush=True)
        wl.save_reference(workload, per_seed)
    WORK.rmdir()


if __name__ == "__main__":
    main(sys.argv[1:])
