"""Measure the benchmark's spread and write perfbench/BASELINE.json.

    python3 perfbench/baseline.py

For each workload, runs perfbench/run.py once per seed 0..9 with tracing
off and reports, per end-to-end metric, the median, the quartiles and the
spread (interquartile distance over the median) next to the metric's bound.
Then runs each workload once traced.  The file also records the machine, the
src/vpmeans line count and the collected tier-1 test count.
"""

import json
import os
import statistics
import subprocess
import sys

import workloads as wl
from run import BENCHMARK, HERE, ROOT, environment, src_lines

OUT = HERE / "BASELINE.json"
SEEDS = 10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    suites = next((line.split(":", 1)[1].split() for line in lines
                   if line.strip().startswith("suite_s")), [])
    result = json.loads(lines[-1])
    result["suite_s"] = {k: float(v) for k, v in (s.split("=") for s in suites)}
    return result


def tier1_test_count():
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return sum(1 for line in proc.stdout.splitlines() if "::" in line)


def main():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    out = {"environment": environment(),
           "static": {"src_vpmeans_lines": src_lines(), "tier1_tests": tier1_test_count()},
           "run_seconds": seconds, "workloads": {}}
    for workload in wl.WORKLOADS:
        runs = []
        for seed in range(SEEDS):
            result = run_once(workload, seed, seconds, 0)
            runs.append(result)
            print(workload, seed, json.dumps({k: round(v["value"], 4)
                                              for k, v in result["metrics"].items()}),
                  "correct" if result["correct"] else "INCORRECT", flush=True)
        summary = {"correct_runs": sum(r["correct"] for r in runs),
                   "attempted": sum(r["attempted"] for r in runs),
                   "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values}
            print(f"  {metric['name']}: median {median:.4f}, spread {(q3 - q1) / median:.4f} "
                  f"(bound {metric['bound']})", flush=True)
        suite_names = runs[0]["suite_s"].keys()
        summary["suite_s_median"] = {
            name: statistics.median(r["suite_s"][name] for r in runs) for name in suite_names}
        traced = run_once(workload, 0, seconds, 1)
        summary["traced"] = {"correct": traced["correct"],
                             "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
        out["workloads"][workload] = summary
        OUT.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
