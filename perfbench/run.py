"""Benchmark of the vpm verification suites.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every measured run of a workload is
a fresh Python process that executes the workload's vpm argument vectors
through vpmeans.cli.main, closed loop with one client: the next process
starts only after the previous one exits.  Outputs are checked against the
stored reference of the seed's corpus member (see workloads.py).

--trace 0 repeats the workload while --seconds allow (at least once) and
reports the median wall time, peak RSS and set-up time.  --trace 1 runs the
workload once untraced and once under the per-layer tracer (tracer.py) and
reports the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is one JSON object; the lines before
it print every metric by name and unit, the failure ratio, the machine and
the static records.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "vpmeans"
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"

CHILD_TIMEOUT_S = 80   # two children (a traced run) must end within 180 s
SETUP_SPAWNS = 7      # set-up-only processes per run, after one discarded warm-up

SUITE_FUNCTIONS = {
    "multipliers": "run_multiplier_identity_suite",
    "lemmas": "run_lemma_suite",
    "voronovskaya": "run_voronovskaya_suite",
    "converse": "run_converse_suite",
    "delayed-max": "run_delayed_max_suite",
    "modulus": "run_modulus_suite",
    "selftest": "run_selftest_suite",
}

# per-layer metrics that may read zero on any workload; all others must read
# non-zero unless predicted_zero() says the workload makes no such call
MAY_BE_ZERO = {"experiments.csv_drift_max_rel", "fail_ratio", "trace.overhead_s"}
SPECTRAL_PREFIXES = (
    "kernel.multiplier_sequence.", "function_space.lp_norms_batch.", "smoothness.",
    "function_space.synthesis_context.", "function_space.zonal_project.",
    "operators.vpm_grid.", "experiments.converse.", "experiments.delayed-max.",
    "experiments.modulus.", "experiments.selftest.")


def predicted_zero(workload, metric):
    """kernel-quadrature runs no spectral suite, so it makes no such call."""
    return workload == "kernel-quadrature" and metric.startswith(SPECTRAL_PREFIXES)


# ---------------------------------------------------------------------------
# one child process


def spawn(commands, out_root, mode="run", trace=False):
    """Run the argument vectors in one fresh process; return its measurements.

    Wall time runs from just before the spawn to the reaping of the child;
    peak RSS and CPU time come from that child's own rusage (os.wait4).
    """
    out_root.mkdir(parents=True)
    argvs = [list(argv) + ["--out", str(out_root / str(i))] for i, argv in enumerate(commands)]
    spec_path, result_path = out_root / "spec.json", out_root / "result.json"
    spec_path.write_text(json.dumps({"src": str(SRC), "commands": argvs, "mode": mode,
                                     "trace": trace}), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    record = {"exit_status": proc.returncode, "wall_s": wall,
              "rss_mib": usage.ru_maxrss / 1024.0,
              "cpu_s": usage.ru_utime + usage.ru_stime, "result": None}
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        record["result"] = result
        if result["parsed_at"] is not None:
            record["setup_s"] = result["parsed_at"] - start
        for i, inv in enumerate(result["invocations"]):
            inv["verdicts"], inv["bodies"] = wl.read_outputs(out_root / str(i))
    shutil.rmtree(out_root)
    return record


def check(records, refs):
    """Compare every invocation of every record with its reference."""
    attempted = failed = 0
    max_rel = 0.0
    problems = []
    per_command = sum(len(ref["verdicts"]) for ref in refs)
    for record in records:
        result = record["result"]
        if result is None:
            attempted += per_command
            failed += per_command
            problems.append(f"child process exited with status {record['exit_status']}")
            continue
        for ref, got in zip(refs, result["invocations"]):
            a, f, rel, found = wl.check_invocation(ref, got)
            attempted += a
            failed += f
            max_rel = max(max_rel, rel)
            problems.extend(f"{' '.join(ref['argv'])}: {p}" for p in found)
    return attempted, failed, max_rel, problems


def suite_seconds(record):
    """Untraced per-suite times, summed over invocations, from the moments vpm
    printed each verdict line."""
    out = {}
    for inv in record["result"]["invocations"]:
        previous = inv["started"]
        for stamp, line in inv["lines"]:
            if line.startswith("[") and "] " in line and ":" in line:
                suite = line.split("] ", 1)[1].split(":", 1)[0]
                out[suite] = out.get(suite, 0.0) + stamp - previous
                previous = stamp
    return out


# ---------------------------------------------------------------------------
# records printed with every result


def environment():
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
               if k in os.environ}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": threads or f"default ({os.cpu_count()} = nproc)",
            "nproc": os.cpu_count(), "cpu": cpu}


def src_lines():
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted(PACKAGE.glob("*.py")))


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(commands, refs, seconds, work):
    setup = []
    spawn(commands, work / "warmup", mode="setup")
    for i in range(SETUP_SPAWNS):
        setup.append(spawn(commands, work / f"setup{i}", mode="setup").get("setup_s"))
    records = []
    begin = time.monotonic()
    while True:
        record = spawn(commands, work / f"run{len(records)}")
        records.append(record)
        setup.append(record.get("setup_s"))
        if time.monotonic() - begin + record["wall_s"] > seconds:
            break
    attempted, failed, max_rel, problems = check(records, refs)
    samples = {"wall_s": [r["wall_s"] for r in records],
               "peak_rss_mb": [r["rss_mib"] for r in records],
               "setup_s": [s for s in setup if s is not None]}
    if len(samples["setup_s"]) < len(setup):
        problems.append("a process ended before parsing its configuration")
    values = {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}
    for name, v in samples.items():
        print(f"  {name} samples: " + " ".join(f"{x:.4f}" for x in v))
    ok = [r for r in records if r["result"]]
    if ok:
        print("  suite_s (first run): " + " ".join(
            f"{k}={v:.3f}" for k, v in suite_seconds(ok[0]).items()))
    return values, attempted, failed, max_rel, problems


def measure_traced(workload, commands, refs, work, metrics):
    plain = spawn(commands, work / "plain")
    traced = spawn(commands, work / "traced", trace=True)
    attempted, failed, max_rel, problems = check([plain, traced], refs)
    if traced["result"] is None or plain["result"] is None:
        return {name: 0.0 for name in metrics}, attempted, failed, max_rel, problems
    trace = traced["result"]["trace"]
    functions = set(traced["result"]["traced_functions"])
    values = {}
    for name in metrics:
        module, _, rest = name.partition(".")
        if name == "kernel.multiplier_sequence.nonzero_ratio":
            entries = trace.get("kernel.multiplier_sequence.entries", 0)
            value = trace.get("kernel.multiplier_sequence.nonzero", 0) / entries if entries else 0.0
        elif name == "kernel.lemma_integral.evals_per_call":
            calls = trace.get("kernel.lemma_integral.calls", 0)
            nested = trace.get("kernel.lemma_integral.nested.quadrature.integrate_theta", 0)
            value = nested / calls if calls else 0.0
        elif name == "experiments.csv_drift_max_rel":
            value = max_rel
        elif name == "fail_ratio":
            value = failed / attempted
        elif name == "process.cpu_s":
            value = plain["cpu_s"]
        elif name == "process.import_s":
            value = plain["result"]["import_s"]
        elif name == "trace.overhead_s":
            value = traced["wall_s"] - plain["wall_s"]
        else:
            if module == "experiments":
                suite, _, stat = rest.partition(".")
                function = f"experiments.{SUITE_FUNCTIONS[suite]}"
                key = f"{function}.{stat}"
            else:
                function = ".".join(name.split(".")[:2])
                key = name
            if function not in functions:
                problems.append(f"{name}: {function} is not a traced function")
            value = trace.get(key, 0)
        values[name] = value
        if name in MAY_BE_ZERO:
            continue
        if predicted_zero(workload, name) and value != 0:
            problems.append(f"{name} = {value}, predicted 0 on {workload}")
        elif not predicted_zero(workload, name) and value == 0:
            problems.append(f"{name} reads 0 on {workload}, where work is predicted")
    return values, attempted, failed, max_rel, problems


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no vpmeans sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    ref_seed = wl.corpus_seed(args.seed)
    commands = wl.commands(args.workload, ref_seed)
    refs = wl.load_reference(args.workload, ref_seed)
    if [ref["argv"] for ref in refs] != commands:
        print(f"error: stored reference for {args.workload} does not match its "
              f"commands; regenerate it with perfbench/make_refs.py", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed} -> corpus seed {ref_seed}, "
          f"trace {args.trace}; commands: " + " | ".join("vpm " + " ".join(c) for c in commands))
    work = WORK / f"{os.getpid()}"
    try:
        if args.trace:
            values, attempted, failed, max_rel, problems = measure_traced(
                args.workload, commands, refs, work, metrics)
        else:
            values, attempted, failed, max_rel, problems = measure(
                commands, refs, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for name, unit in metrics.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.6g} "
          f"(csv drift max rel {max_rel:.3g}, bound {wl.DRIFT_BOUND:g})")
    print(f"  environment: {json.dumps(environment())}")
    print(f"  static: src/vpmeans lines = {src_lines()}")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
