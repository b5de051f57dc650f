"""Tests of the benchmark itself.

    python3 perfbench/selftest.py                        # drift check, a few seconds
    python3 perfbench/selftest.py --trace-repeat NAME    # two traced runs of a workload

The first form checks that the CSV comparison accepts the stored reference,
tolerates drift below the bound, and counts a 1e-8 relative perturbation, a
changed flag and a moved NaN as failures.  The second runs a workload twice
under the tracer and requires every count (everything but the times) to
repeat exactly.  Exits non-zero on the first failed expectation.
"""

import argparse
import math
import sys

import workloads as wl
from run import WORK, spawn


def _perturb(body, rel, column):
    """Scale the first non-zero finite cell of `column` by 1 + rel."""
    lines = body.split("\n")
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        for j, cell in enumerate(cells):
            if header[j] != column:
                continue
            value = float(cell)
            if value != 0.0 and math.isfinite(value):
                cells[j] = format(value * (1.0 + rel), ".17g")
                lines[i] = ",".join(cells)
                return "\n".join(lines)
    raise ValueError(f"no non-zero {column} cell to perturb")


def _expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def test_drift_check():
    ref = wl.load_reference("kernel-quadrature", wl.REF_SEEDS[0])[0]
    suite = next(iter(ref["verdicts"]))
    body = ref["bodies"][suite]
    got = {"exit_code": ref["exit_code"], "error": None,
           "verdicts": dict(ref["verdicts"]), "bodies": {suite: body}}

    attempted, failed, max_rel, _ = wl.check_invocation(ref, got)
    _expect((attempted, failed, max_rel) == (1, 0, 0.0), "reference matches itself")

    got["bodies"] = {suite: _perturb(body, 1e-8, column="closed_form")}
    attempted, failed, max_rel, problems = wl.check_invocation(ref, got)
    _expect(failed == 1 and max_rel > 0.9e-8 and problems,
            f"1e-8 relative perturbation counted as a failure (max rel {max_rel:.3g})")

    got["bodies"] = {suite: _perturb(body, 1e-12, column="closed_form")}
    attempted, failed, max_rel, _ = wl.check_invocation(ref, got)
    _expect(failed == 0 and 0 < max_rel < wl.DRIFT_BOUND,
            f"1e-12 relative drift passes and is reported ({max_rel:.3g})")

    got["bodies"] = {suite: body}
    got["verdicts"] = {suite: not ref["verdicts"][suite]}
    _expect(wl.check_invocation(ref, got)[1] == 1, "changed verdict counted as a failure")

    got["verdicts"] = dict(ref["verdicts"])
    got["exit_code"] = ref["exit_code"] + 1
    _expect(wl.check_invocation(ref, got)[1] == 1, "changed exit code counted as a failure")

    flagged = "a,b,flag\nx,1.5,ok\ny,nan,degenerate\n"
    _expect(wl.compare_csv(flagged, flagged)[0], "NaN in the same place passes")
    _expect(not wl.compare_csv(flagged, flagged.replace(",ok", ",TRUNCATED"))[0],
            "changed flag fails")
    _expect(not wl.compare_csv(flagged, "a,b,flag\nx,nan,ok\ny,nan,degenerate\n")[0],
            "NaN in a new place fails")
    _expect(not wl.compare_csv(flagged, flagged + "z,2,ok\n")[0], "extra row fails")


def _counts(trace):
    return {k: v for k, v in trace.items() if not k.endswith((".s", ".self_s"))}


def test_trace_repeat(workload):
    commands = wl.commands(workload, wl.REF_SEEDS[0])
    runs = []
    for i in range(2):
        record = spawn(commands, WORK / f"selftest-{i}", trace=True)
        _expect(record["result"] is not None, f"traced run {i + 1} of {workload} completed")
        runs.append(_counts(record["result"]["trace"]))
    WORK.rmdir()
    differ = sorted(k for k in runs[0].keys() | runs[1].keys()
                    if runs[0].get(k) != runs[1].get(k))
    for key in differ:
        print(f"  {key}: {runs[0].get(key)} vs {runs[1].get(key)}")
    _expect(not differ, f"all {len(runs[0])} trace counts of {workload} repeat exactly")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-repeat", metavar="WORKLOAD", choices=wl.WORKLOADS)
    args = parser.parse_args(argv)
    if args.trace_repeat:
        test_trace_repeat(args.trace_repeat)
    else:
        test_drift_check()
    return 0


if __name__ == "__main__":
    sys.exit(main())
