"""Workload definitions, stored reference outputs and the CSV drift check.

A workload is an ordered list of `vpm` argument vectors.  The benchmark seed
selects one member of REF_SEEDS, which is passed to `vpm --seed` and picks the
`randband:seed<S>` corpus member; every member has stored reference outputs,
so every run can be checked.
"""

import csv
import gzip
import hashlib
import io
import json
import math
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# 42 is the CLI default; 4062 (benchmark seeds 7, 15, ...) was held out while
# the benchmark was tuned, so a claim can be re-checked on it
REF_SEEDS = (42, 7, 11, 23, 101, 2011, 1105, 4062)

DRIFT_BOUND = 1e-10   # largest relative difference allowed in a numeric cell

# the reason for each workload is its "why" in BENCHMARK.json
WORKLOADS = ("all-default", "all-ceiling", "kernel-quadrature")

CEILING_N_LIST = "8,32,128,496"


def corpus_seed(seed):
    """Map any benchmark seed to the stored reference seed it runs with."""
    return REF_SEEDS[seed % len(REF_SEEDS)]


def commands(workload, ref_seed):
    """The vpm argument vectors of a workload, without --out."""
    s = str(ref_seed)
    if workload == "all-default":
        return [["all", "--seed", s]]
    if workload == "all-ceiling":
        return [["all", "--n-list", CEILING_N_LIST,
                 "--corpus", f"cusp:0.5,bump,randband:seed{s}", "--seed", s]]
    if workload == "kernel-quadrature":
        return [[suite, "--d", d, "--n-list", CEILING_N_LIST, "--n-max", "64", "--seed", s]
                for d in ("3", "5")
                for suite in ("multipliers", "lemmas", "voronovskaya")]
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# outputs of one vpm invocation


def csv_body(text):
    """Everything below the leading `# suite=... generated=...` comment."""
    first, sep, rest = text.partition("\n")
    return rest if first.startswith("#") and sep else text


def read_outputs(out_dir):
    """Verdicts from summary.json and CSV bodies of one invocation's out dir."""
    out_dir = Path(out_dir)
    summary = out_dir / "summary.json"
    verdicts = {}
    if summary.is_file():
        suites = json.loads(summary.read_text(encoding="utf-8")).get("suites", {})
        verdicts = {name: bool(info.get("passed")) for name, info in suites.items()}
    bodies = {path.stem: csv_body(path.read_text(encoding="utf-8"))
              for path in sorted(out_dir.glob("*.csv"))}
    return verdicts, bodies


# ---------------------------------------------------------------------------
# reference store: one gzipped JSON per workload, CSV bodies deduplicated by
# their sha256


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json.gz"


def save_reference(workload, per_seed):
    """per_seed maps ref seed -> list of {argv, exit_code, verdicts, bodies}."""
    bodies = {}
    seeds = {}
    for seed, invocations in per_seed.items():
        entries = []
        for inv in invocations:
            digests = {}
            for suite, body in inv["bodies"].items():
                digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
                bodies[digest] = body
                digests[suite] = digest
            entries.append({"argv": inv["argv"], "exit_code": inv["exit_code"],
                            "verdicts": inv["verdicts"], "csv": digests})
        seeds[str(seed)] = entries
    payload = {"workload": workload, "seeds": seeds, "bodies": bodies}
    REFERENCE_DIR.mkdir(exist_ok=True)
    data = json.dumps(payload, sort_keys=True, indent=0).encode("utf-8")
    with open(reference_path(workload), "wb") as handle:
        # mtime=0 keeps the file byte-identical across regenerations
        with gzip.GzipFile(fileobj=handle, mode="wb", mtime=0) as gz:
            gz.write(data)


def load_reference(workload, ref_seed):
    """List of {argv, exit_code, verdicts, bodies} for one workload and seed."""
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as handle:
        payload = json.load(handle)
    entries = payload["seeds"].get(str(ref_seed))
    if entries is None:
        raise KeyError(f"no reference for workload {workload!r} at seed {ref_seed}")
    return [{"argv": e["argv"], "exit_code": e["exit_code"], "verdicts": e["verdicts"],
             "bodies": {suite: payload["bodies"][h] for suite, h in e["csv"].items()}}
            for e in entries]


# ---------------------------------------------------------------------------
# drift check


def _as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def compare_csv(ref_body, got_body, bound=DRIFT_BOUND):
    """Compare two CSV bodies cell by cell.

    Numeric cells may differ by at most `bound` relative (|a-b|/max(|a|,|b|));
    NaN and infinity positions, strings and flags must match exactly, as must
    the header and the row count.  Returns (ok, max_rel, reason); max_rel is
    the largest relative difference over numeric cells that both sides hold
    as finite numbers.
    """
    ref_rows = list(csv.reader(io.StringIO(ref_body)))
    got_rows = list(csv.reader(io.StringIO(got_body)))
    if not ref_rows or not got_rows or ref_rows[0] != got_rows[0]:
        return False, 0.0, "header differs"
    if len(ref_rows) != len(got_rows):
        return False, 0.0, f"{len(got_rows) - 1} rows, reference has {len(ref_rows) - 1}"
    header = ref_rows[0]
    max_rel = 0.0
    reason = None
    for lineno, (ref_row, got_row) in enumerate(zip(ref_rows[1:], got_rows[1:]), start=2):
        if len(ref_row) != len(got_row):
            return False, max_rel, f"line {lineno}: {len(got_row)} cells, reference has {len(ref_row)}"
        for column, r, g in zip(header, ref_row, got_row):
            a, b = _as_float(r), _as_float(g)
            if a is None or b is None:
                ok = r == g
            elif math.isnan(a) or math.isnan(b):
                ok = math.isnan(a) and math.isnan(b)
            elif a == b:
                ok = True
            elif math.isinf(a) or math.isinf(b):
                ok = False
            else:
                rel = abs(a - b) / max(abs(a), abs(b))
                max_rel = max(max_rel, rel)
                ok = rel <= bound
            if not ok and reason is None:
                reason = f"line {lineno} column {column}: {g!r}, reference {r!r}"
    return reason is None, max_rel, reason


def check_invocation(ref, got):
    """Check one vpm invocation against its reference.

    `got` holds exit_code, error (a traceback or None), verdicts and bodies.
    Returns (attempted, failed, max_rel, problems): one attempt per suite the
    reference ran; a suite fails if its verdict or CSV differs, and every
    suite fails if the invocation raised or its exit code differs.
    """
    suites = sorted(ref["verdicts"])
    problems = []
    max_rel = 0.0
    if got.get("error"):
        problems.append(f"raised: {got['error'].strip().splitlines()[-1]}")
    elif got["exit_code"] != ref["exit_code"]:
        problems.append(f"exit code {got['exit_code']}, reference {ref['exit_code']}")
    if problems:
        return len(suites), len(suites), max_rel, problems
    failed = 0
    for suite in suites:
        bad = []
        if got["verdicts"].get(suite) != ref["verdicts"][suite]:
            bad.append(f"verdict {got['verdicts'].get(suite)}, reference {ref['verdicts'][suite]}")
        body = got["bodies"].get(suite)
        if body is None:
            bad.append("no CSV written")
        else:
            ok, rel, reason = compare_csv(ref["bodies"][suite], body)
            max_rel = max(max_rel, rel)
            if not ok:
                bad.append(reason)
        if bad:
            failed += 1
            problems.extend(f"{suite}: {b}" for b in bad)
    return len(suites), failed, max_rel, problems
