"""Command-line driver: `vpm <suite>` parses configuration, dispatches the
verification suites, and writes per-suite CSV reports plus a summary.json.

Exit codes: 0 when every suite passes its windows, 1 on any suite failure (an
ArithmeticError such as ConvergenceError fails only its suite, which then
writes no CSV), 2 on a usage error (unknown key, invalid value, band budget
exceeded).  A flat key=value file plus flags (flags win) sets what is
computed; the windows are constants of `experiments`.
"""

import argparse
import ctypes
import datetime
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .experiments import (_CORPUS_SPECTRAL, BAND_BUDGET, MULTIPLIER_REACH, corpus_band_limit,
                          run_converse_suite, run_delayed_max_suite, run_lemma_suite,
                          run_modulus_suite, run_multiplier_identity_suite,
                          run_selftest_suite, run_voronovskaya_suite)
from .function_space import _CONTEXTS, corpus_ids
from .memo import _LADDERS, run_memo_stats, run_scope

try:
    from resource import RUSAGE_SELF, getrusage
except ImportError:     # not on every platform: the per-suite RSS growth is then null
    getrusage = None

__all__ = ["RunConfig", "ConfigError", "config_hash", "parse_config", "dispatch", "main"]

INF = float("inf")

DEFAULT_N_LIST = (4, 8, 16, 32, 64, 128, 256)


class ConfigError(Exception):
    """Invalid configuration; the CLI maps this to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration: what the suites compute.  The pass/fail
    thresholds are not configurable; they are constants of `experiments`, and
    the resolutions are rules of the modules that own them."""
    d: int = 3
    n_list: tuple = DEFAULT_N_LIST
    p_list: tuple = (1.0, 2.0, INF)
    corpus: tuple = ()                  # empty means the full corpus for `seed`
    seed: int = 42
    out_dir: str = ""
    n_max: int = 32                     # multiplier suite sweep bound

    def snapshot(self):
        """Stringified mapping recorded in summary.json; all of it but
        `out_dir` is hashed into `config_hash`, so the hash names the
        computation, not where its output went."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            out[f.name] = str(value)
        return out


def config_hash(config_mapping):
    """Short stable hash of a flat configuration mapping."""
    canon = ";".join(f"{k}={config_mapping[k]}" for k in sorted(config_mapping))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _parse_int_list(text):
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from None


_P_VALUES = {"inf": INF, "Infinity": INF, "oo": INF, "1": 1.0, "1.0": 1.0, "2": 2.0, "2.0": 2.0}


def _parse_p_list(text):
    parts = [part.strip() for part in str(text).split(",") if part.strip()]
    for part in parts:
        if part not in _P_VALUES:
            raise ConfigError(f"p must be drawn from {{1, 2, inf}}, got {part!r}")
    return tuple(_P_VALUES[part] for part in parts)


# every RunConfig field is a configuration key; its type parses its value
# unless the field needs the list syntax below
_SYNTAX_PARSERS = {
    "n_list": _parse_int_list,
    "p_list": _parse_p_list,
    "corpus": lambda text: tuple(part.strip() for part in str(text).split(",") if part.strip()),
}
_FIELD_PARSERS = {f.name: _SYNTAX_PARSERS.get(f.name, f.type) for f in fields(RunConfig)}


def _read_config_file(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    raw = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#") or stripped.startswith(";"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
    return raw


def _validate(config):
    if config.d < 3:
        raise ConfigError(f"d must be >= 3, got {config.d}")
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {config.seed}")
    if not 0 <= config.n_max <= BAND_BUDGET - MULTIPLIER_REACH:
        raise ConfigError(f"n_max must be >= 0 and n_max + {MULTIPLIER_REACH} <= band budget "
                          f"{BAND_BUDGET}, got n_max={config.n_max}")
    known = set(corpus_ids(config.seed))
    for fid in config.corpus:
        if fid not in known:
            raise ConfigError(
                f"unknown corpus function id {fid!r} for seed {config.seed}; "
                f"known ids: {', '.join(sorted(known))}")
    if not config.n_list:
        raise ConfigError("n_list must be nonempty")
    if any(n < 1 for n in config.n_list):
        raise ConfigError(f"every n must be >= 1, got {config.n_list}")
    if not config.p_list:
        raise ConfigError("p_list must be nonempty")
    for key in ("n_list", "p_list", "corpus"):     # a repeat would write its rows twice
        values = getattr(config, key)
        repeated = [value for i, value in enumerate(values) if value in values[:i]]
        if repeated:
            raise ConfigError(f"{key} repeats {repeated[0]!r}; each value may appear once")
    needed = corpus_band_limit(max(config.n_list))
    if needed > BAND_BUDGET:
        raise ConfigError(f"band budget exceeded: n_list requires a band limit of {needed} "
                          f"but the budget is {BAND_BUDGET}; lower max(n_list)")
    return config


def parse_config(path=None, overrides=None):
    """Assemble the RunConfig from defaults, an optional flat key=value file,
    and flag overrides (which take precedence).  Unknown keys are errors."""
    values = {}
    for source in (_read_config_file(path) if path else {}, overrides or {}):
        for key, raw in source.items():
            if raw is None:
                continue
            parser = _FIELD_PARSERS.get(key)
            if parser is None:
                raise ConfigError(f"unknown configuration key: {key!r}")
            try:
                values[key] = parser(raw)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid value for {key!r}: {raw!r} ({exc})") from None
    config = replace(RunConfig(), **values)
    if not config.out_dir:
        config = replace(config, out_dir=os.environ.get("VPM_OUT_DIR", "vpm_out"))
    if not config.corpus:
        config = replace(config, corpus=corpus_ids(config.seed))
    return _validate(config)


# the one place a suite is named: its runner, in the order `vpm all` runs them
# (which decides the suite that computes a shared omega cell first); each runner
# reads its suite function from this module when called, so a rebound name is used
_RUNNERS = {
    "multipliers": lambda c: run_multiplier_identity_suite(c.d, c.n_max),
    "lemmas": lambda c: run_lemma_suite(c.d, c.n_list),
    "voronovskaya": lambda c: run_voronovskaya_suite(c.d, c.n_list),
    "converse": lambda c: run_converse_suite(c.corpus, c.p_list, c.n_list, c.d, seed=c.seed),
    "delayed-max": lambda c: run_delayed_max_suite(c.corpus, c.p_list, c.n_list, c.d,
                                                   seed=c.seed),
    "modulus": lambda c: run_modulus_suite(c.corpus, c.p_list, c.n_list, c.d, seed=c.seed),
    "selftest": lambda c: run_selftest_suite(seed=c.seed),
}
SUITES = tuple(_RUNNERS)

# summary.json's constants: name -> (suite, reader of that suite's measured)
_CONSTANTS = {
    "envelope_c5": ("selftest", lambda m: m["envelope_constant"]),
    "n_alpha_window": ("voronovskaya", lambda m: {"min": min(m["n_alpha"].values()),
                                                  "max": max(m["n_alpha"].values())}),
    "lemma_windows": ("lemmas", lambda m: m["windows"]),
    "converse_ratio_windows": ("converse", lambda m: m["ratio_windows"]),
}


def _write_atomic(path, text):
    """Write `text` to a temp file in the target directory and rename it over
    `path`, so a reader never sees a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pruning(log):
    """p -> column counts, summed over `lp_norm_maxima` records (p, synthesised, skipped)."""
    out = {}
    for p, synthesised, skipped in log:
        counts = out.setdefault(str(p), {"synthesised": 0, "skipped": 0})
        counts["synthesised"] += synthesised
        counts["skipped"] += skipped
    return out


def _summary(snapshot, digest, reports, errors, timings, pruning):
    measured = {report.suite: report.measured for report in reports}
    constants = {name: read(measured[suite]) if suite in measured else None
                 for name, (suite, read) in _CONSTANTS.items()}
    return {
        "config_hash": digest,
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": snapshot,
        "suites": {**{r.suite: {"passed": r.passed, "measured": r.measured} for r in reports},
                   **{name: {"passed": False, "error": error} for name, error in errors.items()}},
        "constants": constants,
        "diagnostics": {"blas": _blas(), "caches": run_memo_stats(), "refinements": _LADDERS,
                        # d|K|function id -> relative L^2 residual, 0.0 if exact
                        "projection_residuals": {
                            f"{d}|{k}|{fid}": spectral.projection_residual
                            for (d, k, _, fid), spectral in _CORPUS_SPECTRAL.items()},
                        "pruning": {name: _pruning(log) for name, log in pruning.items()},
                        "suites": timings},
    }


def dispatch(config, suite):
    """Run one suite (or 'all'), write CSV + summary.json under out_dir, and
    return the process exit code.  Every CSV starts with a comment line
    `# suite=<name> config_hash=<hash> generated=<UTC ISO time>` whose hash
    is the summary's.  The run is one `run_scope`: each spectral quantity is
    computed once per run, and no memo entry outlives the summary."""
    if suite != "all" and suite not in _RUNNERS:
        raise ConfigError(f"unknown suite: {suite!r}")
    with run_scope():
        try:
            os.makedirs(config.out_dir, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create output directory {config.out_dir!r}: {exc}",
                  file=sys.stderr)
            return 2
        snapshot = config.snapshot()
        digest = config_hash({k: v for k, v in snapshot.items() if k != "out_dir"})
        names = SUITES if suite == "all" else (suite,)
        reports, errors, timings, pruning = [], {}, {}, {}
        for name in names:
            start, logged, rss = time.perf_counter(), len(_CONTEXTS.log), _max_rss_mb()
            try:
                report = _RUNNERS[name](config)
            except ArithmeticError as exc:
                # no CSV: a partial table must not look like a result
                errors[name] = {key: getattr(exc, key, None)
                                for key in ("n", "d", "order", "previous", "last")}
                errors[name]["kind"] = getattr(exc, "kind", type(exc).__name__)
                if errors[name]["d"] is None:     # a Gauss rule or an overflow: the suite's d
                    errors[name]["d"] = config.d
                print(f"error: {name}: {exc}", file=sys.stderr)
                continue
            finally:
                timings[name] = {"wall_s": time.perf_counter() - start,
                                 "rss_growth_mb": None if rss is None else _max_rss_mb() - rss}
                pruning[name] = _CONTEXTS.log[logged:]     # (p, synthesised, skipped)
            generated = datetime.datetime.now(datetime.timezone.utc).isoformat()
            _write_atomic(os.path.join(config.out_dir, f"{name}.csv"),
                          f"# suite={name} config_hash={digest} generated={generated}\n"
                          + report.csv_body())
            reports.append(report)
            status = "pass" if report.passed else "FAIL"
            print(f"[{status}] {name}: {len(report.rows)} rows")
        summary = _summary(snapshot, digest, reports, errors, timings, pruning)
        _write_atomic(os.path.join(config.out_dir, "summary.json"),
                      json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n")
        return 0 if all(r.passed for r in reports) and not errors else 1


def _max_rss_mb():
    """The process's max resident set size so far, in MiB, or None without `resource`."""
    return getrusage(RUSAGE_SELF).ru_maxrss / 1024 if getrusage else None  # KiB on Linux


def _openblas():
    """The OpenBLAS that the numpy wheel bundles, or None when there is none."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    name = next((name for name in names if name.startswith("libscipy_openblas")), None)
    return None if name is None else ctypes.CDLL(os.path.join(libs, name))


def _blas():
    """numpy's OpenBLAS kernel name and thread count, each None if unknown."""
    lib = _openblas()
    kernel, threads = (getattr(lib, f"scipy_openblas_get_{query}64_", None)
                       for query in ("corename", "num_threads"))
    if kernel is not None:
        kernel.restype = ctypes.c_char_p
    return {"kernel": None if kernel is None else kernel().decode(),
            "threads": None if threads is None else threads()}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vpm",
        description="Verification suites for smoothing means, translation "
                    "moduli, and kernel identities on the unit sphere.")
    parser.add_argument("suite", choices=SUITES + ("all",),
                        help="which verification suite to run")
    parser.add_argument("--config", metavar="FILE", help="flat key=value configuration file")
    parser.add_argument("--d", type=int, help="ambient dimension (>= 3)")
    parser.add_argument("--n-list", dest="n_list", metavar="CSV",
                        help="comma-separated operator degrees")
    parser.add_argument("--p", dest="p_list", metavar="LIST",
                        help="comma-separated norm indices from {1,2,inf}")
    parser.add_argument("--corpus", metavar="LIST", help="comma-separated corpus function ids")
    parser.add_argument("--seed", type=int, help="seed for the random band-limited corpus member")
    parser.add_argument("--out", dest="out_dir", metavar="DIR",
                        help="output directory (default $VPM_OUT_DIR or ./vpm_out)")
    parser.add_argument("--n-max", dest="n_max", type=int,
                        help="largest degree for the multiplier identity sweep")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # the flags carry the RunConfig field names as their dest
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    try:
        config = parse_config(path=args.config, overrides=overrides)
        return dispatch(config, args.suite)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
