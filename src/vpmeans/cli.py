"""Command-line driver: `vpm <suite>` parses configuration, dispatches the
verification suites, and writes per-suite CSV reports plus a summary.json.

Exit codes: 0 when every suite passes its windows, 1 on any suite failure (a
ConvergenceError fails only its suite, which then writes no CSV), 2 on a
usage error (unknown key, invalid value, band budget exceeded).
Configuration comes from a flat key=value file plus flags; flags win.
"""

import argparse
import datetime
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields, replace

from .experiments import (_CORPUS_SPECTRAL, measure_envelope_constant,
                          run_converse_suite, run_delayed_max_suite,
                          run_lemma_suite, run_modulus_suite,
                          run_multiplier_identity_suite, run_selftest_suite,
                          run_voronovskaya_suite)
from .function_space import corpus_ids
from .kernel import _RUNGS, ConvergenceError
from .memo import run_memo_stats, run_scope

__all__ = ["RunConfig", "ConfigError", "config_hash", "parse_config", "dispatch", "main"]

INF = float("inf")

SUITES = ("multipliers", "lemmas", "voronovskaya", "converse",
          "delayed-max", "modulus", "selftest")

DEFAULT_N_LIST = (4, 8, 16, 32, 64, 128, 256)


class ConfigError(Exception):
    """Invalid configuration; the CLI maps this to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration.  All suite thresholds live here, not in the
    math modules."""
    d: int = 3
    n_list: tuple = DEFAULT_N_LIST
    p_list: tuple = (1.0, 2.0, INF)
    corpus: tuple = ()                  # empty means the full corpus for `seed`
    quadrature_order: object = "auto"   # "auto" or a positive integer
    theta_grid_size: int = 64
    seed: int = 42
    out_dir: str = ""
    n_max: int = 32                     # multiplier suite sweep bound
    k_cap: int = 0                      # delayed-max cap; 0 means 2*max(n_list)
    band_budget: int = 2048             # largest representable band limit
    multiplier_tol: float = 1e-9
    lemma_window: float = 2.0
    voronovskaya_window: float = 3.0
    alpha_low: float = 0.5
    alpha_high: float = 2.0
    converse_window: float = 25.0
    delayed_window: float = 25.0
    equivalence_window: float = 50.0

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


def _parse_p_list(text):
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        if part in ("inf", "Infinity", "oo"):
            out.append(INF)
        elif part in ("1", "1.0"):
            out.append(1.0)
        elif part in ("2", "2.0"):
            out.append(2.0)
        else:
            raise ConfigError(f"p must be drawn from {{1, 2, inf}}, got {part!r}")
    return tuple(out)


def _parse_quad_order(text):
    if str(text) == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"quadrature_order must be 'auto' or an integer, got {text!r}") from None
    if value < 1:
        raise ConfigError(f"quadrature_order must be positive, got {value}")
    return value


# every RunConfig field is a configuration key; its type parses its value
# unless the field needs the list or "auto" syntax below
_SYNTAX_PARSERS = {
    "n_list": _parse_int_list,
    "p_list": _parse_p_list,
    "corpus": lambda text: tuple(part.strip() for part in str(text).split(",") if part.strip()),
    "quadrature_order": _parse_quad_order,
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
    if config.n_max < 0:
        raise ConfigError(f"n_max must be >= 0, got {config.n_max}")
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
    if config.theta_grid_size < 2:
        raise ConfigError(f"theta_grid_size must be >= 2, got {config.theta_grid_size}")
    needed = 4 * max(config.n_list) + 64
    if needed > config.band_budget:
        raise ConfigError(
            f"band budget exceeded: n_list requires a band limit of {needed} "
            f"but band_budget={config.band_budget}; lower max(n_list) or raise band_budget")
    if config.k_cap and config.k_cap < max(config.n_list):
        raise ConfigError(f"k_cap must be >= max(n_list), got {config.k_cap}")
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


def _auto_order(config):
    return None if config.quadrature_order == "auto" else int(config.quadrature_order)


def _run_one(config, suite):
    if suite == "multipliers":
        return run_multiplier_identity_suite(config.d, config.n_max,
                                             tol=config.multiplier_tol,
                                             order=_auto_order(config))
    if suite == "lemmas":
        return run_lemma_suite(config.d, config.n_list, window=config.lemma_window)
    if suite == "voronovskaya":
        return run_voronovskaya_suite(config.d, config.n_list,
                                      window=config.voronovskaya_window,
                                      alpha_bounds=(config.alpha_low, config.alpha_high))
    if suite == "converse":
        return run_converse_suite(config.corpus, config.p_list, config.n_list,
                                  config.d, window=config.converse_window,
                                  seed=config.seed,
                                  theta_grid_size=config.theta_grid_size)
    if suite == "delayed-max":
        k_cap = config.k_cap or 2 * max(config.n_list)
        return run_delayed_max_suite(config.corpus, config.p_list, config.n_list,
                                     k_cap, config.d, window=config.delayed_window,
                                     seed=config.seed,
                                     theta_grid_size=config.theta_grid_size)
    if suite == "modulus":
        return run_modulus_suite(config.corpus, config.p_list, config.n_list,
                                 config.d, window=config.equivalence_window,
                                 seed=config.seed,
                                 theta_grid_size=config.theta_grid_size)
    if suite == "selftest":
        return run_selftest_suite(seed=config.seed)
    raise ConfigError(f"unknown suite: {suite!r}")


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


def _summary(config, snapshot, digest, reports, errors, wall):
    constants = dict.fromkeys(("envelope_c5", "n_alpha_window", "lemma_windows",
                               "converse_ratio_windows"))
    for report in reports:
        if report.suite == "selftest":
            constants["envelope_c5"] = report.measured.get("envelope_constant")
        elif report.suite == "voronovskaya":
            values = [float(v) for v in report.measured["n_alpha"].values()]
            constants["n_alpha_window"] = {"min": min(values), "max": max(values)}
        elif report.suite == "lemmas":
            constants["lemma_windows"] = report.measured.get("windows")
        elif report.suite == "converse":
            constants["converse_ratio_windows"] = report.measured.get("ratio_windows")
    if constants["envelope_c5"] is None:
        # cheap variant so the summary always reports the measured constant
        constants["envelope_c5"] = measure_envelope_constant(
            d_list=(config.d,), k_max=128, grid_size=512)
    return {
        "config_hash": digest,
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": snapshot,
        "suites": {**{r.suite: {"passed": r.passed, "measured": r.measured} for r in reports},
                   **{name: {"passed": False, "error": error} for name, error in errors.items()}},
        "constants": constants,
        "diagnostics": {"caches": run_memo_stats(), "refinements": _RUNGS.log,
                        # d|K|function id -> relative L^2 residual, 0.0 if exact
                        "projection_residuals": {
                            f"{d}|{k}|{fid}": spectral.projection_residual
                            for (d, k, _, fid), spectral in _CORPUS_SPECTRAL.items()},
                        "suites": {name: {"wall_s": s} for name, s in wall.items()}},
    }


def dispatch(config, suite):
    """Run one suite (or 'all'), write CSV + summary.json under out_dir, and
    return the process exit code.  Every CSV starts with a comment line
    `# suite=<name> config_hash=<hash> generated=<UTC ISO time>` whose hash
    is the summary's.  The run is one `run_scope`: each spectral quantity is
    computed once per run, and no memo entry outlives the summary."""
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
        reports, errors, wall = [], {}, {}
        for name in names:
            start = time.perf_counter()
            try:
                report = _run_one(config, name)
            except ConvergenceError as exc:
                # no CSV: a partial table must not look like a result
                errors[name] = {key: getattr(exc, key)
                                for key in ("kind", "n", "d", "order", "previous", "last")}
                print(f"error: {name}: {exc}", file=sys.stderr)
                continue
            finally:
                wall[name] = time.perf_counter() - start
            generated = datetime.datetime.now(datetime.timezone.utc).isoformat()
            _write_atomic(os.path.join(config.out_dir, f"{name}.csv"),
                          f"# suite={name} config_hash={digest} generated={generated}\n"
                          + report.csv_body())
            reports.append(report)
            status = "pass" if report.passed else "FAIL"
            print(f"[{status}] {name}: {len(report.rows)} rows")
        summary = _summary(config, snapshot, digest, reports, errors, wall)
        _write_atomic(os.path.join(config.out_dir, "summary.json"),
                      json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n")
        return 0 if all(r.passed for r in reports) and not errors else 1


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
    parser.add_argument("--quad-order", dest="quadrature_order", metavar="N|auto",
                        help="fixed Gauss order, or 'auto' for per-cell defaults")
    parser.add_argument("--n-max", dest="n_max", type=int,
                        help="largest degree for the multiplier identity sweep")
    parser.add_argument("--k-cap", dest="k_cap", type=int,
                        help="delayed-max truncation cap (default 2*max(n_list))")
    parser.add_argument("--theta-grid-size", dest="theta_grid_size", type=int,
                        help="points per scale in the modulus theta scan")
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
