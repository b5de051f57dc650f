import ctypes
import datetime
import json
import os
import re
import subprocess
import sys
import types
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import vpmeans.cli
import vpmeans.memo
from vpmeans.cli import SUITES, ConfigError, RunConfig, build_parser, dispatch, main, parse_config
from vpmeans import experiments, quadrature
from vpmeans.experiments import prepare_corpus, run_multiplier_identity_suite
from vpmeans.kernel import ladder_order

INF = float("inf")
SPECTRAL_SUITES = ("converse", "delayed-max", "modulus")
SMALL_RUN = ["--n-list", "4,8,16"]


def _csv_bodies(out, names):
    """CSV text below the timestamp comment, per suite."""
    return {name: (out / f"{name}.csv").read_text().split("\n", 1)[1] for name in names}


@pytest.fixture(scope="module")
def small_all_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("all")
    assert main(["all", *SMALL_RUN, "--out", str(out)]) == 0
    return out


def test_defaults():
    config = parse_config()
    assert config.d == 3
    assert config.n_list == (4, 8, 16, 32, 64, 128, 256)
    assert config.p_list == (1.0, 2.0, INF)
    assert config.seed == 42
    assert config.corpus == ("harmonic:1", "harmonic:4", "harmonic:16", "cusp:0.5",
                             "cusp:1.0", "cusp:1.5", "bump", "randband:seed42")


def test_corpus_default_follows_seed():
    config = parse_config(overrides={"seed": "7"})
    assert "randband:seed7" in config.corpus
    assert "randband:seed42" not in config.corpus


def test_unknown_corpus_id_is_usage_error():
    with pytest.raises(ConfigError, match="corpus function id"):
        parse_config(overrides={"corpus": "wavelet:9"})
    with pytest.raises(ConfigError, match="corpus function id"):
        parse_config(overrides={"seed": "7", "corpus": "randband:seed42"})


def _usage_exit(argv, capsys):
    """The stderr of a `main(argv)` that argparse ends with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_file_and_flag_precedence(tmp_path, monkeypatch):
    # @FILE puts its flags, one a line, where it stands: a later flag wins
    cfg = tmp_path / "run.args"
    cfg.write_text("--d=3\n--n-list=4,8\n--seed\n7\n")
    seen = []
    monkeypatch.setattr(vpmeans.cli, "dispatch", lambda config, suite: seen.append(config) or 0)
    assert main(["all", f"@{cfg}"]) == 0
    assert (seen[-1].d, seen[-1].seed, seen[-1].n_list) == (3, 7, (4, 8))
    assert main(["all", "--d", "5", f"@{cfg}", "--d", "4"]) == 0
    assert (seen[-1].d, seen[-1].seed) == (4, 7)
    assert main(["all", "--seed", "9", f"@{cfg}"]) == 0
    assert seen[-1].seed == 7


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.args"
    cfg.write_text("--n-lists=4,8\n")
    assert "unrecognized arguments: --n-lists=4,8" in _usage_exit(["all", f"@{cfg}"], capsys)


def test_threshold_key_is_usage_error(tmp_path, capsys):
    # the verdict windows are constants of `experiments`, not configuration
    with pytest.raises(ConfigError, match="unknown configuration key: 'converse_window'"):
        parse_config(overrides={"converse_window": "25"})
    cfg = tmp_path / "run.args"
    cfg.write_text("--converse-window=25\n")
    err = _usage_exit(["converse", f"@{cfg}", "--out", str(tmp_path / "r")], capsys)
    assert "unrecognized arguments: --converse-window=25" in err
    assert not (tmp_path / "r").exists()


def test_malformed_line_rejected(tmp_path, capsys):
    # a line is one argument: key = value lines, comments and blank lines are
    # not flags
    cfg = tmp_path / "run.args"
    for line in ("just a line", "d = 3", "# comment", ""):
        cfg.write_text(f"--seed=7\n{line}\n--d=3\n")
        assert "unrecognized arguments" in _usage_exit(["all", f"@{cfg}"], capsys)


def test_missing_file_rejected(capsys):
    assert "No such file" in _usage_exit(["all", "@/nonexistent/vpm.args"], capsys)


def test_band_budget_validation():
    with pytest.raises(ConfigError, match="band budget"):
        parse_config(overrides={"n_list": "4,8,512"})
    # the corpus band limit 4 max(n_list) + 64 of the suites reaches the
    # budget 2048 at 496
    assert experiments.BAND_BUDGET == 2048 == experiments.corpus_band_limit(496)
    assert parse_config(overrides={"n_list": "8,496"}).n_list == (8, 496)
    with pytest.raises(ConfigError, match="requires a band limit of 2052 but the budget is 2048"):
        parse_config(overrides={"n_list": "8,497"})
    # the budget is a rule of `experiments`, not a key
    with pytest.raises(ConfigError, match="unknown configuration key: 'band_budget'"):
        parse_config(overrides={"n_list": "4,8,512", "band_budget": "4096"})


# the keys and flags that once set the multiplier Gauss orders, the theta scan
# and the delayed-max cap, now rules of the modules that own them
RESOLUTION_FLAGS = {"quadrature_order": "--quad-order", "theta_grid_size": "--theta-grid-size",
                    "k_cap": "--k-cap"}


@pytest.mark.parametrize("key", RESOLUTION_FLAGS)
def test_resolution_is_not_a_setting(tmp_path, capsys, key):
    flag = RESOLUTION_FLAGS[key]
    with pytest.raises(ConfigError, match=f"unknown configuration key: {key!r}"):
        parse_config(overrides={key: "64"})
    err = _usage_exit(["all", flag, "64", "--out", str(tmp_path / "r")], capsys)
    assert f"unrecognized arguments: {flag} 64" in err
    assert not (tmp_path / "r").exists()


def test_n_max_bounded_by_band_budget(tmp_path):
    # the multiplier suite reads Q_k up to k = n_max + 4: 2044 is the largest
    # n_max within the band budget
    budget = experiments.BAND_BUDGET
    assert budget - experiments.MULTIPLIER_REACH == 2044
    assert parse_config(overrides={"n_max": str(budget - 4)}).n_max == budget - 4
    for n_max in (budget - 3, 10 ** 8):
        with pytest.raises(ConfigError, match=rf"band budget {budget}, got n_max={n_max}$"):
            parse_config(overrides={"n_max": str(n_max)})
    assert main(["multipliers", "--n-max", str(10 ** 8), "--out", str(tmp_path)]) == 2
    assert not any(tmp_path.iterdir())


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        parse_config(overrides={"d": "2"})
    with pytest.raises(ConfigError):
        parse_config(overrides={"n_list": "0,4"})
    with pytest.raises(ConfigError):
        parse_config(overrides={"p_list": "3"})
    with pytest.raises(ConfigError):
        parse_config(overrides={"n_list": "a,b"})
    with pytest.raises(ConfigError, match="n_max"):
        parse_config(overrides={"n_max": "-1"})
    with pytest.raises(ConfigError, match="seed"):
        parse_config(overrides={"seed": "-3"})


@pytest.mark.parametrize("key", ["d", "seed", "n_max"])
def test_integer_flags_are_parsed_by_parse_config(tmp_path, capsys, key):
    # argparse passes the text through; parse_config is the one parser
    flag = "--" + key.replace("_", "-")
    assert main(["multipliers", flag, "x", "--out", str(tmp_path / "r")]) == 2
    assert f"error: invalid value for {key!r}: 'x'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_d_bounded_by_d_max(tmp_path, capsys):
    # above D_MAX the alpha(n) panel sums overflow at the band budget's top degree
    assert experiments.D_MAX == 40
    assert parse_config(overrides={"d": "40"}).d == 40
    with pytest.raises(ConfigError, match=r"d must be >= 3 and <= D_MAX = 40, got 41$"):
        parse_config(overrides={"d": "41"})
    assert main(["all", "--d", "41", "--out", str(tmp_path / "r")]) == 2
    assert "D_MAX = 40" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("key, text, repeated", [
    ("n_list", "4,4,8", "4"), ("p_list", "2,inf,2.0", "2.0"), ("p_list", "inf,oo", "inf"),
    ("corpus", "bump,cusp:1.0,bump", "'bump'")])
def test_repeated_list_values_are_usage_errors(tmp_path, capsys, key, text, repeated):
    # a repeated n, p or function would write its rows twice and count them
    # twice in the windows
    with pytest.raises(ConfigError, match=rf"^{key} repeats {repeated}; each value may appear"):
        parse_config(overrides={key: text})
    flag = {"n_list": "--n-list", "p_list": "--p", "corpus": "--corpus"}[key]
    assert main(["converse", flag, text, "--out", str(tmp_path / "r")]) == 2
    assert f"{key} repeats {repeated}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_n_list_values_are_parsed_by_parse_config(tmp_path, capsys):
    # n_list's parser raises a plain ValueError, which parse_config reports
    assert main(["converse", "--n-list", "a,b", "--out", str(tmp_path / "r")]) == 2
    assert "error: invalid value for 'n_list': 'a,b'" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_p_list_parsing():
    config = parse_config(overrides={"p_list": "1,inf"})
    assert config.p_list == (1.0, INF)


def test_out_dir_env_default(monkeypatch, tmp_path):
    monkeypatch.setenv("VPM_OUT_DIR", str(tmp_path / "envout"))
    config = parse_config()
    assert config.out_dir == str(tmp_path / "envout")
    monkeypatch.delenv("VPM_OUT_DIR")
    config = parse_config()
    assert config.out_dir == "vpm_out"


def test_main_usage_errors(tmp_path, capsys):
    # unknown suite: argparse exits with code 2
    with pytest.raises(SystemExit) as exc:
        main(["frequencies"])
    assert exc.value.code == 2
    # band budget violation surfaces as exit 2 with the limit named
    code = main(["converse", "--n-list", "4,8,512", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "band budget" in err
    # a negative value is a usage error, not a traceback from deep inside a suite
    assert main(["multipliers", "--n-max", "-1", "--out", str(tmp_path)]) == 2
    assert "n_max must be >= 0" in capsys.readouterr().err


def test_main_selftest_roundtrip(tmp_path):
    out = tmp_path / "results"
    code = main(["selftest", "--out", str(out)])
    assert code == 0
    assert (out / "selftest.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["suites"]["selftest"]["passed"] is True
    assert set(summary["constants"]) == {"envelope_c5", "n_alpha_window",
                                         "lemma_windows", "converse_ratio_windows"}
    assert summary["constants"]["envelope_c5"] <= 10.0
    assert "config_hash" in summary


def test_main_multipliers_csv_schema(tmp_path):
    out = tmp_path / "results"
    code = main(["multipliers", "--d", "3", "--n-max", "8", "--out", str(out)])
    assert code == 0
    lines = (out / "multipliers.csv").read_text().splitlines()
    assert lines[1] == "d,n,k,closed_form,quadrature,abs_diff"
    assert len(lines) == 2 + sum(n + 5 for n in range(9))


def test_main_converse_csv_schema(tmp_path):
    out = tmp_path / "results"
    code = main(["converse", "--corpus", "cusp:1.0", "--p", "inf",
                 "--n-list", "4,8", "--out", str(out)])
    assert code == 0
    lines = (out / "converse.csv").read_text().splitlines()
    assert lines[1] == "function_id,p,n,e_n,w_n,ratio,flag"
    assert len(lines) == 4
    assert lines[2].startswith("cusp:1.0,inf,4,")


def test_envelope_constant_comes_from_the_selftest_only(tmp_path):
    # without the selftest no envelope is measured: the constant is null,
    # like the constants of the other suites that did not run
    assert main(["converse", "--corpus", "cusp:1.0", "--p", "inf",
                 "--n-list", "4,8", "--out", str(tmp_path)]) == 0
    constants = json.loads((tmp_path / "summary.json").read_text())["constants"]
    assert set(constants) == {"envelope_c5", "n_alpha_window",
                              "lemma_windows", "converse_ratio_windows"}
    assert constants["envelope_c5"] is None
    assert constants["converse_ratio_windows"] is not None


def test_main_delayed_max_csv_schema(tmp_path):
    out = tmp_path / "results"
    code = main(["delayed-max", "--corpus", "harmonic:4", "--p", "2",
                 "--n-list", "4,8", "--out", str(out)])
    assert code == 0
    lines = (out / "delayed-max.csv").read_text().splitlines()
    assert lines[1] == "function_id,p,n,k_cap,max_err,w_n,ratio,flag"
    assert {line.split(",")[3] for line in lines[2:]} == {"16"}     # 2 max(n_list)
    assert all(line.endswith("TRUNCATED") for line in lines[2:])


def test_main_modulus_csv_schema(tmp_path):
    out = tmp_path / "results"
    code = main(["modulus", "--corpus", "bump", "--p", "1",
                 "--n-list", "4,16", "--out", str(out)])
    assert code == 0
    lines = (out / "modulus.csv").read_text().splitlines()
    assert lines[1] == "function_id,p,t,omega,k_estimate,ratio,flag"
    assert len(lines) == 4


def test_main_suite_failure_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "MULTIPLIER_TOL", 1e-20)
    code = main(["multipliers", "--n-max", "4", "--out", str(tmp_path / "r")])
    assert code == 1


def test_non_convergence_fails_only_its_suite(tmp_path, monkeypatch, capsys):
    # every Newton loop runs out of budget: the suite fails alone, leaves no
    # CSV, and the summary names the error
    monkeypatch.setattr(quadrature, "_NEWTON_BUDGET", 1)
    monkeypatch.setattr(quadrature, "_RULE_CACHE", {})
    assert main(["multipliers", "--n-max", "4", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: multipliers: gauss_legendre Newton did not converge")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]
    suite = json.loads((tmp_path / "summary.json").read_text())["suites"]["multipliers"]
    assert suite["passed"] is False
    assert suite["error"]["kind"] == "gauss_legendre Newton"
    assert set(suite["error"]) == {"kind", "n", "d", "order", "previous", "last"}
    assert suite["error"]["n"] == suite["error"]["order"] >= 32


def test_non_convergence_reports_the_suite_dimension(tmp_path, monkeypatch, capsys):
    # a Gauss rule has no dimension: the contained error carries the suite's
    monkeypatch.setattr(quadrature, "_NEWTON_BUDGET", 1)
    monkeypatch.setattr(quadrature, "_RULE_CACHE", {})
    assert main(["multipliers", "--d", "5", "--n-max", "4", "--out", str(tmp_path)]) == 1
    assert "d=" not in capsys.readouterr().err
    error = json.loads((tmp_path / "summary.json").read_text())["suites"]["multipliers"]["error"]
    assert error["d"] == 5 and error["kind"] == "gauss_legendre Newton"


def test_dispatch_rejects_an_unknown_suite_before_running(tmp_path):
    config = parse_config(overrides={"out_dir": str(tmp_path / "out")})
    with pytest.raises(ConfigError, match="unknown suite: 'frequencies'"):
        dispatch(config, "frequencies")
    assert not (tmp_path / "out").exists()
    assert [build_parser().parse_args([name]).suite for name in SUITES] == list(SUITES)


def test_non_convergence_leaves_other_suites_running(tmp_path, monkeypatch, capsys):
    def stalled(*args, **kwargs):
        raise quadrature.ConvergenceError(8, 3, "lemma_integral", 320, 1.0, 2.0)
    monkeypatch.setattr(vpmeans.cli, "run_lemma_suite", stalled)
    config = parse_config(overrides={"n_list": "4,8", "corpus": "cusp:1.0",
                                     "out_dir": str(tmp_path)})
    assert dispatch(config, "all") == 1
    assert capsys.readouterr().err.count("error: lemmas: lemma_integral") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{name}.csv" for name in SUITES if name != "lemmas"] + ["summary.json"])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["suites"]["lemmas"] == {"passed": False, "error": {
        "kind": "lemma_integral", "n": 8, "d": 3, "order": 320, "previous": 1.0, "last": 2.0}}
    assert all(summary["suites"][name]["passed"] for name in SUITES if name != "lemmas")


def test_arithmetic_error_fails_only_its_suite(tmp_path, monkeypatch, capsys):
    # an overflow carries none of ConvergenceError's fields: they are null,
    # `kind` names the exception type and `d` is the suite's
    def overflowing(*args, **kwargs):
        raise OverflowError("math range error")
    monkeypatch.setattr(vpmeans.cli, "run_modulus_suite", overflowing)
    config = parse_config(overrides={"n_list": "4,8", "corpus": "cusp:1.0",
                                     "out_dir": str(tmp_path)})
    assert dispatch(config, "all") == 1
    err = capsys.readouterr().err
    assert err == "error: modulus: math range error\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{name}.csv" for name in SUITES if name != "modulus"] + ["summary.json"])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["suites"]["modulus"] == {"passed": False, "error": {
        "kind": "OverflowError", "n": None, "d": 3, "order": None, "previous": None,
        "last": None}}
    assert all(summary["suites"][name]["passed"] for name in SUITES if name != "modulus")


def test_floating_fault_fails_only_its_suite(tmp_path, monkeypatch, capsys):
    # each suite runs with numpy's overflow, invalid and divide raising: an
    # overflow is then a FloatingPointError that fails its suite alone, with
    # no warning, and numpy's settings outside the run are left as they were
    overrides = {"d": "4", "n_list": "4,8", "corpus": "cusp:1.0"}

    def run_all(out):
        return dispatch(parse_config({**overrides, "out_dir": str(tmp_path / out)}), "all")
    assert run_all("clean") == 0
    run_lemma_suite, settings = vpmeans.cli.run_lemma_suite, np.geterr()

    def overflowing(*args):
        np.array([1e308]) * 10.0
        return run_lemma_suite(*args)
    monkeypatch.setattr(vpmeans.cli, "run_lemma_suite", overflowing)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_all("fault") == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert np.geterr() == settings
    err = capsys.readouterr().err
    assert err.startswith("error: lemmas: ") and err.count("\n") == 1
    others = [name for name in SUITES if name != "lemmas"]
    assert sorted(p.name for p in (tmp_path / "fault").iterdir()) == sorted(
        [f"{name}.csv" for name in others] + ["summary.json"])
    assert _csv_bodies(tmp_path / "fault", others) == _csv_bodies(tmp_path / "clean", others)
    summary = json.loads((tmp_path / "fault" / "summary.json").read_text())
    assert summary["suites"]["lemmas"] == {"passed": False, "error": {
        "kind": "FloatingPointError", "n": None, "d": 4, "order": None, "previous": None,
        "last": None}}
    assert all(summary["suites"][name]["passed"] for name in others)


def test_dispatch_rerun_byte_identical(tmp_path):
    config = parse_config(overrides={"n_list": "4,8", "corpus": "cusp:1.0",
                                     "p_list": "2", "out_dir": str(tmp_path / "a")})
    assert dispatch(config, "converse") == 0
    first = (tmp_path / "a" / "converse.csv").read_text().splitlines()[1:]
    config2 = parse_config(overrides={"n_list": "4,8", "corpus": "cusp:1.0",
                                      "p_list": "2", "out_dir": str(tmp_path / "b")})
    assert dispatch(config2, "converse") == 0
    second = (tmp_path / "b" / "converse.csv").read_text().splitlines()[1:]
    assert first == second


def test_every_config_key_is_one_flag():
    # no setting exists only in config files: each RunConfig field is the
    # dest of exactly one flag
    dests = Counter(action.dest for action in build_parser()._actions)
    assert {f.name: dests[f.name] for f in fields(RunConfig)} == \
        {f.name: 1 for f in fields(RunConfig)}


def test_parser_lists_all_suites():
    parser = build_parser()
    text = parser.format_help()
    for suite in ("multipliers", "lemmas", "voronovskaya", "converse",
                  "delayed-max", "modulus", "selftest", "all"):
        assert suite in text


def test_shared_cells_leave_csv_bodies_unchanged(tmp_path, small_all_run):
    # each suite alone computes its own omega cells; `all` shares them
    separate = {}
    for name in SPECTRAL_SUITES:
        assert main([name, *SMALL_RUN, "--out", str(tmp_path / name)]) == 0
        separate.update(_csv_bodies(tmp_path / name, (name,)))
    assert _csv_bodies(small_all_run, SPECTRAL_SUITES) == separate


def test_memo_keys_separate_corpus_seeds(tmp_path, monkeypatch):
    names = ("multipliers", "lemmas", "voronovskaya") + SPECTRAL_SUITES + ("selftest",)
    assert main(["all", *SMALL_RUN, "--seed", "7", "--out", str(tmp_path / "fresh")]) == 0
    # keep the seed-42 memos: only their keys can tell the corpora apart
    monkeypatch.setattr(vpmeans.memo, "clear_run_memos", lambda: None)
    assert main(["all", *SMALL_RUN, "--seed", "42", "--out", str(tmp_path / "s42")]) == 0
    assert main(["all", *SMALL_RUN, "--seed", "7", "--out", str(tmp_path / "after")]) == 0
    assert _csv_bodies(tmp_path / "after", names) == _csv_bodies(tmp_path / "fresh", names)


def test_summary_reports_cache_traffic(small_all_run):
    summary = json.loads((small_all_run / "summary.json").read_text())
    caches = summary["diagnostics"]["caches"]
    assert set(caches) == {"multiplier_prefix", "modulus", "theta_scan", "synthesis_context",
                           "reference_synthesis", "corpus_spectral"}
    for stats in caches.values():
        assert stats["hits"] > 0
        assert stats["entries"] == stats["misses"] > 0
        assert isinstance(stats["bytes"], int) and stats["bytes"] >= 0
    assert caches["synthesis_context"]["bytes"] > 0


def test_summary_reports_suite_wall_times(small_all_run):
    summary = json.loads((small_all_run / "summary.json").read_text())
    assert set(summary["diagnostics"]) == {"blas", "caches", "projection_residuals", "pruning",
                                           "refinements", "suites"}
    suites = summary["diagnostics"]["suites"]
    assert set(suites) == set(SUITES)
    for info in suites.values():
        assert set(info) == {"wall_s", "rss_growth_mb"} and isinstance(info["wall_s"], float)
        assert info["wall_s"] > 0.0
        assert isinstance(info["rss_growth_mb"], float) and info["rss_growth_mb"] >= 0.0
    # each suite's growth of the process's max RSS: together at most the final max
    growths = sum(suites[name]["rss_growth_mb"] for name in SUITES)
    assert growths <= vpmeans.cli._max_rss_mb()
    assert set(summary["constants"]) == {"envelope_c5", "n_alpha_window",
                                         "lemma_windows", "converse_ratio_windows"}


def test_summary_peak_rss_is_null_without_resource(tmp_path, monkeypatch):
    monkeypatch.setattr(vpmeans.cli, "getrusage", None)
    assert main(["selftest", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["diagnostics"]["suites"]["selftest"]["rss_growth_mb"] is None


def test_summary_reports_the_blas_kernel_and_threads(small_all_run):
    blas = json.loads((small_all_run / "summary.json").read_text())["diagnostics"]["blas"]
    assert set(blas) == {"kernel", "threads"}
    if vpmeans.cli._openblas() is not None:       # numpy bundles OpenBLAS
        assert isinstance(blas["kernel"], str) and blas["kernel"]
        assert isinstance(blas["threads"], int) and blas["threads"] >= 1


def test_blas_record_is_null_without_the_library_or_a_query(tmp_path, monkeypatch):
    def corename():
        return b"Haswell"
    monkeypatch.setattr(vpmeans.cli, "_openblas", lambda: None)
    assert main(["selftest", "--out", str(tmp_path / "none")]) == 0
    summary = json.loads((tmp_path / "none" / "summary.json").read_text())
    assert summary["diagnostics"]["blas"] == {"kernel": None, "threads": None}
    library = types.SimpleNamespace(scipy_openblas_get_corename64_=corename)
    monkeypatch.setattr(vpmeans.cli, "_openblas", lambda: library)
    assert vpmeans.cli._blas() == {"kernel": "Haswell", "threads": None}
    library.scipy_openblas_get_num_threads64_ = lambda: 3
    assert vpmeans.cli._blas() == {"kernel": "Haswell", "threads": 3}
    assert corename.restype is ctypes.c_char_p
    del library.scipy_openblas_get_corename64_
    assert vpmeans.cli._blas() == {"kernel": None, "threads": 3}


def test_summary_reports_pruning(small_all_run):
    summary = json.loads((small_all_run / "summary.json").read_text())
    pruning = summary["diagnostics"]["pruning"]
    assert set(pruning) == set(SUITES)
    # converse meets every omega cell first; the later suites hit the memo,
    # and delayed-max prunes its own degree segments
    assert set(pruning["converse"]) == set(pruning["delayed-max"]) == {"1.0", "inf"}
    assert all(pruning[name] == {} for name in SUITES
               if name not in ("converse", "delayed-max"))
    for counts in (*pruning["converse"].values(), *pruning["delayed-max"].values()):
        assert set(counts) == {"synthesised", "skipped"}
        assert counts["synthesised"] > 0 and counts["skipped"] > 0
    # 8 functions x 3 scales x 64 steps, plus one doubled-grid self-check cell
    converse = pruning["converse"]
    assert sum(converse["inf"].values()) in (8 * 3 * 64, 8 * 3 * 64 + 128)


def test_summary_reports_refinement_ladders(small_all_run):
    summary = json.loads((small_all_run / "summary.json").read_text())
    ladders = summary["diagnostics"]["refinements"]
    assert {rec["kind"] for rec in ladders} == {
        "alpha_voronovskaya", "alpha_nested", "lemma_integral"}
    # the lemma ladders read s = 4, -lam and -2/7 at d = 3
    lemma_s = {rec["s"] for rec in ladders if rec["kind"] == "lemma_integral"}
    assert lemma_s == {4.0, -0.5, -2.0 / 7}
    for rec in ladders:
        assert set(rec) == {"kind", "n", "d", "s", "order", "evaluated",
                            "previous", "last", "converged"}
        assert rec["converged"] and rec["d"] == 3
        assert abs(rec["last"] - rec["previous"]) <= 1e-8 * abs(rec["last"])
    # one ladder per n of the sweep, one more at the tighter self-check of
    # n_top = 16 and one at the selftest's alpha route gap, (n, d) = (32, 3)
    alpha = Counter(rec["n"] for rec in ladders if rec["kind"] == "alpha_voronovskaya")
    assert alpha == {4: 1, 8: 1, 16: 2, 32: 1}
    # the lemma self-check takes n_top's value from the sweep and climbs one
    # ladder
    neg_lambda = Counter(rec["n"] for rec in ladders
                         if (rec["kind"], rec["s"]) == ("lemma_integral", -0.5))
    assert neg_lambda == {4: 1, 8: 1, 16: 2}
    # each self-check starts at 3/2 ladder_order(n_top), the sweep's first
    # order, and climbs no order of the sweep's ladder
    for kind, s in (("alpha_voronovskaya", None), ("lemma_integral", -0.5)):
        sweep, check = [rec for rec in ladders
                        if (rec["kind"], rec["n"], rec["s"]) == (kind, 16, s)]
        orders = [{rec["order"] >> j for j in range(rec["evaluated"])} for rec in (sweep, check)]
        assert min(orders[0]) == ladder_order(16) and min(orders[1]) == 3 * ladder_order(16) // 2
        assert orders[0].isdisjoint(orders[1])


def test_summary_reports_projection_residuals(small_all_run, corpus_d3):
    residuals = json.loads((small_all_run / "summary.json").read_text())[
        "diagnostics"]["projection_residuals"]
    corpus = parse_config().corpus
    # one entry per corpus member, on the band limit K = 4 * 16 + 64 of SMALL_RUN
    assert set(residuals) == {f"3|128|{fid}" for fid in corpus}
    with vpmeans.memo.run_scope():
        for fid, spectral in zip(corpus, prepare_corpus(corpus, 3, 16)):
            assert residuals[f"3|128|{fid}"] == spectral.projection_residual
            exact = corpus_d3[fid].coeffs is not None
            assert (spectral.projection_residual == 0.0) == exact


def test_summary_reports_refinement_checks(small_all_run):
    suites = json.loads((small_all_run / "summary.json").read_text())["suites"]
    assert set(suites) == set(SUITES)
    for name, info in suites.items():
        if name != "selftest":
            assert isinstance(info["measured"]["refinement_check"], bool)


def test_report_csv_write_atomic(small_all_run):
    digest = json.loads((small_all_run / "summary.json").read_text())["config_hash"]
    for name in SUITES:
        header = (small_all_run / f"{name}.csv").read_text().split("\n", 1)[0]
        match = re.fullmatch(r"# suite=(\S+) config_hash=([0-9a-f]{12}) generated=(\S+)", header)
        assert match and match.group(1) == name and match.group(2) == digest
        assert datetime.datetime.fromisoformat(match.group(3)).tzinfo is not None
    # no temp files left behind
    assert sorted(p.name for p in small_all_run.iterdir()) == sorted(
        [f"{name}.csv" for name in SUITES] + ["summary.json"])


def test_config_hash_ignores_out_dir(tmp_path):
    # the hash names the computation; summary.json still records the directory
    digests = set()
    for name in ("a", "b"):
        config = parse_config(overrides={"n_list": "4,8", "corpus": "cusp:1.0,harmonic:4",
                                         "out_dir": str(tmp_path / name)})
        assert dispatch(config, "all") == 0
        summary = json.loads((tmp_path / name / "summary.json").read_text())
        assert summary["config"]["out_dir"] == str(tmp_path / name)
        digests.add(summary["config_hash"])
        for suite in SUITES:
            header = (tmp_path / name / f"{suite}.csv").read_text().split("\n", 1)[0]
            digests.add(re.search(r"config_hash=(\S+)", header).group(1))
    assert len(digests) == 1


def test_config_hash_same_from_flags_and_file(tmp_path):
    cfg = tmp_path / "run.args"
    cfg.write_text("--d=4\n--n-max=4\n--seed=7\n")
    assert main(["multipliers", "--d", "4", "--n-max", "4", "--seed", "7",
                 "--out", str(tmp_path / "flags")]) == 0
    assert main(["multipliers", f"@{cfg}", "--out", str(tmp_path / "file")]) == 0
    summaries = [json.loads((tmp_path / name / "summary.json").read_text())
                 for name in ("flags", "file")]
    assert summaries[0]["config_hash"] == summaries[1]["config_hash"]


def test_module_entry_reads_a_settings_file(tmp_path):
    # `python -m vpmeans` runs the same `main` as the `vpm` console script
    cfg = tmp_path / "run.args"
    cfg.write_text("--seed=7\n--n-list=4,8\n")
    env = dict(os.environ, PYTHONPATH=str(Path(vpmeans.cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "vpmeans", "selftest", f"@{cfg}",
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["config"]["seed"] == "7" and summary["suites"]["selftest"]["passed"]


def test_report_csv_floats_have_full_precision(tmp_path):
    assert main(["multipliers", "--n-max", "4", "--out", str(tmp_path)]) == 0
    last = (tmp_path / "multipliers.csv").read_text().splitlines()[-1].split(",")
    expect = run_multiplier_identity_suite(3, 4).rows[-1]
    assert float(last[3]) == expect["closed_form"]
    assert float(last[4]) == expect["quadrature"]
