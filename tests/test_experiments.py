import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vpmeans.experiments
import vpmeans.function_space
import vpmeans.smoothness
from vpmeans import quadrature
from vpmeans.cli import config_hash
from vpmeans.experiments import (Workspace, _delayed_maxima, _operator_error_norms,
                                 measure_envelope_constant,
                                 run_converse_suite, run_delayed_max_suite,
                                 run_lemma_suite, run_modulus_suite,
                                 run_multiplier_identity_suite,
                                 run_selftest_suite, run_voronovskaya_suite)
from vpmeans.function_space import INF, ZonalSpectral, corpus_ids, q_table, zonal_project
from vpmeans.kernel import multiplier_via_quadrature, multiplier_weight
from vpmeans.memo import clear_run_memos

SMALL_CORPUS = ("harmonic:4", "cusp:1.0")
SMALL_N = (4, 8, 16)


def test_config_hash_stability():
    a = config_hash({"d": "3", "seed": "42"})
    b = config_hash({"seed": "42", "d": "3"})
    assert a == b and len(a) == 12
    assert config_hash({"d": "4", "seed": "42"}) != a


def test_multiplier_suite_rows_and_pass():
    report = run_multiplier_identity_suite(3, 6)
    assert report.passed
    assert report.columns == ["d", "n", "k", "closed_form", "quadrature", "abs_diff"]
    assert len(report.rows) == sum(n + 5 for n in range(7))
    for row in report.rows:
        if row["k"] == 0:
            assert row["closed_form"] == 1.0
            assert abs(row["quadrature"] - 1.0) <= 1e-12
        if row["k"] > row["n"]:
            assert row["closed_form"] == 0.0
    k1n2 = [r for r in report.rows if r["n"] == 2 and r["k"] == 1][0]
    assert k1n2["closed_form"] == pytest.approx(0.5, rel=1e-13)
    assert k1n2["quadrature"] == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("order", [None, 80])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_multiplier_suite_quadrature_equals_per_cell_oracle(d, order):
    # one Q table per Gauss order gives the per-cell oracle's value exactly
    report = run_multiplier_identity_suite(d, 16, order=order)
    assert [(r["n"], r["k"]) for r in report.rows] == [
        (n, k) for n in range(17) for k in range(n + 5)]
    for row in report.rows:
        assert row["quadrature"] == multiplier_via_quadrature(row["n"], row["k"], d, order)


def test_multiplier_suite_builds_its_rules_in_one_batch(monkeypatch):
    # 133 Gauss orders (32-164) plus the doubled-order self-check: rules built
    # one by one start ~6 Legendre recurrences each (817 in all), the lock-step
    # batch one per Newton sweep
    streams = []
    steps = quadrature._gegenbauer_steps

    def counted(*args):
        streams.append(args[0])
        return steps(*args)
    monkeypatch.setattr(quadrature, "_gegenbauer_steps", counted)
    monkeypatch.setattr(quadrature, "_RULE_CACHE", {})
    assert run_multiplier_identity_suite(3, 64).passed
    assert len(quadrature._RULE_CACHE) == 134
    assert len(streams) <= 16


def test_lemma_suite_structure():
    report = run_lemma_suite(3, (8, 16, 32, 64))
    assert report.passed
    quantities = {row["quantity"] for row in report.rows}
    assert quantities == {"fourth_moment", "neg_lambda", "neg_two_over_m_7", "norm_constant"}
    assert set(report.measured["windows"]) == quantities
    assert report.measured["refinement_check"] is True


def test_voronovskaya_suite_residuals():
    report = run_voronovskaya_suite(3, (16, 32))
    assert report.passed
    for row in report.rows:
        if row["k"] == 0:
            assert row["residual"] == pytest.approx(0.0, abs=1e-15)
        if row["k"] == 1:
            # closed form at d=3: |omega_{n,1} - 1 + 2 alpha(n)| with
            # omega_{n,1} = n/(n+2)
            n = row["n"]
            expect = abs(n / (n + 2) - 1.0 + 2.0 * row["alpha_n"])
            assert row["residual"] == pytest.approx(expect, abs=1e-12)
        assert 0.5 <= row["n_alpha"] <= 2.0


def test_voronovskaya_suite_custom_k_rule():
    report = run_voronovskaya_suite(3, (16,), k_max_rule=lambda n: 2)
    ks = sorted(row["k"] for row in report.rows)
    assert ks == [0, 1, 2]


def test_converse_suite_small():
    report = run_converse_suite(SMALL_CORPUS, (2.0,), SMALL_N, 3)
    assert report.passed
    assert report.columns == ["function_id", "p", "n", "e_n", "w_n", "ratio", "flag"]
    assert len(report.rows) == len(SMALL_CORPUS) * len(SMALL_N)
    for row in report.rows:
        assert row["flag"] == "ok"
        assert row["ratio"] > 0
    # rows are sorted by (function_id, p, n)
    keys = [(r["function_id"], r["p"], r["n"]) for r in report.rows]
    assert keys == sorted(keys)
    assert report.measured["chain_excess"] <= 1e-8


def test_converse_harmonic_error_closed_form():
    # for a single harmonic the operator error is (1 - omega_{n,k}) ||Q_k||_p
    report = run_converse_suite(("harmonic:4",), (2.0,), (8,), 3)
    row = report.rows[0]
    from vpmeans.function_space import ZonalSpectral, lp_norm_zonal
    coeffs = np.zeros(4 * 8 + 64 + 1)
    coeffs[4] = 1.0
    norm = lp_norm_zonal(ZonalSpectral(lam=0.5, coeffs=coeffs), 2.0, 3)
    expect = (1.0 - multiplier_weight(8, 4, 0.5)) * norm
    assert row["e_n"] == pytest.approx(expect, rel=1e-10)


def test_delayed_max_suite_band_limited_max_at_first_degree():
    report = run_delayed_max_suite(("harmonic:4",), (2.0,), (8, 16), 32, 3)
    assert report.passed
    for row in report.rows:
        assert row["flag"] == "TRUNCATED"
        # omega_{k,4} increases in k, so the worst degree is the smallest
        assert row["max_err"] == pytest.approx(
            (1.0 - multiplier_weight(row["n"], 4, 0.5))
            * report.rows[0]["max_err"] / (1.0 - multiplier_weight(8, 4, 0.5)),
            rel=1e-10)


@settings(max_examples=40, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), support=st.integers(0, 120), pad=st.integers(0, 60),
       n_list=st.lists(st.integers(1, 48), min_size=1, max_size=5),
       extra=st.integers(0, 40), spike=st.sampled_from([0.0, 4.0]),
       seed=st.integers(0, 2 ** 32 - 1))
# f = 0.27 - 0.46 Q_1 + 4 Q_41, cap 40: f - V_k f = 4 Q_41 - 0.46 (1 - omega_{k,1}) Q_1
# has its sup 4 - 0.46 (1 - omega_{k,1}) at both poles, which grows with k while
# every coefficient and bound shrinks: each segment's max is at its last degree,
# not at its top-bound first one
@example(d=3, support=1, pad=0, n_list=[4, 16], extra=24, spike=4.0, seed=0)
def test_delayed_maxima_equal_full_sweep(d, support, pad, n_list, extra, spike, seed):
    # suffix maxima of the unpruned sweep over every degree are the oracle;
    # a spike Q_(k_cap + 1), left alone by every V_k, makes some errors grow in k.
    # The sweep's last block is rarely a multiple of 8 columns wide, which
    # BLAS may round differently from the pruned blocks, hence no bit equality
    n_list = sorted(n_list)
    k_cap = n_list[-1] + extra
    coeffs = np.zeros(max(support + pad, k_cap + 1) + 1)
    coeffs[:support + 1] = np.random.default_rng(seed).uniform(-1.0, 1.0, support + 1)
    coeffs[k_cap + 1] += spike
    f = ZonalSpectral(lam=(d - 2) / 2.0, coeffs=coeffs)
    pruned = _delayed_maxima(f, n_list, k_cap, (1.0, INF), d)
    for p, maxima in zip((1.0, INF), pruned):
        errs = _operator_error_norms(f, range(n_list[0], k_cap + 1), p, d)
        suffix = np.maximum.accumulate(errs[::-1])[::-1][np.array(n_list) - n_list[0]]
        np.testing.assert_allclose(maxima, suffix, rtol=1e-14, atol=0.0)


def test_scale_suites_take_one_pruned_sweep_per_function(monkeypatch):
    # every p of a function shares one lp_norm_maxima call, so one bound pass:
    # the delayed-max segments, and the omega cells of delayed-max and modulus
    calls = {"experiments": [], "smoothness": []}
    for name, log in calls.items():
        module = getattr(vpmeans, name)
        monkeypatch.setattr(module, "lp_norm_maxima",
                            lambda cols, sizes, lam, ps, *args, inner=module.lp_norm_maxima,
                            log=log, **kw: log.append((len(sizes), tuple(ps)))
                            or inner(cols, sizes, lam, ps, *args, **kw))
    ps = (1.0, 2.0, INF)
    clear_run_memos()
    run_delayed_max_suite(SMALL_CORPUS, ps, SMALL_N, 40, 3)
    assert calls["experiments"] == [(3, ps)] * len(SMALL_CORPUS)
    # then the refinement self-check's doubled grid, at the last p only
    assert calls["smoothness"] == [(3, ps)] * len(SMALL_CORPUS) + [(1, (INF,))]
    clear_run_memos()
    calls["smoothness"].clear()
    run_modulus_suite(SMALL_CORPUS, ps, SMALL_N, 3)
    assert calls["smoothness"] == [(3, ps)] * len(SMALL_CORPUS) + [(1, (2.0,))]


def test_delayed_max_k_cap_validation():
    with pytest.raises(ValueError):
        run_delayed_max_suite(SMALL_CORPUS, (2.0,), (8, 16), 8, 3)


def test_modulus_suite_small():
    report = run_modulus_suite(SMALL_CORPUS, (2.0,), SMALL_N, 3)
    assert report.passed
    for row in report.rows:
        assert 1.0 / 50.0 <= row["ratio"] <= 50.0


def test_selftest_suite_passes():
    report = run_selftest_suite()
    assert report.passed
    assert all(row["passed"] for row in report.rows)
    assert report.measured["envelope_constant"] <= 10.0


def test_envelope_constant_measurement():
    c5 = measure_envelope_constant(d_list=(3,), k_max=64, grid_size=256)
    assert 0.5 <= c5 <= 10.0
    # d = 4 includes the argument of max oscillation, pushing the constant past 1
    assert measure_envelope_constant(d_list=(4,), k_max=64, grid_size=256) >= 1.0


def test_workspace_resolution():
    ws = Workspace(3, 16)
    assert ws.band_limit == 4 * 16 + 64
    f = ws.spectral("harmonic:4")
    assert f.coeffs[4] == 1.0 and np.count_nonzero(f.coeffs) == 1
    assert f.projection_residual == 0.0
    cusp = ws.spectral("cusp:0.5")
    assert cusp.projection_residual < 1e-3
    # truncation error shrinks as the band limit grows
    finer = Workspace(3, 16, band_limit=512).spectral("cusp:0.5")
    assert finer.projection_residual < cusp.projection_residual
    assert ws.spectral("cusp:0.5") is cusp
    # the same id, band limit and seed at another dimension is another function
    assert Workspace(5, 16).spectral("cusp:0.5").lam == 1.5
    with pytest.raises(LookupError):
        ws.spectral("unknown:1")


def test_workspace_prepare_projects_once_and_builds_nothing_when_memoised(monkeypatch):
    calls = []
    monkeypatch.setattr(vpmeans.function_space, "q_table",
                        lambda *args: calls.append(args) or q_table(*args))
    clear_run_memos()
    ws = Workspace(3, 128)          # K = 576: one projection table is 5.2 MiB
    corpus = corpus_ids()
    first = ws.prepare(corpus)
    assert len(calls) == 1          # the four projected members share one table
    for fid, f in zip(corpus, first):
        if f.projection_residual:
            single = zonal_project(vpmeans.function_space.corpus_member(3, fid), 576, 0.5)
            assert np.array_equal(f.coeffs, single.coeffs)
    calls.clear()
    tracemalloc.start()
    try:
        again = ws.prepare(corpus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and peak < 2 ** 20
    assert all(a is b for a, b in zip(first, again))
    clear_run_memos()


def test_report_determinism_in_memory():
    a = run_multiplier_identity_suite(3, 5)
    b = run_multiplier_identity_suite(3, 5)
    assert a.csv_body() == b.csv_body()

