import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vpmeans.experiments
import vpmeans.function_space
import vpmeans.kernel
import vpmeans.memo
import vpmeans.smoothness
from vpmeans import quadrature
from vpmeans.cli import config_hash
from vpmeans.experiments import (_delayed_maxima, corpus_band_limit, measure_envelope_constant,
                                 prepare_corpus,
                                 run_converse_suite, run_delayed_max_suite,
                                 run_lemma_suite, run_modulus_suite,
                                 run_multiplier_identity_suite,
                                 run_selftest_suite, run_voronovskaya_suite)
from vpmeans.function_space import (BLOCK_COLUMNS, DENSE_GRID_SIZE, INF, ZonalSpectral, corpus_ids,
                                    lp_norms_batch, make_corpus, synthesis_context, zonal_project)
from vpmeans.kernel import (alpha_voronovskaya, default_order, multiplier_via_quadrature,
                            multiplier_weight)
from vpmeans.memo import clear_run_memos, run_memo_stats
from vpmeans.operators import means_columns
from vpmeans.smoothness import THETA_GRID_SIZE, modulus_many

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


@pytest.mark.parametrize("d", [3, 4, 5])
def test_multiplier_suite_quadrature_equals_per_cell_oracle(d):
    # one Q table per Gauss order gives the per-cell oracle's value exactly
    report = run_multiplier_identity_suite(d, 16)
    assert [(r["n"], r["k"]) for r in report.rows] == [
        (n, k) for n in range(17) for k in range(n + 5)]
    for row in report.rows:
        assert row["quadrature"] == multiplier_via_quadrature(row["n"], row["k"], d)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_multiplier_suite_closed_form_equals_scalar_weight(d):
    lam = (d - 2) / 2.0
    for row in run_multiplier_identity_suite(d, 24).rows:
        assert row["closed_form"] == multiplier_weight(row["n"], row["k"], lam)
        assert type(row["closed_form"]) is float
    clear_run_memos()


def test_multiplier_suite_explicit_order_holds_a_bounded_peak():
    # the multiplier suite's 2405 cells at n_max = 64 on one shared Gauss
    # order: 2405 rows by 2048 nodes would take 37.6 MB as one matrix; the Q
    # table takes 1.1 MB
    cells = [(n, k) for n in range(65) for k in range(n + 5)]
    quadrature.gauss_legendre(2048)
    tracemalloc.start()
    try:
        values = vpmeans.kernel._multiplier_integrals({2048: cells}, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(values) == 2405
    assert max(abs(v - multiplier_weight(n, k, 0.5)) for (n, k), v in zip(cells, values)) <= 1e-9
    assert peak < 4 * 2 ** 20


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
    # the k of each n run over 0..isqrt(n)
    assert [(row["n"], row["k"]) for row in report.rows] == [
        (n, k) for n in (16, 32) for k in range(math.isqrt(n) + 1)]


def test_voronovskaya_alpha_closed_form_gap():
    # at d = 3, alpha(n) = 1/(n+1): the gap at n_top = 496 is the lgamma
    # cancellation of ln I_{n,d}, ~4e-13
    report = run_voronovskaya_suite(3, (16, 496))
    gap = report.measured["alpha_closed_form_gap"]
    assert gap == abs(alpha_voronovskaya(496, 3) - 1.0 / 497.0) / (1.0 / 497.0)
    assert gap <= 1e-12


SELF_CHECK_N = (8, 32, 128, 496)   # the ceiling n_list


def _drift_off_the_sweep(monkeypatch, name):
    """Patch the rung evaluator `name` where the suites look it up to drift by
    1e-3 at every order (its third argument) that no sweep ladder of
    SELF_CHECK_N climbs: those are (default_order(n) + 32) 2^j."""
    sweep = {(default_order(n) + 32) << j for n in SELF_CHECK_N for j in range(9)}
    exact = getattr(vpmeans.kernel, name)

    def drifting(*args):
        return exact(*args) * (1.0 if args[2] in sweep else 1.0 + 1e-3)
    for module in (vpmeans.kernel, vpmeans.experiments):
        monkeypatch.setattr(module, name, drifting, raising=False)


def _ladder_orders(kind, n):
    """The orders of each ladder of `kind` at n in the run's ladder records."""
    return [{rec["order"] >> j for j in range(rec["evaluated"])}
            for rec in vpmeans.memo._LADDERS if (rec["kind"], rec["n"]) == (kind, n)]


@pytest.mark.parametrize("d", [3, 5])
def test_lemma_self_check_sees_a_drift_off_the_sweep(monkeypatch, d):
    # a self-check that replays the sweep's rungs cannot see this drift
    _drift_off_the_sweep(monkeypatch, "integrate_theta")
    clear_run_memos()
    assert run_lemma_suite(d, SELF_CHECK_N).measured["refinement_check"] is False
    sweep, check = _ladder_orders("neg_lambda", 496)
    assert sweep.isdisjoint(check)


@pytest.mark.parametrize("d", [3, 5])
def test_voronovskaya_self_check_sees_a_drift_off_the_sweep(monkeypatch, d):
    _drift_off_the_sweep(monkeypatch, "_alpha_at_order")
    clear_run_memos()
    assert run_voronovskaya_suite(d, SELF_CHECK_N).measured["refinement_check"] is False
    sweep, check = _ladder_orders("alpha_voronovskaya", 496)
    assert sweep.isdisjoint(check)


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
    coeffs = np.zeros(4 * 8 + 64 + 1)
    coeffs[4] = 1.0
    norm = lp_norms_batch(coeffs, 0.5, 2.0)[0]
    expect = (1.0 - multiplier_weight(8, 4, 0.5)) * norm
    assert row["e_n"] == pytest.approx(expect, rel=1e-10)


def test_delayed_max_suite_band_limited_max_at_first_degree():
    report = run_delayed_max_suite(("harmonic:4",), (2.0,), (8, 16), 3)
    assert report.passed
    for row in report.rows:
        assert row["flag"] == "TRUNCATED" and row["k_cap"] == 32
        # omega_{k,4} increases in k, so the worst degree is the smallest
        assert row["max_err"] == pytest.approx(
            (1.0 - multiplier_weight(row["n"], 4, 0.5))
            * report.rows[0]["max_err"] / (1.0 - multiplier_weight(8, 4, 0.5)),
            rel=1e-10)


@pytest.mark.parametrize("run", [run_converse_suite, run_delayed_max_suite])
def test_pooled_window_fails_constants_that_depend_on_f(run, monkeypatch):
    # numerators flat in n, at 0.1 omega for one function and 10 omega for the
    # other: each (f, p) window passes, but no C1, C2 with C2 / C1 <= RATIO_WINDOW
    # fit both functions, so the window pooled over the corpus fails the suite
    inner = vpmeans.experiments._ratio_sweep

    def sweep(corpus, functions, p_list, n_list, numerators, *args, **kw):
        def flat(f, ps):
            moduli = modulus_many(f, [n ** -0.5 for n in n_list], ps)
            return [[(0.1 if f is functions[0] else 10.0) * w for w in row] for row in moduli]
        return inner(corpus, functions, p_list, n_list, flat, *args, **kw)
    monkeypatch.setattr(vpmeans.experiments, "_ratio_sweep", sweep)
    clear_run_memos()
    report = run(SMALL_CORPUS, (2.0,), SMALL_N, 3)
    windows = report.measured["ratio_windows"]
    assert len(windows) == 2 and all(w["ratio"] == pytest.approx(1.0) for w in windows.values())
    assert report.measured["pooled_windows"]["2.0"]["ratio"] == pytest.approx(100.0)
    assert report.measured["refinement_check"]
    assert report.measured.get("chain_excess", -math.inf) <= 1e-8
    assert not report.passed


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
    # The pruned rounds put other columns into a block than the sweep does,
    # which BLAS may round differently, hence no bit equality
    n_list = sorted(n_list)
    k_cap = n_list[-1] + extra
    coeffs = np.zeros(max(support + pad, k_cap + 1) + 1)
    coeffs[:support + 1] = np.random.default_rng(seed).uniform(-1.0, 1.0, support + 1)
    coeffs[k_cap + 1] += spike
    f = ZonalSpectral(lam=(d - 2) / 2.0, coeffs=coeffs)
    pruned = _delayed_maxima(f, n_list, k_cap, (1.0, INF))
    for p, maxima in zip((1.0, INF), pruned):
        errs = lp_norms_batch(means_columns(f, range(n_list[0], k_cap + 1)), f.lam, p,
                              reference=f.coeffs)
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
    run_delayed_max_suite(SMALL_CORPUS, ps, SMALL_N, 3)
    assert calls["experiments"] == [(3, ps)] * len(SMALL_CORPUS)
    # then the refinement self-check's doubled grid, at the last p only
    assert calls["smoothness"] == [(3, ps)] * len(SMALL_CORPUS) + [(1, (INF,))]
    clear_run_memos()
    calls["smoothness"].clear()
    run_modulus_suite(SMALL_CORPUS, ps, SMALL_N, 3)
    assert calls["smoothness"] == [(3, ps)] * len(SMALL_CORPUS) + [(1, (2.0,))]


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
    f, cusp, again = prepare_corpus(["harmonic:4", "cusp:0.5", "harmonic:4"], 3, 16)
    assert f.band_limit == 4 * 16 + 64
    assert f.coeffs[4] == 1.0 and np.count_nonzero(f.coeffs) == 1
    assert f.projection_residual == 0.0
    assert again is f               # a repeated id repeats its entry
    assert cusp.projection_residual < 1e-3
    # truncation error shrinks as the band limit grows
    finer = prepare_corpus(["cusp:0.5"], 3, 112)[0]
    assert finer.band_limit == 512
    assert finer.projection_residual < cusp.projection_residual
    assert prepare_corpus(["cusp:0.5"], 3, 16)[0] is cusp
    # the same id, band limit and seed at another dimension is another function
    assert prepare_corpus(["cusp:0.5"], 5, 16)[0].lam == 1.5
    with pytest.raises(LookupError):
        prepare_corpus(["unknown:1"], 3, 16)


def test_prepare_corpus_builds_the_corpus_at_most_once(monkeypatch):
    # the missing ids come from one make_corpus call, and a call that finds
    # every id memoised builds no corpus
    built, make = [], vpmeans.experiments.make_corpus

    def counted(d, seed=42):
        built.append((d, seed))
        return make(d, seed=seed)
    monkeypatch.setattr(vpmeans.experiments, "make_corpus", counted)
    clear_run_memos()
    corpus = corpus_ids()
    first = prepare_corpus(corpus, 3, 8)
    assert built == [(3, 42)]
    assert [f.band_limit for f in first] == [corpus_band_limit(8)] * len(corpus)
    assert all(a is b for a, b in zip(first, prepare_corpus(corpus[::-1], 3, 8)[::-1]))
    assert built == [(3, 42)]
    prepare_corpus(corpus[:2], 3, 9)          # another band limit: all missing again
    assert built == [(3, 42)] * 2
    with pytest.raises(LookupError, match="unknown:1"):
        prepare_corpus(["bump", "unknown:1"], 3, 10)
    assert built == [(3, 42)] * 3
    clear_run_memos()


def test_workspace_prepare_projects_once_and_builds_nothing_when_memoised(q_streams, corpus_d3):
    # one Q_k stream at K fills the Gauss context, projects the four
    # non-band-limited members and fills the dense context and the theta-scan
    # table the sweeps read; none of them streams again
    clear_run_memos()
    corpus, scales = corpus_ids(), [n ** -0.5 for n in SMALL_N]
    first = prepare_corpus(corpus, 3, 128, p_list=(1.0, 2.0, INF), scales=scales)     # K = 576
    assert q_streams == [576]
    synthesis_context(0.5, 576, "gauss", 2 * 576 + 32)
    synthesis_context(0.5, 576, "dense", DENSE_GRID_SIZE)
    modulus_many(first[0], scales, [2.0])
    assert q_streams == [576]
    for fid, f in zip(corpus, first):
        if f.projection_residual:
            single, = zonal_project([corpus_d3[fid]], 576, 0.5)
            assert np.array_equal(f.coeffs, single.coeffs)
    q_streams.clear()
    tracemalloc.start()
    try:
        again = prepare_corpus(corpus, 3, 128, p_list=(1.0, 2.0, INF), scales=scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q_streams == [] and peak < 2 ** 20
    assert all(a is b for a, b in zip(first, again))
    clear_run_memos()


def test_cold_converse_suite_streams_its_tables_once(q_streams):
    # one stream at K for the run's tables, one for the doubled theta grid of
    # the self-check, which streams alone
    clear_run_memos()
    report = run_converse_suite(list(SMALL_CORPUS), [1.0, 2.0, INF], list(SMALL_N), 3)
    band_limit = corpus_band_limit(max(SMALL_N))
    assert report.measured["refinement_check"]
    assert [k for k in q_streams if k == band_limit] == [band_limit] * 2
    clear_run_memos()


def test_cold_shared_build_holds_its_tables_and_one_row_block_per_part():
    # at K = 2048 one stream fills both contexts and the theta-scan table, and
    # two profiles are projected on the Gauss context by parity: the stream's
    # one block holds 64 rows on the nodes of every part, the projection no
    # block of its own, and the rest are vectors on some 4,000 nodes; a
    # transposed copy of a context's half table adds 16.5 MiB
    scales = [n ** -0.5 for n in (8, 32, 128, 496)]
    clear_run_memos()
    make_corpus(3)
    tracemalloc.start()
    try:
        prepare_corpus(["cusp:0.5", "bump"], 3, 496, p_list=(1.0, 2.0, INF), scales=scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stats = run_memo_stats()
    kept = sum(stats[name]["bytes"] for name in ("synthesis_context", "theta_scan",
                                                 "corpus_spectral"))
    gauss, scan = 2 * 2048 + 32, 4 * THETA_GRID_SIZE
    row_block = BLOCK_COLUMNS * 8 * (gauss // 2 + DENSE_GRID_SIZE // 2 + scan)
    assert stats["theta_scan"]["entries"] == 1 and stats["synthesis_context"]["entries"] == 2
    assert peak <= kept + row_block + 2 ** 20
    clear_run_memos()


def test_report_determinism_in_memory():
    a = run_multiplier_identity_suite(3, 5)
    b = run_multiplier_identity_suite(3, 5)
    assert a.csv_body() == b.csv_body()

