import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vpmeans.experiments
import vpmeans.kernel
from vpmeans import quadrature
from vpmeans.experiments import (run_delayed_max_suite, run_selftest_suite,
                                 run_voronovskaya_suite)
from vpmeans.kernel import (ConvergenceError, alpha_voronovskaya,
                            default_order, kernel_norm_constant, ladder_order,
                            lemma_integral, multiplier_sequence,
                            multiplier_via_quadrature, multiplier_weight,
                            vpm_kernel_eval)
from vpmeans.function_space import ZonalSpectral
from vpmeans.memo import RUN_RECORDS, clear_run_memos
from vpmeans.operators import means_columns
from vpmeans.quadrature import integrate_theta
from vpmeans.special import q_table


def test_norm_constant_degree_zero():
    # v_0 is constant, so I_{0,3} equals int_0^pi sin = 2
    assert math.exp(kernel_norm_constant(0, 3)) == pytest.approx(2.0, rel=1e-14)


def test_norm_constant_d3_closed_form():
    for n in (0, 1, 2, 5, 17, 100, 512):
        assert math.exp(kernel_norm_constant(n, 3)) == pytest.approx(2.0 / (n + 1), rel=1e-12)


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, 7, 40])
def test_norm_constant_matches_quadrature(d, n):
    lam = (d - 2) / 2.0
    direct = integrate_theta(lambda t: (0.5 + 0.5 * np.cos(t)) ** n, lam, default_order(n))
    assert math.exp(kernel_norm_constant(n, d)) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_norm_constant_asymptotic_window(d):
    vals = [math.exp(kernel_norm_constant(n, d)) * n ** ((d - 1) / 2.0)
            for n in (16, 64, 256, 1024)]
    assert max(vals) / min(vals) <= 2.0


def test_kernel_eval_endpoints():
    peak = math.exp(-kernel_norm_constant(6, 3))
    assert vpm_kernel_eval(6, 3, 0.0) == pytest.approx(peak, rel=1e-14)
    assert vpm_kernel_eval(6, 3, np.pi) == 0.0
    flat = math.exp(-kernel_norm_constant(0, 4))
    assert vpm_kernel_eval(0, 4, np.pi) == pytest.approx(flat, rel=1e-14)


def test_kernel_eval_domain():
    with pytest.raises(ValueError):
        vpm_kernel_eval(3, 3, -0.1)
    with pytest.raises(ValueError):
        vpm_kernel_eval(3, 3, 3.5)
    for theta in (math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match=r"\[0, pi\]"):
            vpm_kernel_eval(8, 3, theta)


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("n", [1, 16, 128])
def test_kernel_normalization(d, n):
    val = integrate_theta(lambda t: vpm_kernel_eval(n, d, t), (d - 2) / 2.0, default_order(n))
    assert abs(val - 1.0) <= 1e-10


def test_multiplier_weight_values():
    assert multiplier_weight(7, 0, 1.0) == 1.0
    # n=2, lam=1/2: omega_{2,1} = n/(n+2 lam+1) = 2/4
    assert multiplier_weight(2, 1, 0.5) == pytest.approx(0.5, rel=1e-13)
    # 5! 6! / (3! 8!) = 5/14, by hand
    assert multiplier_weight(5, 2, 0.5) == pytest.approx(5.0 / 14.0, rel=1e-13)
    assert multiplier_weight(5, 6, 0.5) == 0.0
    assert multiplier_weight(5, 60, 1.5) == 0.0


def test_multiplier_weight_first_gap():
    # 1 - omega_{n,1} = (2 lam + 1)/(n + 2 lam + 1) exactly
    for lam in (0.5, 1.0, 1.5):
        for n in (1, 4, 33, 257):
            gap = 1.0 - multiplier_weight(n, 1, lam)
            assert gap == pytest.approx((2 * lam + 1) / (n + 2 * lam + 1), rel=1e-12)


def test_multiplier_monotonicity():
    for lam in (0.5, 1.5):
        for n in (3, 16, 64):
            seq = multiplier_sequence(n, lam, n)
            assert np.all(np.diff(seq) < 0)
    # increasing in n for fixed k <= n
    for k in (1, 3, 7):
        vals = [multiplier_weight(n, k, 1.0) for n in (8, 16, 32, 64)]
        assert np.all(np.diff(vals) > 0)


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(0, 300), d=st.integers(3, 12), k_max=st.integers(0, 400))
def test_multiplier_sequence_in_unit_interval_nonincreasing(n, d, k_max):
    seq = multiplier_sequence(n, (d - 2) / 2.0, k_max)
    assert np.all((seq >= 0.0) & (seq <= 1.0))
    assert np.all(np.diff(seq) <= 0.0)


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.5, 3.7])
def test_multiplier_sequence_equals_scalar_closed_form(lam):
    # the table-driven, memoised prefix and the zero tail reproduce the scalar
    # closed form bit for bit, below, at and beyond n, on a miss and on a hit
    clear_run_memos()
    for n in (0, 1, 9, 64, 255, 496, 1000, 2047):
        for k_max in (max(n - 3, 0), n, min(n + 7, 2048)):
            expect = [multiplier_weight(n, k, lam) for k in range(k_max + 1)]
            for _ in range(2):
                assert np.array_equal(multiplier_sequence(n, lam, k_max), expect)


def test_multiplier_sequence_prefix_costs_its_own_length():
    # the prefix evaluates the 2 (k_max + 1) lgamma values it reads, so a short
    # prefix at a huge degree neither scans nor stores anything of size n
    n, lam, k_max = 4_000_000, 0.5, 10
    clear_run_memos()
    tracemalloc.start()
    try:
        got = multiplier_sequence(n, lam, k_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_run_memos()
    assert np.array_equal(got, [multiplier_weight(n, k, lam) for k in range(k_max + 1)])
    assert peak < 1 << 16


@pytest.mark.parametrize("n, k_max", [(-1, 4), (4, -1)])
def test_multiplier_sequence_rejects_negative_arguments(n, k_max):
    with pytest.raises(ValueError, match="requires n >= 0 and k_max >= 0"):
        multiplier_sequence(n, 0.5, k_max)


def test_multiplier_sequence_returns_fresh_arrays():
    first = multiplier_sequence(12, 0.5, 20)
    expect = first.copy()
    first[:] = -1.0
    assert np.array_equal(multiplier_sequence(12, 0.5, 20), expect)


def test_multiplier_sequence_weight_traffic():
    # each distinct degree builds its k <= n prefix once, however many
    # (function, p) pairs of the suite ask for it
    clear_run_memos()
    n_list = (4, 12)
    run_delayed_max_suite(("bump", "randband:seed42"), (2.0, float("inf")), n_list, 3)
    prefixes = vpmeans.kernel._PREFIXES
    built = sorted(n for n, _, _ in prefixes._values)
    assert built == list(range(min(n_list), 2 * max(n_list) + 1))     # the cap, 24
    assert prefixes.misses == len(built) and prefixes.hits > 0
    clear_run_memos()


def test_means_columns_prefixes_share_one_lgamma_window(monkeypatch):
    # the missing prefixes of a batch of degrees read one window of lgamma
    # values, lgamma(m + 1.0) for m <= 69 and lgamma((m + 2 lam) + 1.0) for
    # 40 <= m <= 69 + 69, not one window per degree; the weights keep their bits
    args = []
    patched = SimpleNamespace(**vars(math))
    patched.lgamma = lambda x: args.append(x) or math.lgamma(x)
    monkeypatch.setattr(vpmeans.kernel, "math", patched)
    clear_run_memos()
    f = ZonalSpectral(lam=0.5, coeffs=np.linspace(1.0, 2.0, 101))
    cols = means_columns(f, range(40, 70))
    assert len(args) == 70 + 99
    for j, n in enumerate(range(40, 70)):
        weights = [multiplier_weight(n, k, 0.5) for k in range(101)]
        assert np.array_equal(cols[:, j], f.coeffs * weights)
    clear_run_memos()


def test_multiplier_via_quadrature_values():
    assert multiplier_via_quadrature(9, 0, 4) == pytest.approx(1.0, abs=1e-12)
    assert multiplier_via_quadrature(2, 1, 3) == pytest.approx(0.5, abs=1e-10)
    assert abs(multiplier_via_quadrature(5, 7, 3)) <= 1e-10


@pytest.mark.parametrize("d", [3, 4, 5])
def test_multiplier_integrals_equal_per_cell_integrate_theta(monkeypatch, d):
    # cells of default orders 40 + 200 share one Q table (up to _TABLE_NODES =
    # 512 nodes), 300 would overflow it and starts the next, 600 takes one
    # alone; the 130 cells of order 300 fill more than one matrix block.  The
    # cells come interleaved, and their values come back in the order given
    lam = (d - 2) / 2.0
    tables = []
    inner = vpmeans.kernel.q_table

    def counted(k_max, lam, theta):
        tables.append(len(theta))
        return inner(k_max, lam, theta)
    monkeypatch.setattr(vpmeans.kernel, "q_table", counted)
    by_order = [[(3, 5), (8, 0)], [(160, 8), (84, 84), (168, 0)],
                [(268 - k, k) for k in range(130)], [(560, 8), (500, 68)]]
    cells = [cell for group in by_order for cell in group]
    cells = [cells[i] for i in np.random.default_rng(0).permutation(len(cells))]
    orders = [default_order(n, k) for n, k in cells]
    assert sorted(set(orders)) == [40, 200, 300, 600] and orders != sorted(orders)
    assert 130 > vpmeans.kernel._BLOCK_CELLS // 300
    got = vpmeans.kernel._multiplier_integrals(cells, d)
    assert tables == [240, 300, 600]
    expect = [integrate_theta(lambda t: vpm_kernel_eval(n, d, t) * q_table(k, lam, t)[:, k],
                              lam, default_order(n, k))
              for n, k in cells]
    assert got == expect


def test_multiplier_integrals_build_their_rules_in_one_batch(monkeypatch):
    # the multiplier suite's 2405 cells at n_max = 64 read 133 Gauss orders
    # (32-164): a cold oracle builds them all in one lock-step Newton batch
    batches = []
    newton = quadrature._newton_x_rules

    def counted(orders):
        batches.append(sorted(orders))
        return newton(orders)
    monkeypatch.setattr(quadrature, "_newton_x_rules", counted)
    monkeypatch.setattr(quadrature, "_RULE_CACHE", {})
    cells = [(n, k) for n in range(65) for k in range(n + 5)]
    values = vpmeans.kernel._multiplier_integrals(cells, 3)
    assert len(values) == 2405
    assert batches == [list(range(32, 165))]


@pytest.mark.parametrize("d", [3, 4, 5])
def test_multiplier_oracle_equivalence(d):
    lam = (d - 2) / 2.0
    for n in range(13):
        for k in range(n + 5):
            closed = multiplier_weight(n, k, lam)
            quad = multiplier_via_quadrature(n, k, d)
            assert abs(closed - quad) <= 1e-9


def test_alpha_positive_and_d3_closed_form():
    # at d = 3 the triple integral collapses: the inner double integral is
    # -2 ln cos(theta/2), and substituting u = cos^2(theta/2) reduces alpha
    # to -(n+1) int_0^1 u^n ln u du = 1/(n+1)
    for n in (4, 16, 64):
        a = alpha_voronovskaya(n, 3)
        assert a > 0
        assert a * (n + 1) == pytest.approx(1.0, rel=1e-8)


def test_alpha_tends_to_inverse_degree_d4():
    a32 = alpha_voronovskaya(32, 4)
    a128 = alpha_voronovskaya(128, 4)
    assert abs(128 * a128 - 1.0) < abs(32 * a32 - 1.0)
    assert 0.5 <= 32 * a32 <= 2.0


def test_alpha_domain():
    with pytest.raises(ValueError):
        alpha_voronovskaya(0, 3)


LADDER_N = (4, 8, 16, 32, 64, 128, 256, 496)   # the default and ceiling n_list


@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_alpha_panel_route_matches_nested_oracle(d):
    clear_run_memos()
    for n in LADDER_N:
        alpha_voronovskaya(n, d, rtol=1e-11)
    # every rung of every ladder: the last order of each, halved
    rungs = [(rec["n"], rec["order"] >> j)
             for rec in RUN_RECORDS["refinements"] for j in range(rec["evaluated"])]
    assert {n for n, _ in rungs} == set(LADDER_N) and len(rungs) >= 2 * len(LADDER_N)
    for n, order in rungs:
        value = vpmeans.kernel._alpha_at_order(n, d, order)
        nested = vpmeans.kernel._alpha_nested(n, d, order)
        assert abs(value - nested) <= 1e-14 * nested


@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_alpha_matches_harmonic_closed_form(d):
    # alpha(n) = (H_{n+d-2} - H_n) / (d - 2), the derivative of the multiplier
    # in k(k + d - 2) at k = 0
    for n in LADDER_N:
        closed = math.fsum(1.0 / (n + j) for j in range(1, d - 1)) / (d - 2)
        assert abs(alpha_voronovskaya(n, d) - closed) <= 1e-12 * closed


def test_alpha_is_finite_up_to_d_max_at_the_band_budget_top_degree():
    # D_MAX sits at the edge: at n = 496 the voronovskaya sweep's alpha and its
    # self-check ladder run warning-free at d = 40 and overflow sin^-m at d = 41
    n, d, check = 496, vpmeans.experiments.D_MAX, 3 * ladder_order(496) // 2
    closed = math.fsum(1.0 / (n + j) for j in range(1, d - 1)) / (d - 2)
    for order, rtol in ((None, 1e-9), (check, 1e-11)):
        assert abs(alpha_voronovskaya(n, d, order=order, rtol=rtol) - closed) <= 1e-12 * closed
    with pytest.warns(RuntimeWarning) as caught, pytest.raises(ConvergenceError):
        alpha_voronovskaya(n, d + 1, order=check, rtol=1e-11)
    assert "overflow encountered in power" in str(caught[0].message)


def test_alpha_rung_working_set_does_not_grow_with_order():
    vpmeans.kernel._alpha_at_order(496, 5, 1120)   # builds and caches the rules
    tracemalloc.start()
    try:
        vpmeans.kernel._alpha_at_order(496, 5, 1120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_selftest_alpha_cell_reads_only_nested_rungs():
    # the voronovskaya sweep climbs panel rungs at the orders the selftest's
    # nested ladder visits; the selftest cell is the nested ladder all the same
    clear_run_memos()
    fresh = vpmeans.experiments._refine(
        lambda o: vpmeans.kernel._alpha_nested(32, 3, o), ladder_order(32), 1e-9,
        32, 3, "alpha_nested")
    run_voronovskaya_suite(3, (32,))
    report = run_selftest_suite()
    cell = next(row for row in report.rows if row["check"] == "alpha_closed_form_d3")
    assert cell["value"] == abs(fresh * 33.0 - 1.0)
    assert report.measured["alpha_route_gap"] == abs(alpha_voronovskaya(32, 3) - fresh) / fresh


def test_refinement_without_budget_raises(monkeypatch):
    # one iterate cannot show convergence
    monkeypatch.setattr(vpmeans.kernel, "MAX_REFINEMENTS", 0)
    with pytest.raises(ConvergenceError) as info:
        alpha_voronovskaya(8, 3)
    err = info.value
    assert (err.n, err.d, err.kind, err.order) == (8, 3, "alpha_voronovskaya", 72)
    assert err.previous is None and err.last == pytest.approx(1.0 / 9.0, rel=1e-12)
    with pytest.raises(ConvergenceError) as info:
        lemma_integral(8, 5, -1.5)
    assert (info.value.kind, info.value.previous) == ("lemma_integral", None)


def test_refinement_budget_exhausted_raises(monkeypatch):
    # successive iterates differ by a few ulp (alpha) and by ~5e-9 relative
    # (the d = 5 inverse moment), so a tighter rtol exhausts one doubling
    assert vpmeans.kernel.MAX_REFINEMENTS == 8
    monkeypatch.setattr(vpmeans.kernel, "MAX_REFINEMENTS", 1)
    with pytest.raises(ConvergenceError) as info:
        alpha_voronovskaya(8, 3, rtol=1e-17)
    err = info.value
    assert (err.n, err.d, err.order) == (8, 3, 144)
    assert err.previous != err.last
    assert isinstance(err, ArithmeticError)
    with pytest.raises(ConvergenceError) as info:
        lemma_integral(8, 5, -1.5, rtol=1e-12)
    err = info.value
    assert (err.n, err.d, err.kind, err.order) == (8, 5, "lemma_integral", 144)
    assert abs(err.last - err.previous) > 1e-12 * abs(err.last)
    # the same call converges within the full budget
    monkeypatch.undo()
    assert lemma_integral(8, 5, -1.5, rtol=1e-12) == pytest.approx(err.last, rel=1e-8)


def test_alpha_ladder_starts_at_the_given_order(monkeypatch):
    # the Voronovskaya self-check starts its ladder off the sweep's orders
    orders, exact = [], vpmeans.kernel._alpha_at_order

    def recorded(n, d, order):
        orders.append(order)
        return exact(n, d, order)
    monkeypatch.setattr(vpmeans.kernel, "_alpha_at_order", recorded)
    clear_run_memos()
    for start, first in ((None, 16 + 64), (75, 75)):
        orders.clear()
        alpha = alpha_voronovskaya(16, 3, order=start)
        assert orders == [first << j for j in range(len(orders))] and len(orders) >= 2
        assert RUN_RECORDS["refinements"][-1]["order"] == orders[-1]
        assert abs(17 * alpha - 1.0) <= 1e-9
    clear_run_memos()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_refinement_ends_at_the_first_non_finite_rung(monkeypatch, value):
    orders = []

    def broken(n, d, order):
        orders.append(order)
        return value
    monkeypatch.setattr(vpmeans.kernel, "_alpha_at_order", broken)
    clear_run_memos()
    with pytest.raises(ConvergenceError, match="not finite") as info:
        alpha_voronovskaya(8, 4)
    err = info.value
    assert orders == [ladder_order(8)]
    assert (err.kind, err.n, err.d, err.order, err.previous) == (
        "alpha_voronovskaya", 8, 4, orders[0], None)
    log = RUN_RECORDS["refinements"]
    assert len(log) == 1 and not log[0]["converged"] and log[0]["evaluated"] == 1
    clear_run_memos()


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_refinement_ends_at_a_non_finite_rung_after_a_finite_one(monkeypatch, value):
    # an inf rung is not converged, though |inf - x| <= rtol * inf holds
    orders = []

    def broken(o):
        orders.append(o)
        return 1.0 if len(orders) == 1 else value
    clear_run_memos()
    with pytest.raises(ConvergenceError, match="not finite") as info:
        vpmeans.kernel._refine(broken, 40, 1e-9, 3, 5, "lemma_integral", 4.0)
    assert orders == [40, 80]
    assert (info.value.order, info.value.previous) == (80, 1.0)
    last = RUN_RECORDS["refinements"][-1]
    assert (last["converged"], last["evaluated"]) == (False, 2)
    clear_run_memos()


def test_lemma_integral_exponents_and_domain():
    # theta^s sin^(2 lam) theta is integrable at 0 for s > -(2 lam + 1) only;
    # the lemma suite's exponents -lam, -2/7 and 4 give these values exactly
    expect = {3: (1.5060709568739599, 1.2444133602019258, 0.35399453482604937),
              5: (1.8953035066713864, 1.0922472866702122, 0.7715219554277436)}
    for d, values in expect.items():
        lam = (d - 2) / 2.0
        for s in (-(2.0 * lam + 1.0), -(2.0 * lam + 1.5), -math.inf, math.nan):
            with pytest.raises(ValueError, match="requires s > -"):
                lemma_integral(8, d, s)
        assert tuple(lemma_integral(8, d, s) for s in (-lam, -2.0 / 7, 4.0)) == values
    with pytest.raises(ValueError, match="requires n >= 1"):
        lemma_integral(0, 3, 4.0)


def test_fourth_moment_stabilizes_near_32_at_d3():
    # Gaussian surrogate e^{-n theta^2 / 4} gives n^2 J_4 -> 32; quadrature at
    # increasing n must approach it monotonically from below
    vals = {n: n ** 2 * lemma_integral(n, 3, 4.0) for n in (256, 512, 1024)}
    assert abs(vals[1024] - 32.0) / 32.0 < 0.15
    assert abs(vals[1024] - 32.0) < abs(vals[512] - 32.0) < abs(vals[256] - 32.0)


def test_inverse_moment_scalings():
    for d in (3, 4):
        lam = (d - 2) / 2.0
        neg = [n ** (-lam / 2.0) * lemma_integral(n, d, -lam) for n in (32, 128, 512)]
        assert max(neg) / min(neg) <= 2.0
        m7 = [n ** (-1.0 / 7.0) * lemma_integral(n, d, -2.0 / 7) for n in (32, 128, 512)]
        assert max(m7) / min(m7) <= 2.0


def test_higher_dimension_pathway():
    # the zonal machinery is not tied to d <= 5
    d = 7
    lam = 2.5
    val = integrate_theta(lambda t: vpm_kernel_eval(12, d, t), lam, default_order(12))
    assert abs(val - 1.0) <= 1e-10
    for k in (0, 1, 3, 14):
        closed = multiplier_weight(12, k, lam)
        quad = multiplier_via_quadrature(12, k, d)
        assert abs(closed - quad) <= 1e-9
    a = alpha_voronovskaya(24, d)
    assert 0.5 <= 24 * a <= 2.0
