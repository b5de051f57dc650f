import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vpmeans.kernel
from vpmeans.experiments import run_delayed_max_suite
from vpmeans.kernel import (ConvergenceError, alpha_voronovskaya,
                            default_order, kernel_norm_constant, kernel_spec,
                            lemma_integral, multiplier_sequence,
                            multiplier_via_quadrature, multiplier_weight,
                            vpm_kernel_eval)
from vpmeans.memo import clear_run_memos
from vpmeans.quadrature import integrate_theta


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
    spec = kernel_spec(6, 3)
    assert vpm_kernel_eval(spec, 0.0) == pytest.approx(math.exp(-spec.log_norm), rel=1e-14)
    assert vpm_kernel_eval(spec, np.pi) == 0.0
    flat = kernel_spec(0, 4)
    assert vpm_kernel_eval(flat, np.pi) == pytest.approx(math.exp(-flat.log_norm), rel=1e-14)


def test_kernel_eval_domain():
    spec = kernel_spec(3, 3)
    with pytest.raises(ValueError):
        vpm_kernel_eval(spec, -0.1)
    with pytest.raises(ValueError):
        vpm_kernel_eval(spec, 3.5)


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("n", [1, 16, 128])
def test_kernel_normalization(d, n):
    spec = kernel_spec(n, d)
    val = integrate_theta(lambda t: vpm_kernel_eval(spec, t), spec.lam, default_order(n))
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


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
def test_multiplier_sequence_equals_scalar_closed_form(lam):
    # the memoised prefix and the zero tail reproduce the scalar closed form
    # bit for bit, below, at and beyond n, on a miss and on a hit
    clear_run_memos()
    for n in (0, 1, 9, 64):
        for k_max in (max(n - 3, 0), n, n + 7):
            expect = [multiplier_weight(n, k, lam) for k in range(k_max + 1)]
            for _ in range(2):
                assert np.array_equal(multiplier_sequence(n, lam, k_max), expect)


def test_multiplier_sequence_returns_fresh_arrays():
    first = multiplier_sequence(12, 0.5, 20)
    expect = first.copy()
    first[:] = -1.0
    assert np.array_equal(multiplier_sequence(12, 0.5, 20), expect)


def test_multiplier_sequence_weight_traffic(monkeypatch):
    # each distinct degree evaluates its k <= n prefix once, however many
    # (function, p) pairs of the suite ask for it
    calls = []
    scalar = vpmeans.kernel.multiplier_weight

    def counted(n, k, lam):
        calls.append(n)
        return scalar(n, k, lam)

    monkeypatch.setattr(vpmeans.kernel, "multiplier_weight", counted)
    clear_run_memos()
    n_list, k_cap = (4, 8), 24
    run_delayed_max_suite(("bump", "randband:seed42"), (2.0, float("inf")), n_list, k_cap, 3)
    degrees = set(calls)
    assert degrees == set(range(min(n_list), k_cap + 1))
    assert len(calls) <= sum(n + 1 for n in degrees)


def test_multiplier_via_quadrature_values():
    assert multiplier_via_quadrature(9, 0, 4) == pytest.approx(1.0, abs=1e-12)
    assert multiplier_via_quadrature(2, 1, 3) == pytest.approx(0.5, abs=1e-10)
    assert abs(multiplier_via_quadrature(5, 7, 3)) <= 1e-10


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


def test_refinement_without_budget_raises():
    # one iterate cannot show convergence
    with pytest.raises(ConvergenceError) as info:
        alpha_voronovskaya(8, 3, max_refinements=0)
    err = info.value
    assert (err.n, err.d, err.kind, err.order) == (8, 3, "alpha_voronovskaya", 72)
    assert err.previous is None and err.last == pytest.approx(1.0 / 9.0, rel=1e-12)
    with pytest.raises(ConvergenceError) as info:
        lemma_integral(8, 5, "neg_lambda", max_refinements=0)
    assert (info.value.kind, info.value.previous) == ("neg_lambda", None)


def test_refinement_budget_exhausted_raises():
    # successive iterates differ by a few ulp (alpha) and by ~5e-9 relative
    # (the d = 5 inverse moment), so a tighter rtol exhausts one doubling
    with pytest.raises(ConvergenceError) as info:
        alpha_voronovskaya(8, 3, rtol=1e-17, max_refinements=1)
    err = info.value
    assert (err.n, err.d, err.order) == (8, 3, 144)
    assert err.previous != err.last
    assert isinstance(err, ArithmeticError)
    with pytest.raises(ConvergenceError) as info:
        lemma_integral(8, 5, "neg_lambda", rtol=1e-12, max_refinements=1)
    err = info.value
    assert (err.n, err.d, err.kind, err.order) == (8, 5, "neg_lambda", 144)
    assert abs(err.last - err.previous) > 1e-12 * abs(err.last)
    # the same call converges within the default budget
    assert lemma_integral(8, 5, "neg_lambda", rtol=1e-12) == pytest.approx(err.last, rel=1e-8)


def test_lemma_integral_kinds_and_errors():
    with pytest.raises(ValueError):
        lemma_integral(8, 3, "sixth_moment")
    with pytest.raises(ValueError):
        lemma_integral(8, 3, "neg_two_over_m")
    assert lemma_integral(8, 3, "neg_two_over_m", m=7) > 0
    assert lemma_integral(8, 3, "neg_lambda") > 0
    assert lemma_integral(8, 3, "fourth_moment") > 0


def test_fourth_moment_stabilizes_near_32_at_d3():
    # Gaussian surrogate e^{-n theta^2 / 4} gives n^2 J_4 -> 32; quadrature at
    # increasing n must approach it monotonically from below
    vals = {n: n ** 2 * lemma_integral(n, 3, "fourth_moment") for n in (256, 512, 1024)}
    assert abs(vals[1024] - 32.0) / 32.0 < 0.15
    assert abs(vals[1024] - 32.0) < abs(vals[512] - 32.0) < abs(vals[256] - 32.0)


def test_inverse_moment_scalings():
    for d in (3, 4):
        lam = (d - 2) / 2.0
        neg = [n ** (-lam / 2.0) * lemma_integral(n, d, "neg_lambda") for n in (32, 128, 512)]
        assert max(neg) / min(neg) <= 2.0
        m7 = [n ** (-1.0 / 7.0) * lemma_integral(n, d, "neg_two_over_m", m=7)
              for n in (32, 128, 512)]
        assert max(m7) / min(m7) <= 2.0


def test_higher_dimension_pathway():
    # the zonal machinery is not tied to d <= 5
    d = 7
    lam = 2.5
    spec = kernel_spec(12, d)
    val = integrate_theta(lambda t: vpm_kernel_eval(spec, t), lam, default_order(12))
    assert abs(val - 1.0) <= 1e-10
    for k in (0, 1, 3, 14):
        closed = multiplier_weight(12, k, lam)
        quad = multiplier_via_quadrature(12, k, d)
        assert abs(closed - quad) <= 1e-9
    a = alpha_voronovskaya(24, d)
    assert 0.5 <= 24 * a <= 2.0
