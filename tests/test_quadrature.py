import random
from collections import deque

import numpy as np
import pytest

from vpmeans import quadrature
from vpmeans.experiments import run_multiplier_identity_suite, run_selftest_suite
from vpmeans.memo import clear_run_memos
from vpmeans.quadrature import (_J0_ZEROS, _NEWTON_X_MAX_ORDER, ConvergenceError,
                                gauss_legendre, gauss_legendre_many, integrate_theta,
                                mapped_rule, sphere_grid)
from vpmeans.special import _gegenbauer_steps, q_table

# the Newton-in-x rule at and just past the switch, both parities, and the
# orders the refinement ladders and the synthesis grids build
ORACLE_ORDERS = [192, 193, 256, 257, 1121, 2208, 4480]
EPS = np.finfo(float).eps


def _legendre_and_derivative(n, x):
    """P_n(x) and P_n'(x) for interior |x| < 1, from the Gegenbauer recurrence
    at lam = 1/2 (n >= 1)."""
    p_prev, p = deque(_gegenbauer_steps(n, 0.5, x), maxlen=2)
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _legendre_theta_edge_recurrence(n, theta):
    """P_n(cos theta) and dP_n/dtheta by the recurrence, the edge route the
    rules above order 192 took before the cosine series.  It runs at the
    rounded x, i.e. at theta_x = arccos(x); a Taylor step with Legendre's
    equation P_tt = -cot(theta) P_t - n(n+1) P carries both values back to theta."""
    x = np.cos(theta)
    theta_x = np.arccos(x)
    p_prev, p = deque(_gegenbauer_steps(n, 0.5, x), maxlen=2)
    dp = n * (x * p - p_prev) / np.sin(theta_x)
    h = theta - theta_x
    return p + dp * h, dp - (dp / np.tan(theta_x) + n * (n + 1.0) * p) * h


def _newton_x_rule(order):
    """The Newton-in-x rule of one order, built alone: the oracle of the
    lock-step batch.  Newton from cos(pi (i - 1/4)/(order + 1/2)) until
    max |P_n| < 1e-15 or max |dx| < 1e-16, one more step, then weights
    2/((1-x^2) P_n'^2), symmetrized under x -> -x and sorted."""
    x = np.cos(np.pi * (np.arange(1, order + 1) - 0.25) / (order + 0.5))
    for _ in range(quadrature._NEWTON_BUDGET):
        p, dp = _legendre_and_derivative(order, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(p)) < 1e-15 or np.max(np.abs(dx)) < 1e-16:
            break
    else:
        raise AssertionError(f"the oracle did not converge at order {order}")
    p, dp = _legendre_and_derivative(order, x)
    x -= p / dp
    _, dp = _legendre_and_derivative(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    idx = np.argsort(x)
    return x[idx], w[idx]


def test_order_one_rule():
    rule = gauss_legendre(1)
    assert rule.nodes == pytest.approx([0.0], abs=1e-16)
    assert rule.weights == pytest.approx([2.0], rel=1e-15)


def test_order_two_rule():
    # solving exactness on 1, x, x^2, x^3 by hand gives nodes +-1/sqrt(3)
    rule = gauss_legendre(2)
    assert rule.nodes == pytest.approx([-0.5773502691896257, 0.5773502691896257], abs=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], rel=1e-14)
    assert float(np.dot(rule.weights, rule.nodes ** 2)) == pytest.approx(2.0 / 3.0, rel=1e-15)


@pytest.mark.parametrize("order", range(1, 11))
def test_monomial_exactness(order):
    rule = gauss_legendre(order)
    for j in range(2 * order):
        val = float(np.dot(rule.weights, rule.nodes ** j))
        exact = 0.0 if j % 2 else 2.0 / (j + 1)
        assert val == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("order", [3, 16, 64, 257])
def test_rule_matches_numpy(order):
    rule = gauss_legendre(order)
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    assert np.max(np.abs(rule.nodes - ref_x)) < 1e-13
    assert np.max(np.abs(rule.weights - ref_w)) < 1e-13


def test_legendre_bit_identical_to_loop():
    # the Legendre loop the Gauss rules ran before sharing the Gegenbauer
    # recurrence at lam = 1/2; the rules must not move by a single ulp
    x = np.linspace(-0.99, 0.99, 57)
    for n in (1, 2, 7, 64, 257):
        p_prev, p = np.ones_like(x), x.copy()
        for j in range(2, n + 1):
            p, p_prev = ((2.0 * j - 1.0) * x * p - (j - 1.0) * p_prev) / j, p
        got_p, got_dp = _legendre_and_derivative(n, x)
        assert np.array_equal(got_p, p)
        assert np.array_equal(got_dp, n * (x * p - p_prev) / (x * x - 1.0))


def test_rule_invariants():
    for order in [1, 2, 7, 40] + ORACLE_ORDERS:
        rule = gauss_legendre(order)
        assert rule.order == order
        assert len(rule.nodes) == len(rule.weights) == order
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert abs(float(rule.weights.sum()) - 2.0) <= 1e-14
        # bitwise mirror symmetry; the middle node of an odd order is exactly 0
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])
        if order % 2:
            assert rule.nodes[order // 2] == 0.0
        for j in range(min(60, 2 * order)):
            exact = 0.0 if j % 2 else 2.0 / (j + 1)
            assert abs(float(np.dot(rule.weights, rule.nodes ** j)) - exact) <= 1e-14


def _longdouble_weights(order, x):
    """Weights at the nodes `x` from Newton in x at np.longdouble: a reference
    with 11 more bits for the weights next to x = +-1."""
    x = np.asarray(x, dtype=np.longdouble)
    for _ in range(2):
        p, dp = _legendre_and_derivative(order, x)
        x = x - p / dp
    _, dp = _legendre_and_derivative(order, x)
    return (2 / ((1 - x) * (1 + x) * dp * dp)).astype(float)


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_rule_matches_newton_oracle(order):
    rule = gauss_legendre(order)
    x, w = _newton_x_rule(order)
    assert np.max(np.abs(rule.nodes - x)) <= 4.5e-16
    # Next to x = +-1 the Newton weights carry the rounding of x and lose up
    # to ~0.04 n eps / (1 - x^2) relative (measured at orders 1121-4480);
    # elsewhere the rules agree to 1e-13.
    slack = EPS / (1.0 - x * x)
    assert np.all(np.abs(rule.weights / w - 1.0) <= 1e-13 + 0.1 * order * slack)
    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("np.longdouble has no extended precision here")
    # the 64 outermost weights (the rule is mirror symmetric), where the
    # double-precision oracle is weakest, to eps / (1 - x^2) of the reference
    edge = slice(0, 64)
    ref = _longdouble_weights(order, rule.nodes[edge])
    assert np.all(np.abs(rule.weights[edge] / ref - 1.0) <= 1e-13 + slack[edge])
    # the outermost weight of the rules in theta, where the rounding of x costs
    # the Newton weights most (1.9e-10 at order 4480), to 1e-13 plus the
    # reference's own rounding of x, eps_ld / (1 - x^2) (it is 1.3e-13 off
    # mpmath at order 4480); order 192 is held by the edge bound above
    if order > _NEWTON_X_MAX_ORDER:
        ld_slack = np.finfo(np.longdouble).eps / (1.0 - x[0] * x[0])
        assert abs(rule.weights[0] / ref[0] - 1.0) <= 1e-13 + ld_slack


@pytest.mark.parametrize("n", [193, 257, 1088, 4480])
def test_edge_cosine_series_matches_recurrence_oracle(n):
    # the edge region (n + 1/2) theta <= 30 of the nine outermost nodes; the
    # recurrence loses ~n eps in P_n and ~n^2 eps in dP_n/dtheta (measured
    # <= 8.5 n eps and <= 23 n^2 eps at these orders)
    theta = np.linspace(0.5, 30.0, 60) / (n + 0.5)
    p, dp = quadrature._legendre_theta_edge(n, theta)
    p_ref, dp_ref = _legendre_theta_edge_recurrence(n, theta)
    assert np.all(np.abs(p - p_ref) <= 32 * n * EPS)
    assert np.all(np.abs(dp - dp_ref) <= 64 * n * n * EPS)


def _mp_weight(n, x):
    """The Gauss weight 2/((1-x^2) P_n'(x)^2) at the zero of P_n next to the
    float `x`, by two Newton steps on the recurrence at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        for _ in range(2):
            p_prev, p = mpmath.mpf(1), x
            for j in range(1, n):
                p, p_prev = ((2 * j + 1) * x * p - j * p_prev) / (j + 1), p
            dp = n * (x * p - p_prev) / (x * x - 1)
            x -= p / dp
        return float(2 / ((1 - x * x) * dp * dp))


@pytest.mark.parametrize("order", [193, 1088, 4480, 17920])
def test_outermost_weights_match_mpmath(order):
    # the weights next to x = -1 (the rule is mirror symmetric), where the
    # recurrence edge was 8.0e-12 off at order 4480 and 1.4e-10 at 17920
    rule = gauss_legendre(order)
    for i in range(3):
        assert abs(rule.weights[i] / _mp_weight(order, rule.nodes[i]) - 1.0) <= 1e-13


def test_tabulated_bessel_zeros():
    special = pytest.importorskip("scipy.special")
    zeros = special.jn_zeros(0, len(_J0_ZEROS) + 1)
    np.testing.assert_allclose(_J0_ZEROS, zeros[:-1], rtol=4e-16)
    # exactly the zeros below 30, the edge of the Stieltjes series
    assert _J0_ZEROS[-1] < 30.0 < zeros[-1]


@pytest.mark.parametrize("orders, ran_out", [
    pytest.param([10], 10, id="10"), pytest.param([500], 500, id="500"),
    pytest.param([500, 1, 10], 10, id="batch")])
def test_newton_budget_exhausted_raises(monkeypatch, orders, ran_out):
    # order 10 runs the Newton-in-x loop, order 500 the loops in theta; in the
    # batch, order 1 converges in its first sweep and order 10 runs out
    monkeypatch.setattr(quadrature, "_NEWTON_BUDGET", 1)
    monkeypatch.setattr(quadrature, "_RULE_CACHE", {})
    with pytest.raises(ConvergenceError, match="gauss_legendre") as info:
        gauss_legendre(*orders) if len(orders) == 1 else gauss_legendre_many(orders)
    assert info.value.order == info.value.n == ran_out


def test_batch_equals_rules_built_alone(monkeypatch):
    # one lock-step batch over orders 1-192, shuffled, with duplicates and
    # with orders past the switch, gives each rule of the oracle byte for byte
    monkeypatch.setattr(quadrature, "_RULE_CACHE", {})
    assert gauss_legendre_many([]) == [] and quadrature._RULE_CACHE == {}
    orders = list(range(1, _NEWTON_X_MAX_ORDER + 1)) * 2 + [193, 500, 4480, 500]
    random.Random(3).shuffle(orders)
    rules = gauss_legendre_many(orders)
    assert [rule.order for rule in rules] == orders
    assert sorted(quadrature._RULE_CACHE) == sorted(set(orders))
    for rule in rules:
        if rule.order <= _NEWTON_X_MAX_ORDER:
            x, w = _newton_x_rule(rule.order)
            assert np.array_equal(rule.nodes, x) and np.array_equal(rule.weights, w)
    # a second call serves the cached objects and builds nothing
    monkeypatch.setattr(quadrature, "_newton_x_rules", None)
    monkeypatch.setattr(quadrature, "_asymptotic_rule", None)
    assert all(a is b for a, b in zip(gauss_legendre_many(orders), rules))
    monkeypatch.undo()
    # the orders past the switch are the rules gauss_legendre builds alone
    monkeypatch.setattr(quadrature, "_RULE_CACHE", {})
    for rule in rules:
        if rule.order > _NEWTON_X_MAX_ORDER:
            alone = gauss_legendre(rule.order)
            assert np.array_equal(rule.nodes, alone.nodes)
            assert np.array_equal(rule.weights, alone.weights)


def test_rounding_noise_cells_read_newton_rules_only(monkeypatch):
    # The selftest and multipliers cells at rounding level stay byte-identical
    # only while every rule they read comes from Newton in x.  A suite change
    # that reads a larger rule must fail here, not as benchmark drift.
    monkeypatch.setattr(quadrature, "_RULE_CACHE", {})
    clear_run_memos()
    run_selftest_suite()
    run_multiplier_identity_suite(3, 32)
    run_multiplier_identity_suite(5, 64)
    assert max(quadrature._RULE_CACHE) <= _NEWTON_X_MAX_ORDER
    for order in range(1, _NEWTON_X_MAX_ORDER + 1):
        x, w = _newton_x_rule(order)
        rule = gauss_legendre(order)
        assert np.array_equal(rule.nodes, x) and np.array_equal(rule.weights, w)


def test_rule_cache_and_immutability():
    for order in (17, 4480):
        a = gauss_legendre(order)
        assert gauss_legendre(order) is a
        with pytest.raises(ValueError):
            a.nodes[0] = 0.0
        with pytest.raises(ValueError):
            a.weights[0] = 0.0


def test_order_zero_rejected(monkeypatch):
    with pytest.raises(ValueError):
        gauss_legendre(0)
    # a batch checks every order before it builds any rule
    monkeypatch.setattr(quadrature, "_RULE_CACHE", {})
    with pytest.raises(ValueError, match="order >= 1"):
        gauss_legendre_many([3, 0])
    assert quadrature._RULE_CACHE == {}


def test_mapped_rule():
    theta, w = mapped_rule(16)
    assert theta[0] > 0 and theta[-1] < np.pi
    assert float(w.sum()) == pytest.approx(np.pi, rel=1e-14)


def test_integrate_theta_constant_profiles():
    one = lambda t: np.ones_like(t)
    assert integrate_theta(one, 0.5, 16) == pytest.approx(2.0, abs=1e-13)
    assert integrate_theta(one, 1.0, 16) == pytest.approx(np.pi / 2.0, abs=1e-13)
    # int sin^3 = 4/3 (half-angle twice)
    assert integrate_theta(one, 1.5, 16) == pytest.approx(4.0 / 3.0, abs=1e-13)


def test_integrate_theta_scalar_callable():
    # callables must accept the node array; a scalar-only one fails loudly
    with pytest.raises(TypeError):
        integrate_theta(lambda t: float(np.cos(t)) ** 2, 0.5, 16)
    with pytest.raises(ValueError, match=r"expected the node shape \(16,\)"):
        integrate_theta(lambda t: 1.0, 0.5, 16)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_gegenbauer_orthogonality(d):
    # mutual orthogonality of the harmonic degrees under the sin^(2 lam)
    # weight; the +32 padding is the module default for these integrands
    lam = (d - 2) / 2.0
    for k, j in ((0, 1), (1, 2), (3, 7), (5, 12), (10, 11)):
        val = integrate_theta(
            lambda t: q_table(max(k, j), lam, t)[:, k] * q_table(max(k, j), lam, t)[:, j],
            lam, k + j + 32)
        assert abs(val) <= 1e-10


def test_doubling_stability():
    # a converged integral must not move under refinement
    g = lambda t: np.exp(-t) * np.cos(3 * t)
    v1 = integrate_theta(g, 1.0, 64)
    v2 = integrate_theta(g, 1.0, 128)
    assert abs(v1 - v2) <= 1e-12 * abs(v2)


def test_sphere_grid_geometry():
    grid = sphere_grid(16)
    assert len(grid.points) == 16 * 32 == len(grid.point_weights)
    norms = np.linalg.norm(grid.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-14
    # polar-major: 16 rings of 32 azimuths each, colatitudes increasing in (0, pi)
    z = grid.points[:, 2].reshape(16, 32)
    assert np.all(z == z[:, :1])
    polar = np.arccos(z[:, 0])
    assert np.all(np.diff(polar) > 0)
    assert polar[0] > 0 and polar[-1] < np.pi
    assert abs(float(grid.point_weights.sum()) - 4.0 * np.pi) <= 1e-10
    for arr in (grid.points, grid.point_weights):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_sphere_grid_integrates_polynomials():
    grid = sphere_grid(8)
    ones = np.ones(len(grid.points))
    assert np.dot(grid.point_weights, ones) == pytest.approx(4.0 * np.pi, rel=1e-14)
    z = grid.points[:, 2]
    assert abs(np.dot(grid.point_weights, z)) <= 1e-12
    # int z^2 over the sphere = 4 pi / 3 by x/y/z symmetry
    assert np.dot(grid.point_weights, z ** 2) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-13)


def test_sphere_grid_rejects_zero_bands():
    with pytest.raises(ValueError):
        sphere_grid(0)

