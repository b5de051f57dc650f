import numpy as np
import pytest

from vpmeans.quadrature import (_legendre_and_derivative, gauss_legendre,
                                integrate_grid, integrate_theta, mapped_rule,
                                sphere_grid)
from vpmeans.special import q_table


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
    for order in (1, 2, 7, 40, 200):
        rule = gauss_legendre(order)
        assert rule.order == order
        assert len(rule.nodes) == len(rule.weights) == order
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert abs(float(rule.weights.sum()) - 2.0) <= 1e-12


def test_rule_cache_and_immutability():
    a = gauss_legendre(17)
    b = gauss_legendre(17)
    assert a is b
    with pytest.raises(ValueError):
        a.nodes[0] = 0.0


def test_order_zero_rejected():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_mapped_rule():
    theta, w = mapped_rule(0.0, np.pi, 16)
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
    assert grid.azimuth_count == 32
    assert len(grid.points) == 16 * 32 == len(grid.point_weights)
    norms = np.linalg.norm(grid.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-14
    assert np.all(np.diff(grid.polar_nodes) > 0)
    assert grid.polar_nodes[0] > 0 and grid.polar_nodes[-1] < np.pi
    assert abs(float(grid.point_weights.sum()) - 4.0 * np.pi) <= 1e-10


def test_sphere_grid_integrates_polynomials():
    grid = sphere_grid(8)
    ones = np.ones(len(grid.points))
    assert integrate_grid(grid, ones) == pytest.approx(4.0 * np.pi, rel=1e-14)
    z = grid.points[:, 2]
    assert abs(integrate_grid(grid, z)) <= 1e-12
    # int z^2 over the sphere = 4 pi / 3 by x/y/z symmetry
    assert integrate_grid(grid, z ** 2) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-13)


def test_sphere_grid_rejects_zero_bands():
    with pytest.raises(ValueError):
        sphere_grid(0)


def test_sphere_grid_cached():
    assert sphere_grid(6) is sphere_grid(6)
