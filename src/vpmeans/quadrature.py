"""Gauss-Legendre rules, weighted polar integrals, and the product grid on S^2.

Rules and grids are immutable after construction (the arrays are marked
read-only) and cached by order, so repeated sweeps over (n, k) grids reuse
the same nodes.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .special import _gegenbauer_steps

__all__ = [
    "QuadratureRule",
    "SphereGrid",
    "gauss_legendre",
    "mapped_rule",
    "integrate_theta",
    "sphere_grid",
    "integrate_grid",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an `order`-point Gauss-Legendre rule on [-1, 1]."""
    nodes: np.ndarray
    weights: np.ndarray
    order: int


_RULE_CACHE: dict[int, QuadratureRule] = {}
_GRID_CACHE: dict[int, "SphereGrid"] = {}


def _legendre_and_derivative(n, x):
    """P_n(x) and P_n'(x) for interior |x| < 1, from the Gegenbauer recurrence
    at lam = 1/2 (n >= 1)."""
    p_prev, p = deque(_gegenbauer_steps(n, 0.5, x), maxlen=2)
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre(order):
    """Gauss-Legendre rule with `order` nodes on [-1, 1].

    Nodes are Newton refinements of the Chebyshev-type initial guesses
    cos(pi (i - 1/4)/(order + 1/2)); iteration stops once the Legendre
    residual at every node is below 1e-15.
    """
    if order < 1:
        raise ValueError(f"gauss_legendre requires order >= 1, got {order}")
    cached = _RULE_CACHE.get(order)
    if cached is not None:
        return cached
    i = np.arange(1, order + 1)
    x = np.cos(np.pi * (i - 0.25) / (order + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(order, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(p)) < 1e-15 or np.max(np.abs(dx)) < 1e-16:
            break
    p, dp = _legendre_and_derivative(order, x)
    x -= p / dp
    _, dp = _legendre_and_derivative(order, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    # symmetrize: the rule is invariant under x -> -x
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    idx = np.argsort(x)
    x = np.ascontiguousarray(x[idx])
    w = np.ascontiguousarray(w[idx])
    x.setflags(write=False)
    w.setflags(write=False)
    rule = QuadratureRule(nodes=x, weights=w, order=order)
    _RULE_CACHE[order] = rule
    return rule


def mapped_rule(a, b, order):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    rule = gauss_legendre(order)
    half = 0.5 * (b - a)
    return a + half * (rule.nodes + 1.0), half * rule.weights


def integrate_theta(g, lam, order):
    """Approximate the weighted polar integral of g over [0, pi]:

        integral_0^pi g(theta) sin(theta)^(2 lam) dtheta

    by the `order`-point Gauss-Legendre rule mapped to [0, pi].  `g` must map
    the ndarray of nodes to an ndarray of the same shape; anything else raises.
    Accuracy is the caller's responsibility via `order`.
    """
    theta, w = mapped_rule(0.0, np.pi, order)
    vals = np.asarray(g(theta), dtype=float)
    if vals.shape != theta.shape:
        raise ValueError(f"integrate_theta: g returned shape {vals.shape}, "
                         f"expected the node shape {theta.shape}")
    return float(np.sum(w * vals * np.sin(theta) ** (2.0 * lam)))


@dataclass(frozen=True)
class SphereGrid:
    """Product quadrature grid on S^2: Gauss-Legendre in cos(theta) times
    equispaced azimuths, with steradian point weights summing to 4 pi.

    Exact for spherical polynomials of total degree <= 2*bands - 1.
    """
    polar_nodes: np.ndarray      # colatitudes theta_i in (0, pi), increasing
    azimuth_count: int
    point_weights: np.ndarray    # one weight per point, sum = 4 pi
    points: np.ndarray           # (N, 3) unit vectors, polar-major ordering


def sphere_grid(bands):
    """Build the product grid with `bands` polar nodes and 2*bands azimuths."""
    if bands < 1:
        raise ValueError(f"sphere_grid requires bands >= 1, got {bands}")
    cached = _GRID_CACHE.get(bands)
    if cached is not None:
        return cached
    rule = gauss_legendre(bands)
    # increasing x = cos(theta) means decreasing theta; store increasing theta
    theta = np.arccos(rule.nodes)[::-1]
    polar_w = rule.weights[::-1]
    m = 2 * bands
    phi = 2.0 * np.pi * np.arange(m) / m
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    pts = np.empty((bands * m, 3))
    pts[:, 0] = np.outer(sin_t, np.cos(phi)).ravel()
    pts[:, 1] = np.outer(sin_t, np.sin(phi)).ravel()
    pts[:, 2] = np.repeat(cos_t, m)
    w = np.repeat(polar_w * (2.0 * np.pi / m), m)
    for arr in (theta, w, pts):
        arr.setflags(write=False)
    grid = SphereGrid(polar_nodes=theta, azimuth_count=m, point_weights=w, points=pts)
    _GRID_CACHE[bands] = grid
    return grid


def integrate_grid(grid, values):
    """Surface integral over S^2 of point samples against the grid weights."""
    return float(np.dot(grid.point_weights, values))
