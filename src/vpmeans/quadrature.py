"""Gauss-Legendre rules, weighted polar integrals, and the product grid on S^2.

Orders up to _NEWTON_X_MAX_ORDER come from Newton's method in x on all nodes;
`gauss_legendre_many` builds any number of them in lock step, with one
Legendre recurrence over the nodes of all of them per Newton sweep.  Larger
orders come from Newton's method in theta on the nodes with theta < pi/2,
mirrored by x -> -x, with P_n(cos theta) from its Stieltjes series in the
interior and its cosine series (DLMF 18.5.11) at the nine nodes next to
theta = 0 (Hale & Townsend, SIAM J. Sci. Comput. 35(2), 2013); the weights
are 2/(dP_n/dtheta)^2.
A Newton loop raises ConvergenceError after _NEWTON_BUDGET sweeps.  Rules are
read-only and cached by order; grids are read-only and built on each call.
"""

from dataclasses import dataclass

import numpy as np

from .special import _gegenbauer_steps

__all__ = [
    "QuadratureRule",
    "SphereGrid",
    "gauss_legendre",
    "gauss_legendre_many",
    "mapped_rule",
    "integrate_theta",
    "sphere_grid",
]

# The largest order any rounding-noise cell reads (selftest <= 192, multipliers
# <= 180 at n_max = 64): rules up to it stay the Newton-in-x rules byte for byte.
_NEWTON_X_MAX_ORDER = 192
_NEWTON_BUDGET = 100
_STIELTJES_TERMS = 20  # ~1e-19 relative wherever (n + 1/2) sin(theta) >= 30
# The zeros j_{0,k} < 30 of J_0.  For n > 192, node k has (n + 1/2) theta_k ~
# j_{0,k}, so exactly these nine nodes have (n + 1/2) sin(theta_k) < 30.
_J0_ZEROS = np.array([2.404825557695773, 5.520078110286311, 8.653727912911013,
                      11.791534439014281, 14.930917708487787, 18.071063967910924,
                      21.21163662987926, 24.352471530749302, 27.493479132040253])


class ConvergenceError(ArithmeticError):
    """A refinement loop ran out of budget before two successive iterates
    agreed, or met an iterate that is not finite, or a Newton loop ran out
    before its step fell below tolerance.  `previous` is None when no earlier
    iterate was taken; `d` is None for a Gauss rule, which has no dimension."""

    def __init__(self, n, d, kind, order, previous, last):
        self.n, self.d, self.kind, self.order = n, d, kind, order
        self.previous, self.last = previous, last
        fault = "did not converge" if np.isfinite(last) else "gave an iterate that is not finite"
        super().__init__(f"{kind} {fault} at n={n}{'' if d is None else f', d={d}'}: "
                         f"order {order} gave {last!r} after {previous!r}")


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an `order`-point Gauss-Legendre rule on [-1, 1]."""
    nodes: np.ndarray
    weights: np.ndarray
    order: int


_RULE_CACHE: dict[int, QuadratureRule] = {}


def _legendre_theta_edge(n, theta):
    """P_n(cos theta) and dP_n/dtheta, node by node, by the cosine series
    sum_k a_k a_{n-k} cos((n - 2k) theta), a_k = (1/2)_k / k! (DLMF 18.5.11)."""
    a = np.cumprod(np.concatenate(([1.0], (np.arange(n) + 0.5) / np.arange(1.0, n + 1))))
    c, m = a * a[::-1], n - 2.0 * np.arange(n + 1)
    return np.array([(np.sum(np.cos(t * m) * c), -np.sum(np.sin(t * m) * (c * m)))
                     for t in theta]).T


def _legendre_theta_series(n, theta):
    """P_n(cos theta) / C_n and its theta-derivative by the Stieltjes series
    sum_m h_m cos((n+m+1/2) theta - (m+1/2) pi/2) / (2 sin theta)^(m+1/2), with
    h_0 = 1, h_m = h_{m-1} (m-1/2)^2 / (m (n+m+1/2)) and C_n = (4/pi)^(1/2)
    Gamma(n+1) / Gamma(n+3/2)."""
    two_sin, cot = 2.0 * np.sin(theta), 1.0 / np.tan(theta)
    p = dp = 0.0
    h = 1.0
    for m in range(_STIELTJES_TERMS):
        phase = (n + m + 0.5) * theta - (m + 0.5) * (0.5 * np.pi)
        amp = h * two_sin ** -(m + 0.5)
        c = amp * np.cos(phase)
        p = p + c
        dp = dp - (n + m + 0.5) * amp * np.sin(phase) - (m + 0.5) * cot * c
        h *= (m + 0.5) ** 2 / ((m + 1) * (n + m + 1.5))
    return p, dp


def _newton(evaluate, t, converged, order):
    """Newton's method for zeros of P_order from the guesses t, with
    evaluate(t) = (P, dP/dt), until converged(P, step).  Returns the zeros and
    the last sweep's (P, dP/dt, step)."""
    previous = last = None
    for _ in range(_NEWTON_BUDGET):
        p, dp = evaluate(t)
        step = p / dp
        t = t - step
        if converged(p, step):
            return t, p, dp, step
        previous, last = last, float(np.max(np.abs(step)))
    raise ConvergenceError(order, None, "gauss_legendre Newton", order, previous, last)


def _newton_x_rules(orders):
    """{n: (nodes, weights)} for the distinct `orders`, each rule as if built
    alone: Newton in x from cos(pi (i - 1/4)/(n + 1/2)) until max |dx| < 1e-16
    (max |P_n| < 1e-15 is never met at orders 8-4480, where it ends between
    1.3e-15 and 1.8e-10), then one more step and weights 2/((1-x^2) P_n'^2).
    The rules run in lock step: each sweep runs one recurrence over the nodes
    of every unfinished rule and reads its P_{n-1}, P_n at its own step n; a
    rule whose own Newton loop runs out of budget raises ConvergenceError."""
    x = {n: np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5)) for n in sorted(orders)}
    stage = dict.fromkeys(x, 0)   # 0: Newton, 1: the extra step, 2: the weights
    misses = {n: [0, None, None] for n in x}   # unconverged sweeps, previous, last
    built = {}
    while x:
        live = list(x)
        bounds = np.cumsum([0] + live)
        at = {n: slice(bounds[i], bounds[i + 1]) for i, n in enumerate(live)}
        xs = np.concatenate([x[n] for n in live])
        p_prev, p, last = np.empty_like(xs), np.empty_like(xs), None
        for j, pj in enumerate(_gegenbauer_steps(live[-1], 0.5, xs)):
            if j in at:
                p[at[j]], p_prev[at[j]] = pj[at[j]], np.broadcast_to(last, xs.shape)[at[j]]
            last = pj
        dp = np.repeat(np.array(live, dtype=float), live) * (xs * p - p_prev) / (xs * xs - 1.0)
        step = p / dp
        p_max = np.maximum.reduceat(np.abs(p), bounds[:-1])
        step_max = np.maximum.reduceat(np.abs(step), bounds[:-1])
        for i, n in enumerate(live):
            rule = at[n]
            if stage[n] == 2:
                xn, dpn = x.pop(n), dp[rule]
                w = 2.0 / ((1.0 - xn * xn) * dpn * dpn)
                # symmetrize: the rule is invariant under x -> -x
                xn, w = 0.5 * (xn - xn[::-1]), 0.5 * (w + w[::-1])
                idx = np.argsort(xn)
                built[n] = xn[idx], w[idx]
                continue
            x[n] = xs[rule] - step[rule]
            if stage[n] == 1 or p_max[i] < 1e-15 or step_max[i] < 1e-16:
                stage[n] += 1
                continue
            miss = misses[n]
            miss[:] = miss[0] + 1, miss[2], float(step_max[i])
            if miss[0] == _NEWTON_BUDGET:
                raise ConvergenceError(n, None, "gauss_legendre Newton", n, miss[1], miss[2])
    return built


def _asymptotic_rule(n):
    """Newton in theta.  The nine edge nodes start from Olver's guess
    psi + (psi cot psi - 1)/(8 psi rho^2), psi = j_{0,k}/rho, rho = n + 1/2
    (~1e-12 relative, so one step converges), the interior ones from
    phi + cot(phi)/(8 rho^2), phi = (k - 1/4) pi/rho.  The series leaves C_n^2
    out of the interior weights; sum w = 2 puts it back."""
    rho = n + 0.5

    def newton(evaluate, theta):
        # Newton stops once the phase step rho |dtheta| <= 1e-8: being quadratic,
        # the zeros are then exact to rounding, and a Taylor step of Legendre's
        # equation carries dP_n/dtheta to them with a relative error of O(1e-16)
        theta, p, dp, step = _newton(
            evaluate, theta, lambda p, step: rho * np.max(np.abs(step)) <= 1e-8, n)
        return theta, dp + (dp / np.tan(theta) + n * (n + 1.0) * p) * step

    psi = _J0_ZEROS / rho
    theta_e, dp_e = newton(lambda t: _legendre_theta_edge(n, t),
                           psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * rho ** 2))
    # k runs to the middle node theta = pi/2 (x = 0) of odd n
    phi = (np.arange(len(_J0_ZEROS) + 1, (n + 1) // 2 + 1) - 0.25) * np.pi / rho
    theta_i, dp_i = newton(lambda t: _legendre_theta_series(n, t),
                           phi + 1.0 / (8.0 * rho ** 2 * np.tan(phi)))
    w_e, w_i = 2.0 / dp_e ** 2, 2.0 / dp_i ** 2
    w_i *= (2.0 - 2.0 * w_e.sum()) / (2.0 * w_i.sum() - w_i[-1] * (n % 2))
    x, w = np.cos(np.concatenate((theta_e, theta_i))), np.concatenate((w_e, w_i))
    if n % 2:
        x[-1] = 0.0
    return np.concatenate((-x[:n // 2], x[::-1])), np.concatenate((w[:n // 2], w[::-1]))


def gauss_legendre(order):
    """Gauss-Legendre rule with `order` nodes on [-1, 1]: Newton in x up to
    order 192, Newton in theta above (see the module docstring).  Nodes
    increase and are mirror symmetric, the middle node of an odd order is 0.
    """
    return gauss_legendre_many([order])[0]


def gauss_legendre_many(orders):
    """The `gauss_legendre` rule of each of `orders`, in the order given.  The
    missing rules up to order 192 are built together by `_newton_x_rules`,
    those above one by one; every rule is cached."""
    for order in orders:
        if order < 1:
            raise ValueError(f"gauss_legendre requires order >= 1, got {order}")
    missing = {order for order in orders if order not in _RULE_CACHE}
    small = [order for order in missing if order <= _NEWTON_X_MAX_ORDER]
    built = _newton_x_rules(small) if small else {}
    for order in sorted(missing):
        x, w = built[order] if order in built else _asymptotic_rule(order)
        for arr in (x, w):
            arr.setflags(write=False)
        _RULE_CACHE[order] = QuadratureRule(nodes=x, weights=w, order=order)
    return [_RULE_CACHE[order] for order in orders]


def mapped_rule(order):
    """Gauss-Legendre nodes and weights mapped to [0, pi]."""
    rule = gauss_legendre(order)
    half = 0.5 * np.pi
    return half * (rule.nodes + 1.0), half * rule.weights


def integrate_theta(g, lam, order):
    """Approximate the weighted polar integral of g over [0, pi]:

        integral_0^pi g(theta) sin(theta)^(2 lam) dtheta

    by the `order`-point Gauss-Legendre rule mapped to [0, pi].  `g` must map
    the ndarray of nodes to an ndarray of the same shape; anything else raises.
    Accuracy is the caller's responsibility via `order`.
    """
    theta, w = mapped_rule(order)
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
    point_weights: np.ndarray    # one weight per point, sum = 4 pi
    points: np.ndarray           # (N, 3) unit vectors, polar-major, theta increasing


def sphere_grid(bands):
    """Build the product grid with `bands` polar nodes and 2*bands azimuths."""
    if bands < 1:
        raise ValueError(f"sphere_grid requires bands >= 1, got {bands}")
    rule = gauss_legendre(bands)
    # increasing x = cos(theta) means decreasing theta; order by increasing theta
    theta = np.arccos(rule.nodes)[::-1]
    m = 2 * bands
    phi = 2.0 * np.pi * np.arange(m) / m
    sin_t = np.sin(theta)
    pts = np.empty((bands * m, 3))
    pts[:, 0] = np.outer(sin_t, np.cos(phi)).ravel()
    pts[:, 1] = np.outer(sin_t, np.sin(phi)).ravel()
    pts[:, 2] = np.repeat(np.cos(theta), m)
    w = np.repeat(rule.weights[::-1] * (2.0 * np.pi / m), m)
    for arr in (w, pts):
        arr.setflags(write=False)
    return SphereGrid(point_weights=w, points=pts)
