"""The de la Vallee Poussin kernel v_n(t) = cos(t/2)^(2n) / I_{n,d} on S^{d-1}.

Provides I_{n,d} in closed form, v_n pointwise, the multipliers of the means
(in closed form, per degree or in batches, and by quadrature over a list of
cells), alpha(n) of their second-order expansion (and its nested oracle) and
the moments of theta^s v_n.  It owns their Gauss orders: default_order(n, k)
of a multiplier cell, and ladder_order(n), where every ladder starts.
"""

import math

import numpy as np

from .memo import RUN_RECORDS, RunMemo
from .quadrature import (ConvergenceError, gauss_legendre, gauss_legendre_many, integrate_theta,
                         mapped_rule)
from .special import q_table

__all__ = [
    "kernel_norm_constant",
    "vpm_kernel_eval",
    "multiplier_weight",
    "multiplier_prefixes",
    "multiplier_sequence",
    "multiplier_via_quadrature",
    "alpha_voronovskaya",
    "alpha_nested",
    "lemma_integral",
    "default_order",
    "ladder_order",
]

# Gauss order padding: integrands v_n * Q_k * sin^{2 lam} are trigonometric
# polynomials of degree ~ n + k; 32 extra nodes cover the non-polynomial
# weights that appear at odd 2*lam.
ORDER_PAD = 32


def default_order(n, k=0):
    """Default Gauss order for integrals involving v_n and Q_k."""
    return n + k + ORDER_PAD


def ladder_order(n):
    """Start order of the alpha(n) and kernel moment refinement ladders."""
    return n + 2 * ORDER_PAD


def kernel_norm_constant(n, d):
    """ln I_{n,d} with I_{n,d} = 2^(2 lam) Gamma(lam+1/2) Gamma(n+lam+1/2) / Gamma(n+2 lam+1).

    At d = 3 this collapses to ln(2/(n+1)).
    """
    if n < 0:
        raise ValueError(f"kernel degree must be >= 0, got {n}")
    if d < 3:
        raise ValueError(f"dimension must be >= 3, got {d}")
    lam = (d - 2) / 2.0
    return (2.0 * lam * math.log(2.0) + math.lgamma(lam + 0.5)
            + math.lgamma(n + lam + 0.5) - math.lgamma(n + 2.0 * lam + 1.0))


def vpm_kernel_eval(n, d, theta):
    """v_n(theta) = cos(theta/2)^(2n) / I_{n,d} on [0, pi].

    Computed as ((1 + cos theta)/2)^n, which vanishes exactly at theta = pi
    for n >= 1 and is 1/I at theta = 0.
    """
    ta = np.asarray(theta, dtype=float)
    if not np.all((ta >= 0.0) & (ta <= np.pi)):     # NaN fails
        raise ValueError("vpm_kernel_eval requires theta in [0, pi]")
    s = 0.5 + 0.5 * np.cos(ta)          # = cos^2(theta/2), exactly 0 at pi
    vals = s ** n * math.exp(-kernel_norm_constant(n, d))
    return float(vals) if ta.ndim == 0 else vals


def multiplier_weight(n, k, lam):
    """Closed-form multiplier of the degree-n means on degree-k harmonics:

        n! (n+2 lam)! / ((n-k)! (n+k+2 lam)!)   for k <= n,  0 for k > n,

    evaluated through log-Gamma differences.  Equals 1 at k = 0.
    """
    if n < 0 or k < 0:
        raise ValueError("multiplier_weight requires n >= 0 and k >= 0")
    if k > n:
        return 0.0
    # paired differences cancel exactly at k = 0, where the weight must be 1
    return math.exp((math.lgamma(n + 1.0) - math.lgamma(n - k + 1.0))
                    + (math.lgamma(n + 2.0 * lam + 1.0) - math.lgamma(n + k + 2.0 * lam + 1.0)))


_PREFIXES = RunMemo("multiplier_prefix")


def multiplier_prefixes(degrees, lam, k_max):
    """multiplier_weight(n, k, lam), k = 0..min(n, k_max), within 1 ulp (1 at k = 0),
    per degree n of `degrees`, memoised per run on (n, lam, top): the missed n share one
    lgamma window, each lgamma read once, and take one np.exp of their differences each.
    Read by the spectral suites (`means_columns`); printed closed forms read the scalar."""
    def build(missing):     # n - top and n + top grow with n
        (first, _, first_top), (last, _, last_top) = min(missing), max(missing)
        if first < 0 or k_max < 0:
            raise ValueError("multiplier_prefixes requires n >= 0 and k_max >= 0")
        base = first - first_top
        fact = np.array([math.lgamma(m + 1.0) for m in range(base, last + 1)])
        shifted = np.array([math.lgamma((m + 2.0 * lam) + 1.0)
                            for m in range(first, last + last_top + 1)])
        windows = ((fact[n - top - base:n - base + 1], shifted[n - first:n - first + top + 1])
                   for n, _, top in missing)
        return [np.exp((f[-1] - f[::-1]) + (s[0] - s)) for f, s in windows]
    return _PREFIXES.lookup([(n, float(lam), min(n, k_max)) for n in degrees], build)


def multiplier_sequence(n, lam, k_max):
    """A new array of the weights for k = 0..k_max: the memoised prefix k <=
    min(n, k_max) of `multiplier_prefixes` (1 ulp of `multiplier_weight`), in
    O(min(n, k_max)) work whatever n is, then the exact zeros of k > n."""
    out = np.zeros(k_max + 1)
    out[:min(n, k_max) + 1] = multiplier_prefixes([n], lam, k_max)[0]
    return out


_TABLE_NODES, _BLOCK_CELLS = 512, 2 ** 15   # nodes per shared Q table, entries per matrix


def multiplier_via_quadrature(cells, d, order=None):
    """The quadrature oracle of the closed-form multipliers: a list of the
    integral_0^pi v_n Q_k sin^(2 lam) of each (n, k) of `cells`, in order, each
    integrate_theta(vpm_kernel_eval(v_n) * Q_k) bit for bit on the rule of
    order default_order(n, k), or `order` if given, mapped to [0, pi]; all the
    rules come from one gauss_legendre_many call.  Consecutive orders share a Q
    table of up to _TABLE_NODES nodes; an order's cells are C-ordered rows Q_k,
    _BLOCK_CELLS entries at a time, each scaled in place by its v_n, then by w
    and sin^(2 lam), and summed alone."""
    lam, out, groups = (d - 2) / 2.0, np.empty(len(cells)), {}
    for i, (n, k) in enumerate(cells):
        groups.setdefault(default_order(n, k) if order is None else order, []).append((i, n, k))
    orders = sorted(groups)
    gauss_legendre_many(orders)
    while orders:
        run = orders[:1]
        while len(run) < len(orders) and sum(run) + orders[len(run)] <= _TABLE_NODES:
            run.append(orders[len(run)])
        del orders[:len(run)]
        rules = [mapped_rule(o) for o in run]
        k_max = max(k for o in run for _, _, k in groups[o])
        table, start = q_table(k_max, lam, np.concatenate([t for t, _ in rules])).T, 0
        for o, (theta, w) in zip(run, rules):
            s, sinpow = 0.5 + 0.5 * np.cos(theta), np.sin(theta) ** (2.0 * lam)
            q, start = table[:, start:start + o], start + o
            step = max(1, _BLOCK_CELLS // o)
            for lo in range(0, len(groups[o]), step):
                picked, ns, ks = zip(*groups[o][lo:lo + step])
                rows = np.ascontiguousarray(q[list(ks)])
                for row, n in zip(rows, ns):
                    row *= s ** n * math.exp(-kernel_norm_constant(n, d))
                out[list(picked)] = np.sum(rows * w * sinpow, axis=1)
    return out.tolist()


# fixed Gauss orders of the smooth inner integrals (refinement is on the outer
# rule only): the nested oracle's rules, the panel rule and panels per block
_ALPHA_INNER_ORDER, _ALPHA_PANEL_ORDER, _ALPHA_PANEL_BLOCK = 96, 16, 64

# doublings of the outer Gauss order a refinement ladder may climb
MAX_REFINEMENTS = 8


def _alpha_at_order(n, d, order):
    """alpha(n) on the `order`-point outer rule.  G = int_0 sin^m and
    F = int_0 sin^-m G, m = 2 lam, are running sums over the panels between
    outer nodes, [theta_{i-1}, theta_i] with theta_0 = 0; G at a panel node tau
    adds the panel rule on [theta_{i-1}, tau].  Blocks of panels keep the
    working set fixed whatever `order` is."""
    m = d - 2.0
    theta, w_outer = mapped_rule(order)
    rule = gauss_legendre(_ALPHA_PANEL_ORDER)
    x, c = 0.5 * (rule.nodes + 1.0), 0.5 * rule.weights   # the rule on [0, 1]
    starts, big_f = np.concatenate(([0.0], theta[:-1])), np.empty_like(theta)
    g_run = f_run = 0.0
    for lo in range(0, order, _ALPHA_PANEL_BLOCK):
        a = starts[lo:lo + _ALPHA_PANEL_BLOCK]
        h = theta[lo:lo + _ALPHA_PANEL_BLOCK] - a
        span = h[:, None] * x                              # tau - theta_{i-1}
        sin_tau = np.sin(a[:, None] + span)
        g_ends = g_run + np.cumsum(h * (sin_tau ** m @ c))
        g_tau = (np.concatenate(([g_run], g_ends[:-1]))[:, None]
                 + span * (np.sin(a[:, None, None] + span[:, :, None] * x) ** m @ c))
        big_f[lo:lo + len(a)] = f_run + np.cumsum(h * ((sin_tau ** -m * g_tau) @ c))
        g_run, f_run = g_ends[-1], big_f[lo + len(a) - 1]
    outer = w_outer * vpm_kernel_eval(n, d, theta) * np.sin(theta) ** m
    return float(np.dot(outer, big_f))


def _alpha_nested_at_order(n, d, order):
    """alpha(n) by nested rules under each outer node: `_alpha_at_order`'s oracle."""
    lam = (d - 2) / 2.0
    theta, w_outer = mapped_rule(order)
    rule = gauss_legendre(_ALPHA_INNER_ORDER)
    half = 0.5 * (rule.nodes + 1.0)
    w_in = rule.weights
    # middle nodes t_{ij} = theta_i * half_j and the inner primitive
    # G(t) = integral_0^t sin(u)^(2 lam) du evaluated at each of them
    big_f = np.empty_like(theta)
    for i, th in enumerate(theta):
        t = th * half
        u = t[:, None] * half[None, :]
        g_inner = (0.5 * t) * (np.sin(u) ** (2.0 * lam) @ w_in)
        # sin^(-2 lam) t blows up near pi but G stays bounded and the outer
        # kernel factor kills the product; the quotient is ~ t/(2 lam + 1) at 0
        big_f[i] = (0.5 * th) * np.dot(w_in, np.sin(t) ** (-2.0 * lam) * g_inner)
    outer = w_outer * vpm_kernel_eval(n, d, theta) * np.sin(theta) ** (2.0 * lam)
    return float(np.dot(outer, big_f))


def alpha_voronovskaya(n, d, order=None, rtol=1e-9):
    """Concentration coefficient of the second-order expansion of the means:

        alpha(n) = integral_0^pi v_n sin^(2 lam) theta dtheta
                   integral_0^theta sin^(-2 lam) t dt
                   integral_0^t sin^(2 lam) u du.

    A rung takes the inner integrals at its outer nodes from one pass over the
    panels between them; the nested quadrature `alpha_nested` is its oracle.
    The outer rule, `order` points (default ladder_order(n)), is doubled until two
    successive refinements agree to `rtol` relative; ConvergenceError is
    raised when MAX_REFINEMENTS doublings do not get there.  alpha(n) ~ 1/n;
    at d = 3 it is exactly 1/(n+1).
    """
    if n < 1:
        raise ValueError(f"alpha_voronovskaya requires n >= 1, got {n}")
    base = order if order is not None else ladder_order(n)
    return _refine(lambda o: _alpha_at_order(n, d, o), base, rtol, n, d, "alpha_voronovskaya")


def alpha_nested(n, d):
    """alpha(n) by nested rules, the oracle of alpha_voronovskaya's panel route,
    on a ladder of its own from ladder_order(n) to 1e-9 relative."""
    return _refine(lambda o: _alpha_nested_at_order(n, d, o), ladder_order(n), 1e-9, n, d,
                   "alpha_nested")


def _refine(evaluate, order, rtol, n, d, kind, s=None):
    """Double `order` until two successive evaluate(order) agree to `rtol`
    relative; raise ConvergenceError at the first rung that is not finite or
    after MAX_REFINEMENTS doublings.  Every ladder is appended to the run's
    refinement records, with the number of rungs it `evaluated`."""
    prev, cur, evaluated = None, evaluate(order), 1
    converged = False
    for _ in range(MAX_REFINEMENTS if math.isfinite(cur) else 0):
        order *= 2
        prev, cur, evaluated = cur, evaluate(order), evaluated + 1
        converged = math.isfinite(cur) and abs(cur - prev) <= rtol * abs(cur)
        if converged or not math.isfinite(cur):
            break
    RUN_RECORDS["refinements"].append({"kind": kind, "n": n, "d": d, "s": s, "order": order,
                                       "evaluated": evaluated, "previous": prev, "last": cur,
                                       "converged": converged})
    if not converged:
        raise ConvergenceError(n, d, kind, order, prev, cur)
    return cur


def lemma_integral(n, d, s, order=None):
    """Weighted kernel moment integral_0^pi theta^s v_n(theta) sin^(2 lam) theta dtheta.

    The moment lemmas read s = -lam (grows like n^(lam/2)), s = -2/m (grows
    like n^(1/m)) and s = 4 (decays like n^-2).  theta^s sin^(2 lam) theta is
    integrable at 0 for s > -(2 lam + 1) only, and any other s raises
    ValueError.  The mapped Gauss rule, `order` points (default ladder_order(n)),
    is doubled until two successive refinements agree to 1e-8 relative, at
    most MAX_REFINEMENTS times, else ConvergenceError is raised.
    """
    if n < 1:
        raise ValueError(f"lemma_integral requires n >= 1, got {n}")
    lam = (d - 2) / 2.0
    if not s > -(2.0 * lam + 1.0):
        raise ValueError(f"lemma_integral requires s > -(2 lam + 1) = {-(d - 1)}, got {s}")
    base = order if order is not None else ladder_order(n)
    return _refine(lambda o: integrate_theta(lambda t: t ** s * vpm_kernel_eval(n, d, t), lam, o),
                   base, 1e-8, n, d, "lemma_integral", s)
