"""The de la Vallee Poussin kernel v_n(t) = cos(t/2)^(2n) / I_{n,d} on S^{d-1}.

Provides the closed-form normalization constant I_{n,d}, pointwise kernel
evaluation, the multiplier weights of the induced convolution operator (in
closed form and, independently, by quadrature), the concentration coefficient
alpha(n) of the second-order expansion of the means, and the weighted kernel
moments behind the smoothing estimates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .memo import RunMemo
from .quadrature import ConvergenceError, gauss_legendre, integrate_theta, mapped_rule
from .special import q_table

__all__ = [
    "ConvergenceError",
    "KernelSpec",
    "kernel_spec",
    "kernel_norm_constant",
    "vpm_kernel_eval",
    "multiplier_weight",
    "multiplier_sequence",
    "multiplier_via_quadrature",
    "alpha_voronovskaya",
    "lemma_integral",
    "default_order",
]

# Gauss order padding: integrands v_n * Q_k * sin^{2 lam} are trigonometric
# polynomials of degree ~ n + k; 32 extra nodes cover the non-polynomial
# weights that appear at odd 2*lam.
ORDER_PAD = 32


def default_order(n, k=0):
    """Default Gauss order for integrals involving v_n and Q_k."""
    return n + k + ORDER_PAD


@dataclass(frozen=True)
class KernelSpec:
    """Identity of one kernel: degree n, ambient dimension d, the derived
    index lam = (d-2)/2, and log_norm = ln I_{n,d}."""
    n: int
    d: int
    lam: float
    log_norm: float


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


def kernel_spec(n, d):
    """Construct the KernelSpec for degree n in dimension d."""
    return KernelSpec(n=n, d=d, lam=(d - 2) / 2.0, log_norm=kernel_norm_constant(n, d))


def vpm_kernel_eval(spec, theta):
    """v_n(theta) = cos(theta/2)^(2n) / I_{n,d} on [0, pi].

    Computed as ((1 + cos theta)/2)^n, which vanishes exactly at theta = pi
    for n >= 1 and is 1/I at theta = 0.
    """
    ta = np.asarray(theta, dtype=float)
    if np.any((ta < 0.0) | (ta > np.pi)):
        raise ValueError("vpm_kernel_eval requires theta in [0, pi]")
    s = 0.5 + 0.5 * np.cos(ta)          # = cos^2(theta/2), exactly 0 at pi
    vals = s ** spec.n * math.exp(-spec.log_norm)
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
_LGAMMA = RunMemo("lgamma_table")


def _lgamma_table(shift, size):
    """Read-only lgamma((m + shift) + 1.0) for m below `size` rounded up to a
    power of two, memoised per run on (shift, rounded size)."""
    size = 1 << (size - 1).bit_length()

    def build():
        table = np.array([math.lgamma((m + shift) + 1.0) for m in range(size)])
        table.setflags(write=False)
        return table
    return _LGAMMA.lookup((shift, size), build)


def _closed_form_prefix(n, lam, top):
    """multiplier_weight(n, k, lam) for k = 0..top <= n, bit for bit: the same
    lgamma arguments, read from tables, and the same float operations."""
    fact = _lgamma_table(0.0, n + 1)                       # lgamma(j + 1.0)
    shifted = _lgamma_table(float(2.0 * lam), n + top + 1)  # lgamma((m + 2 lam) + 1.0)
    logs = (fact[n] - fact[n - top:n + 1][::-1]) + (shifted[n] - shifted[n:n + top + 1])
    # math.exp per entry: np.exp differs from it in the last bit on some
    return np.array([math.exp(v) for v in logs.tolist()])


def multiplier_sequence(n, lam, k_max):
    """Array of multiplier weights for k = 0..k_max.

    Only k <= min(n, k_max) runs through the closed form of
    `multiplier_weight`, with its lgamma values read from per-run tables; the
    tail k > n holds the exact zeros it returns there.  The closed-form
    prefix is memoised per (n, lam) and prefix length for the current run
    (see `vpmeans.memo`); every call returns a new array.
    """
    if n < 0:
        raise ValueError("multiplier_sequence requires n >= 0")
    top = min(n, k_max)
    prefix = _PREFIXES.lookup((n, float(lam), top), lambda: _closed_form_prefix(n, lam, top))
    out = np.zeros(k_max + 1)
    out[:top + 1] = prefix
    return out


def _multiplier_integrals(cells, d, order):
    """integral_0^pi v_n Q_k sin^(2 lam) for each (n, k) of `cells` by the
    `order`-point rule mapped to [0, pi].  The nodes, weights, cos^2(theta/2),
    sin^(2 lam) and the Q table are built once; each cell runs the operations
    of integrate_theta(vpm_kernel_eval(v_n) * Q_k) in the same order."""
    lam = (d - 2) / 2.0
    theta, w = mapped_rule(0.0, np.pi, order)
    s = 0.5 + 0.5 * np.cos(theta)
    sinpow = np.sin(theta) ** (2.0 * lam)
    table = q_table(max(k for _, k in cells), lam, theta)
    return [float(np.sum(w * ((s ** n * math.exp(-kernel_norm_constant(n, d))) * table[:, k])
                         * sinpow)) for n, k in cells]


def multiplier_via_quadrature(n, k, d, order=None):
    """Independent route to the multiplier weight:

        integral_0^pi v_n(theta) Q_k(cos theta) sin(theta)^(2 lam) dtheta.

    This is the oracle against which the closed form is checked.
    """
    return _multiplier_integrals([(n, k)], d, default_order(n, k) if order is None else order)[0]


# fixed inner/middle Gauss orders for the nested integrals; both integrands
# are smooth on their domains, so modest fixed orders reach machine accuracy
# and refinement happens on the outer rule only
_ALPHA_INNER_ORDER = 96


def _alpha_at_order(n, d, order):
    lam = (d - 2) / 2.0
    spec = kernel_spec(n, d)
    theta, w_outer = mapped_rule(0.0, np.pi, order)
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
    outer = w_outer * vpm_kernel_eval(spec, theta) * np.sin(theta) ** (2.0 * lam)
    return float(np.dot(outer, big_f))


def alpha_voronovskaya(n, d, order=None, rtol=1e-9, max_refinements=8):
    """Concentration coefficient of the second-order expansion of the means:

        alpha(n) = integral_0^pi v_n sin^(2 lam) theta dtheta
                   integral_0^theta sin^(-2 lam) t dt
                   integral_0^t sin^(2 lam) u du.

    The outer rule is doubled until two successive refinements agree to
    `rtol` relative; ConvergenceError is raised when `max_refinements`
    doublings do not get there.  alpha(n) ~ 1/n; at d = 3 it is exactly 1/(n+1).
    """
    if n < 1:
        raise ValueError(f"alpha_voronovskaya requires n >= 1, got {n}")
    base = order if order is not None else default_order(n) + 32
    return _refine(lambda o: _alpha_at_order(n, d, o), base, rtol, max_refinements,
                   n, d, "alpha_voronovskaya")


_RUNGS = RunMemo("refinement")


def _refine(evaluate, order, rtol, max_refinements, n, d, kind, s=None):
    """Double `order` until two successive evaluate(order) agree to `rtol`
    relative; raise ConvergenceError when the budget runs out first.  Rungs
    are memoised per run on (kind, n, d, lemma exponent s, order), and every
    ladder, converged or not, is appended to the memo's log."""
    hits, misses = _RUNGS.hits, _RUNGS.misses

    def rung(o):
        return _RUNGS.lookup((kind, n, d, s, o), lambda: evaluate(o))

    prev, cur = None, rung(order)
    converged = False
    for _ in range(max_refinements):
        order *= 2
        prev, cur = cur, rung(order)
        converged = abs(cur - prev) <= rtol * abs(cur)
        if converged:
            break
    _RUNGS.log.append({"kind": kind, "n": n, "d": d, "s": s, "order": order,
                       "evaluated": _RUNGS.misses - misses, "memo_hits": _RUNGS.hits - hits,
                       "previous": prev, "last": cur, "converged": converged})
    if not converged:
        raise ConvergenceError(n, d, kind, order, prev, cur)
    return cur


_LEMMA_KINDS = ("neg_lambda", "neg_two_over_m", "fourth_moment")


def lemma_integral(n, d, kind, m=None, order=None, rtol=1e-8, max_refinements=8):
    """Weighted kernel moment integral_0^pi theta^s v_n(theta) sin^(2 lam) theta dtheta.

    kind selects the exponent s: "neg_lambda" -> -lam (grows like n^(lam/2)),
    "neg_two_over_m" -> -2/m (grows like n^(1/m)), "fourth_moment" -> 4
    (decays like n^-2).  The mapped Gauss rule is doubled until two successive
    refinements agree to `rtol` relative, else ConvergenceError is raised;
    the combined integrand is continuous at 0 because
    theta^(-lam) sin^(2 lam) theta ~ theta^lam.
    """
    if n < 1:
        raise ValueError(f"lemma_integral requires n >= 1, got {n}")
    lam = (d - 2) / 2.0
    if kind == "neg_lambda":
        s = -lam
    elif kind == "neg_two_over_m":
        if m is None or m < 1:
            raise ValueError("kind='neg_two_over_m' requires an integer m >= 1")
        s = -2.0 / m
    elif kind == "fourth_moment":
        s = 4.0
    else:
        raise ValueError(f"unknown lemma_integral kind {kind!r}; expected one of {_LEMMA_KINDS}")
    spec = kernel_spec(n, d)
    base = order if order is not None else default_order(n) + 32
    return _refine(lambda o: integrate_theta(lambda t: t ** s * vpm_kernel_eval(spec, t), lam, o),
                   base, rtol, max_refinements, n, d, kind, s)
