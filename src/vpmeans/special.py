"""Scalar special functions: Gegenbauer polynomials, harmonic dimensions, and
the oscillation envelope used in the multiplier estimates.

Everything here is a pure function of its arguments.  Gegenbauer polynomials
are evaluated by the upward three-term recurrence with seeds P_0 = 1 and
P_1(x) = 2*lam*x, the normalization fixed by the generating function

    (1 - 2 r x + r^2)^(-lam) = sum_k r^k P_k(x).

The recurrence lives in one place, `_gegenbauer_steps`; the normalized table
Q_k = P_k / P_k(1), the synthesis of zonal functions and the Legendre
evaluation behind the Gauss rules all consume its stream.
"""

import math

import numpy as np

__all__ = [
    "harmonic_dim",
    "q_normalized",
    "q_table",
    "q_envelope",
]


def harmonic_dim(k, d):
    """Dimension of the space of degree-k spherical harmonics on S^{d-1}.

    Exact integer arithmetic; equals 2k+1 at d = 3.
    """
    if d < 3:
        raise ValueError(f"harmonic_dim requires d >= 3, got d={d}")
    if k < 0:
        raise ValueError(f"harmonic_dim requires k >= 0, got k={k}")
    if k == 0:
        return 1
    # (2k+d-2)/(k+d-2) * C(k+d-2, k), split into two binomials so the
    # division never appears.
    return math.comb(k + d - 2, k) + math.comb(k + d - 3, k - 1)


def _gegenbauer_steps(k_max, lam, x):
    """Yield P_0^lam(x), ..., P_k_max^lam(x) by the upward recurrence
    (j+1) P_{j+1} = 2(lam+j) x P_j - (2 lam + j - 1) P_{j-1}; lam = 1/2
    yields the Legendre polynomials.  `x` is an ndarray or a float; P_0 is
    the float 1.0, which broadcasts against either."""
    p_prev = 1.0
    yield p_prev
    if k_max == 0:
        return
    p = 2.0 * lam * x
    yield p
    for j in range(1, k_max):
        p, p_prev = (2.0 * (lam + j) * x * p - (2.0 * lam + j - 1.0) * p_prev) / (j + 1.0), p
        yield p


def _q_steps(k_max, lam, x):
    """Yield Q_k^lam(x) = P_k^lam(x) / P_k^lam(1) for k = 0..k_max.  The
    numerator and the value at 1 run through the same recurrence, which makes
    Q exactly 1 at x = 1."""
    for p, one in zip(_gegenbauer_steps(k_max, lam, x), _gegenbauer_steps(k_max, lam, 1.0)):
        yield p / one


def q_normalized(k, lam, theta):
    """Q_k^lam(cos theta) = P_k^lam(cos theta) / P_k^lam(1), so Q_k(1) = 1."""
    ta = np.asarray(theta, dtype=float)
    if np.any((ta < 0.0) | (ta > np.pi)):
        raise ValueError("q_normalized requires theta in [0, pi]")
    tab = q_table(k, lam, np.atleast_1d(ta))
    vals = tab[:, k]
    return float(vals[0]) if ta.ndim == 0 else vals


def q_table(k_max, lam, theta):
    """All Q_k^lam(cos theta) for k = 0..k_max; shape (len(theta), k_max+1)."""
    if k_max < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {k_max}")
    if lam < 0.5:
        raise ValueError(f"gegenbauer index lam must be >= 1/2, got {lam}")
    ta = np.atleast_1d(np.asarray(theta, dtype=float))
    xa = np.cos(ta)
    out = np.empty((ta.size, k_max + 1))
    for k, q in enumerate(_q_steps(k_max, lam, xa)):
        out[:, k] = q
    return out


def q_envelope(k, lam, theta):
    """Decay envelope min((k theta)^(-lam), 1) that dominates |Q_k^lam(cos theta)|
    (up to a constant) on 0 < theta <= pi/2.
    """
    if k < 1:
        raise ValueError(f"q_envelope requires k >= 1, got {k}")
    ta = np.asarray(theta, dtype=float)
    if np.any(ta <= 0.0):
        raise ValueError("q_envelope requires theta > 0")
    vals = np.minimum((k * ta) ** (-lam), 1.0)
    return float(vals) if ta.ndim == 0 else vals
