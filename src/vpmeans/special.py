"""Scalar special functions: Gegenbauer polynomials and the oscillation
envelope used in the multiplier estimates.

Everything here is a pure function of its arguments.  Gegenbauer polynomials
are evaluated by the upward three-term recurrence with seeds P_0 = 1 and
P_1(x) = 2*lam*x, the normalization fixed by the generating function

    (1 - 2 r x + r^2)^(-lam) = sum_k r^k P_k(x).

The recurrence lives in one place, `_gegenbauer_steps`, read by the Gauss rules
and by `_q_rows`, the stream of Q_k = P_k / P_k(1) in degree blocks from which
every Q table fills, each table in a stream of its own.
"""

import numpy as np

__all__ = [
    "q_table",
    "q_envelope",
]

# degrees that a Q_k stream fills, and columns that the L^p norms synthesise,
# at once: their temporaries stay at (grid size) x 64 doubles, 2 MiB on the
# dense grid, instead of growing with the band limit or the number of functions
BLOCK_COLUMNS = 64


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


def _q_rows(k_max, lam, x, fill):
    """The stream of Q_j^lam(x) = P_j^lam(x) / P_j^lam(1), j = 0..k_max, on the
    nodes `x`: for k = 0, BLOCK_COLUMNS, ... it writes the rows
    j = k..min(k + BLOCK_COLUMNS - 1, k_max) into one block, reused, and hands
    each to fill(k, rows), in order, which copies what it keeps.
    P_j(x) and P_j(1) share one recurrence, which makes Q exactly 1 at x = 1."""
    steps = zip(_gegenbauer_steps(k_max, lam, x), _gegenbauer_steps(k_max, lam, 1.0))
    block = np.empty((min(BLOCK_COLUMNS, k_max + 1), np.size(x)))
    for k in range(0, k_max + 1, BLOCK_COLUMNS):
        rows = block[:k_max + 1 - k]
        for row, (p, one) in zip(rows, steps):
            np.divide(p, one, out=row)
        fill(k, rows)


def q_table(k_max, lam, theta):
    """All Q_k^lam(cos theta) for k = 0..k_max; shape (len(theta), k_max+1)."""
    if k_max < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {k_max}")
    if lam < 0.5:
        raise ValueError(f"gegenbauer index lam must be >= 1/2, got {lam}")
    ta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty((ta.size, k_max + 1))

    def fill(k, rows):
        out[:, k:k + len(rows)] = rows.T
    _q_rows(k_max, lam, np.cos(ta), fill)
    return out


def q_envelope(k, lam, theta):
    """Decay envelope min((k theta)^(-lam), 1) that dominates |Q_k^lam(cos theta)|
    (up to a constant) on 0 < theta <= pi/2; k and theta broadcast.
    """
    if np.any(np.asarray(k) < 1):
        raise ValueError(f"q_envelope requires k >= 1, got {k}")
    ta = np.asarray(theta, dtype=float)
    if np.any(ta <= 0.0):
        raise ValueError("q_envelope requires theta > 0")
    vals = np.minimum((k * ta) ** (-lam), 1.0)
    return float(vals) if vals.ndim == 0 else vals
