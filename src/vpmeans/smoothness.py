"""Modulus of smoothness and K-functional estimate.

The modulus omega(f, t)_p = sup_{0 < theta <= t} ||f - S_theta f||_p is
evaluated as a max over a geometric grid of translation steps.  The
K-functional inf_g {||f - g||_p + t^2 ||Dg||_p} is estimated from above over
the candidate family {0} union {V_m f, V_m^2 f, V_m^7 f} with dyadic degrees
m matched to the scale t ~ m^(-1/2); a larger candidate set can only lower
the estimate, never invalidate it.
"""

import math

import numpy as np

from .function_space import _live_rows, lp_norm_maxima, lp_norms_batch
from .memo import RunMemo
from .operators import means_columns
from .special import _q_rows

__all__ = [
    "modulus",
    "modulus_many",
    "translation_error_norms",
    "k_functional_estimate",
    "default_candidate_degrees",
]

# iterated-operator powers always offered as K-functional candidates
CANDIDATE_POWERS = (1, 2, 7)

# translation steps per scale t in the sup over theta in (0, t] of omega(f, t)_p
THETA_GRID_SIZE = 64


def _theta_scan(t, size):
    # geometric grid on (0, t]; the translation mean is defined on (0, pi),
    # so a top point at exactly pi is dropped
    grid = np.geomspace(t / 256.0, t, size)
    return grid[grid < np.pi]


def _theta_scans(scales, size=THETA_GRID_SIZE):
    """(thetas, sizes): the scans of the distinct `scales`, in order, end to
    end, and the length of each; the key of a sweep's theta-scan table."""
    scans = [_theta_scan(t, size) for t in dict.fromkeys(scales)]
    return np.concatenate(scans), [len(scan) for scan in scans]


_DAMPING = RunMemo("theta_scan")
_MODULUS = RunMemo("modulus")


def _damping_table(k_max, lam, thetas, parts):
    """Read-only (T, k_max+1) table 1 - Q_k(cos theta), memoised per run on
    (k_max, lam, theta grid); for `modulus` the grid is fixed by t and the
    grid size.  A new one fills as `function_space._context` does."""
    key = (k_max, float(lam), thetas.tobytes())
    if key in _DAMPING:
        return _DAMPING.lookup(key, None)
    table = np.empty((thetas.size, k_max + 1))

    def fill(k, rows):
        np.subtract(1.0, rows.T, out=table[:, k:k + len(rows)])
        if k + len(rows) > k_max:       # the last block ends the table
            table.setflags(write=False)
            _DAMPING.lookup(key, lambda: table)
    parts.append((np.cos(thetas), fill))
    return table


def translation_error_norms(f, thetas, ps, sizes):
    """The largest ||f - S_theta f||_p of each run of consecutive translation
    steps theta, the runs having the sizes `sizes`, one row per p of the
    sequence `ps`, by `lp_norm_maxima`, which builds the columns
    f.coeffs * (1 - Q_k(cos theta)) of the steps it picks, each on the rows
    of f's own band."""
    if np.ndim(ps) != 1:
        raise TypeError(f"ps must be a sequence of p, got {ps!r}")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any((thetas <= 0.0) | (thetas >= np.pi)):
        raise ValueError("translation steps must lie in (0, pi)")
    parts = []
    damp = _damping_table(f.band_limit, f.lam, thetas, parts)     # (T, K+1)
    _q_rows(f.band_limit, f.lam, parts)

    def columns(steps, rows=_live_rows(f.coeffs)):     # C order synthesises faster
        return np.multiply(f.coeffs[:rows, None], damp[steps, :rows].T, order="C")
    return lp_norm_maxima(columns, sizes, f.lam, ps, f.band_limit)


def modulus(f, t, p, theta_grid_size=THETA_GRID_SIZE):
    """Modulus of smoothness omega(f, t)_p of a zonal spectral function:
    max over a geometric grid of theta in (0, t] of ||f - S_theta f||_p,
    the norms on the grids of `lp_norms_batch` (Gauss order 2K + 32 at p = 1).

    The value is memoised for the current run (see `vpmeans.memo`) on the
    exact coefficient bytes, f.lam and every argument, so the suites that meet
    the same cell omega(f, n^(-1/2))_p compute it once.
    """
    return modulus_many(f, [t], [p], theta_grid_size=theta_grid_size)[0][0]


def modulus_many(f, ts, ps, theta_grid_size=THETA_GRID_SIZE):
    """`modulus` at each scale of `ts` for each p of `ps`: one list of cells
    per p.  The cells not memoised are computed in one
    `translation_error_norms` call over the p and scales they miss, one run
    of steps per scale, so one set of translation columns and one bound pass
    of `lp_norm_maxima` serve every p."""
    for t in ts:
        if not 0.0 < t <= np.pi:
            raise ValueError(f"modulus scale must be in (0, pi], got {t}")
    base = (f.coeffs.dtype.str, f.coeffs.shape, f.coeffs.tobytes(), float(f.lam),
            int(theta_grid_size))
    keys = {(t, p): base + (float(t), float(p)) for t in ts for p in ps}
    missing = [cell for cell, key in keys.items() if key not in _MODULUS]
    computed = {}
    if missing:
        scales, group = (list(dict.fromkeys(part)) for part in zip(*missing))
        thetas, sizes = _theta_scans(scales, theta_grid_size)
        maxima = translation_error_norms(f, thetas, group, sizes=sizes)
        computed = {(t, p): cell for p, row in zip(group, maxima.tolist())
                    for t, cell in zip(scales, row)}
    return [[_MODULUS.lookup(keys[t, p], lambda cell=(t, p): computed[cell]) for t in ts]
            for p in ps]


def default_candidate_degrees(t):
    """Dyadic degrees 1, 2, 4, ... up to 4*ceil(1/t^2), the scale at which
    the means resolve features of size t."""
    top = 4 * math.ceil(1.0 / (t * t))
    return tuple(dict.fromkeys([2 ** i for i in range(top.bit_length())] + [top]))


def k_functional_estimate(f, ts, ps):
    """Upper estimates of the K-functional K(f, t)_p = inf_g {||f-g||_p +
    t^2 ||Dg||_p}, one list per p of `ps` with one value per scale of `ts`:
    the minimum of the objective over g = 0 and the means candidates V_m f,
    V_m^2 f, V_m^7 f for m of `default_candidate_degrees(t)`, the norms on the
    grids of `lp_norms_batch` (Gauss order 2K + 32 at p = 1).  The norms do
    not depend on t: one `means_columns` call builds the candidates of all
    the scales' degrees, and each p takes one `lp_norms_batch` call for
    ||f - g||_p and one for ||Dg||_p."""
    for t in ts:
        if not 0.0 < t < math.inf:
            raise ValueError(f"K-functional scale must be positive and finite, got {t}")
    per_scale = [default_candidate_degrees(t) for t in ts]
    degrees = sorted(set().union(*per_scale))
    width = len(CANDIDATE_POWERS)     # column 0 is g = 0, then each degree's powers
    picks = [[0] + [1 + width * degrees.index(m) + j for m in ms for j in range(width)]
             for ms in per_scale]
    k = np.arange(f.band_limit + 1, dtype=float)
    cols = np.column_stack([np.zeros_like(f.coeffs), means_columns(f, degrees, CANDIDATE_POWERS)])
    laplacian = cols * (k * (k + 2.0 * f.lam))[:, None]
    norms = [(lp_norms_batch(cols, f.lam, p, reference=f.coeffs),
              lp_norms_batch(laplacian, f.lam, p)) for p in ps]
    return [[float(np.min(errors[pick] + t * t * smooth[pick])) for t, pick in zip(ts, picks)]
            for errors, smooth in norms]
