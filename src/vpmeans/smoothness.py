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

from .function_space import lp_norm_maxima, lp_norms_batch
from .memo import RunMemo
from .operators import means_columns
from .special import q_table

__all__ = [
    "modulus",
    "modulus_many",
    "translation_error_norms",
    "k_functional_estimate",
    "default_candidate_degrees",
]

# iterated-operator powers always offered as K-functional candidates
CANDIDATE_POWERS = (1, 2, 7)


def _theta_scan(t, size):
    # geometric grid on (0, t]; the translation mean is defined on (0, pi),
    # so a top point at exactly pi is dropped
    grid = np.geomspace(t / 256.0, t, size)
    return grid[grid < np.pi]


_DAMPING = RunMemo("theta_scan")
_MODULUS = RunMemo("modulus")
_CANDIDATES = RunMemo("k_candidates")


def _function_key(f):
    return (f.coeffs.dtype.str, f.coeffs.shape, f.coeffs.tobytes(), float(f.lam))


def _damping_table(k_max, lam, thetas):
    """Read-only (T, k_max+1) table 1 - Q_k(cos theta), memoised per run on
    (k_max, lam, theta grid); for `modulus` the grid is fixed by t and the
    grid size."""
    def compute():
        table = 1.0 - q_table(k_max, lam, thetas)
        table.setflags(write=False)
        return table
    return _DAMPING.lookup((k_max, float(lam), thetas.tobytes()), compute)


def translation_error_norms(f, thetas, ps, d, sizes=None):
    """||f - S_theta f||_p for a batch of translation steps theta, one row
    per p of the sequence `ps`; with `sizes`, the largest of each run of
    consecutive steps, the runs having those sizes, by `lp_norm_maxima`, which
    builds the columns f.coeffs * (1 - Q_k(cos theta)) of the steps it picks."""
    if np.ndim(ps) != 1:
        raise TypeError(f"ps must be a sequence of p, got {ps!r}")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any((thetas <= 0.0) | (thetas >= np.pi)):
        raise ValueError("translation steps must lie in (0, pi)")
    damp = _damping_table(f.band_limit, f.lam, thetas)     # (T, K+1)

    def columns(steps):     # C order synthesises faster
        return np.multiply(f.coeffs[:, None], damp[steps].T, order="C")
    if sizes is None:
        cols = columns(slice(None))
        return np.array([lp_norms_batch(cols, f.lam, p, d) for p in ps])
    return lp_norm_maxima(columns, sizes, f.lam, ps, d)


def modulus(f, t, p, d, theta_grid_size=64):
    """Modulus of smoothness omega(f, t)_p of a zonal spectral function:
    max over a geometric grid of theta in (0, t] of ||f - S_theta f||_p,
    the norms on the grids of `lp_norms_batch` (Gauss order 2K + 32 at p = 1).

    The value is memoised for the current run (see `vpmeans.memo`) on the
    exact coefficient bytes and every argument, so the suites that meet the
    same cell omega(f, n^(-1/2))_p compute it once.
    """
    return modulus_many(f, [t], [p], d, theta_grid_size=theta_grid_size)[0][0]


def modulus_many(f, ts, ps, d, theta_grid_size=64):
    """`modulus` at each scale of `ts` for each p of `ps`: one list of cells
    per p.  The cells not memoised are computed in one
    `translation_error_norms` call over the p and scales they miss, one run
    of steps per scale, so one set of translation columns and one bound pass
    of `lp_norm_maxima` serve every p."""
    for t in ts:
        if not 0.0 < t <= np.pi:
            raise ValueError(f"modulus scale must be in (0, pi], got {t}")
    keys = {(t, p): _function_key(f) + (float(t), float(p), int(d), int(theta_grid_size))
            for t in ts for p in ps}
    missing = [cell for cell, key in keys.items() if key not in _MODULUS]
    computed = {}
    if missing:
        scales, group = (list(dict.fromkeys(part)) for part in zip(*missing))
        scans = [_theta_scan(t, theta_grid_size) for t in scales]
        maxima = translation_error_norms(f, np.concatenate(scans), group, d,
                                         sizes=[len(scan) for scan in scans])
        computed = {(t, p): cell for p, row in zip(group, maxima.tolist())
                    for t, cell in zip(scales, row)}
    return [[_MODULUS.lookup(keys[t, p], lambda cell=(t, p): computed[cell]) for t in ts]
            for p in ps]


def default_candidate_degrees(t):
    """Dyadic degrees 1, 2, 4, ... up to 4*ceil(1/t^2), the scale at which
    the means resolve features of size t."""
    top = 4 * math.ceil(1.0 / (t * t))
    return tuple(dict.fromkeys([2 ** i for i in range(top.bit_length())] + [top]))


def k_functional_estimate(f, t, p, d):
    """Upper estimate of the K-functional K(f, t)_p = inf_g {||f-g||_p +
    t^2 ||Dg||_p}: the minimum of the objective over g = 0 and over the
    means candidates V_m f, V_m^2 f, V_m^7 f (from `means_columns`) for m of
    `default_candidate_degrees(t)`, the norms on the grids of `lp_norms_batch`
    (Gauss order 2K + 32 at p = 1).

    The candidate norms ||f - g||_p and ||Dg||_p do not depend on t: each
    degree's are memoised per run (see `vpmeans.memo`) on f's bytes, p, d
    and m, so a sweep over scales computes each once, in one batch."""
    key = _function_key(f) + (float(p), int(d))
    degrees = (0,) + default_candidate_degrees(t)     # 0 stands for g = 0
    missing = [m for m in degrees if key + (m,) not in _CANDIDATES]
    computed = dict(zip(missing, _candidate_norms(f, missing, p, d))) if missing else {}
    norms = np.hstack([_CANDIDATES.lookup(key + (m,), lambda: computed[m]) for m in degrees])
    return float(np.min(norms[0] + t * t * norms[1]))


def _candidate_norms(f, degrees, p, d):
    """Per degree m, the (2, j) array of ||f - g||_p and ||Dg||_p over the
    candidates g = V_m^j f, j in CANDIDATE_POWERS; m = 0 stands for g = 0,
    which comes first in `degrees` if at all."""
    k = np.arange(f.band_limit + 1, dtype=float)
    means = means_columns(f, [m for m in degrees if m], CANDIDATE_POWERS)
    cols = np.column_stack([np.zeros_like(f.coeffs), means]) if 0 in degrees else means
    norms = np.stack([lp_norms_batch(cols, f.lam, p, d, reference=f.coeffs),
                      lp_norms_batch(cols * (k * (k + d - 2.0))[:, None], f.lam, p, d)])
    norms.setflags(write=False)
    sizes = [len(CANDIDATE_POWERS) if m else 1 for m in degrees]
    return np.split(norms, np.cumsum(sizes)[:-1], axis=1)
