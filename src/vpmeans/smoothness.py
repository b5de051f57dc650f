"""Modulus of smoothness and K-functional estimate.

The modulus omega(f, t)_p = sup_{0 < theta <= t} ||f - S_theta f||_p is
evaluated as a max over a geometric grid of translation steps.  The
K-functional inf_g {||f - g||_p + t^2 ||Dg||_p} is estimated from above over
the candidate family {0} union {V_m f, V_m^2 f, V_m^7 f} with dyadic degrees
m matched to the scale t ~ m^(-1/2); a larger candidate set can only lower
the estimate, never invalidate it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .function_space import lp_norms_batch
from .kernel import multiplier_sequence
from .memo import RunMemo
from .special import q_table

__all__ = [
    "ModulusQuery",
    "KFunctionalQuery",
    "modulus",
    "translation_error_norms",
    "k_functional_estimate",
    "default_candidate_degrees",
    "equivalence_rows",
]

# iterated-operator powers always offered as K-functional candidates
CANDIDATE_POWERS = (1, 2, 7)


@dataclass(frozen=True)
class ModulusQuery:
    """One modulus evaluation: corpus function id, scale t, norm index p."""
    function_id: str
    t: float
    p: float
    theta_grid_size: int = 64
    d: int = 3

    def __post_init__(self):
        if not 0.0 < self.t <= np.pi:
            raise ValueError(f"modulus scale must be in (0, pi], got {self.t}")


@dataclass(frozen=True)
class KFunctionalQuery:
    """One K-functional estimate: corpus function id, scale t, norm index p,
    and the smoothing degrees whose means are offered as candidates."""
    function_id: str
    t: float
    p: float
    candidate_degrees: tuple = ()
    d: int = 3

    def __post_init__(self):
        if self.candidate_degrees and min(self.candidate_degrees) < 1:
            raise ValueError("candidate degrees must all be >= 1")


def _theta_scan(t, size):
    # geometric grid on (0, t]; the translation mean is defined on (0, pi),
    # so a top point at exactly pi is dropped
    grid = np.geomspace(t / 256.0, t, size)
    return grid[grid < np.pi]


_DAMPING = RunMemo("theta_scan")
_MODULUS = RunMemo("modulus")


def _damping_table(k_max, lam, thetas):
    """Read-only (T, k_max+1) table 1 - Q_k(cos theta), memoised per run on
    (k_max, lam, theta grid); for `modulus` the grid is fixed by t and the
    grid size."""
    def compute():
        table = 1.0 - q_table(k_max, lam, thetas)
        table.setflags(write=False)
        return table
    return _DAMPING.lookup((k_max, float(lam), thetas.tobytes()), compute)


def translation_error_norms(f, thetas, p, d, order=None):
    """||f - S_theta f||_p for a batch of translation steps theta."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any((thetas <= 0.0) | (thetas >= np.pi)):
        raise ValueError("translation steps must lie in (0, pi)")
    damp = _damping_table(f.band_limit, f.lam, thetas)     # (T, K+1)
    cols = f.coeffs[:, None] * damp.T
    return lp_norms_batch(cols, f.lam, p, d, order=order)


def modulus(f, t, p, d, theta_grid_size=64, order=None):
    """Modulus of smoothness omega(f, t)_p of a zonal spectral function:
    max over a geometric grid of theta in (0, t] of ||f - S_theta f||_p.

    The value is memoised for the current run (see `vpmeans.memo`) on the
    exact coefficient bytes and every argument, so the suites that meet the
    same cell omega(f, n^(-1/2))_p compute it once.
    """
    if not 0.0 < t <= np.pi:
        raise ValueError(f"modulus scale must be in (0, pi], got {t}")
    key = (f.coeffs.dtype.str, f.coeffs.shape, f.coeffs.tobytes(), float(f.lam),
           float(t), float(p), int(d), int(theta_grid_size), order)

    def compute():
        thetas = _theta_scan(t, theta_grid_size)
        return float(np.max(translation_error_norms(f, thetas, p, d, order=order)))
    return _MODULUS.lookup(key, compute)


def default_candidate_degrees(t):
    """Dyadic degrees 1, 2, 4, ... up to 4*ceil(1/t^2), the scale at which
    the means resolve features of size t."""
    top = 4 * math.ceil(1.0 / (t * t))
    degrees = []
    m = 1
    while m <= top:
        degrees.append(m)
        m *= 2
    if degrees[-1] != top:
        degrees.append(top)
    return tuple(degrees)


def k_functional_estimate(f, t, p, d, candidate_degrees=None, order=None):
    """Upper estimate of the K-functional K(f, t)_p = inf_g {||f-g||_p +
    t^2 ||Dg||_p}: the minimum of the objective over g = 0 and over the
    means candidates V_m f, V_m^2 f, V_m^7 f."""
    if candidate_degrees is None:
        candidate_degrees = default_candidate_degrees(t)
    if len(candidate_degrees) == 0 or min(candidate_degrees) < 1:
        raise ValueError("candidate degrees must be a nonempty set of integers >= 1")
    k = np.arange(f.band_limit + 1, dtype=float)
    eig = k * (k + d - 2.0)
    diff_cols = [f.coeffs]                 # g = 0: objective is ||f||_p
    lap_cols = [np.zeros_like(f.coeffs)]
    for m in candidate_degrees:
        w = multiplier_sequence(m, f.lam, f.band_limit)
        for j in CANDIDATE_POWERS:
            g = f.coeffs * w ** j
            diff_cols.append(f.coeffs - g)
            lap_cols.append(g * eig)
    diffs = lp_norms_batch(np.column_stack(diff_cols), f.lam, p, d, order=order)
    laps = lp_norms_batch(np.column_stack(lap_cols), f.lam, p, d, order=order)
    return float(np.min(diffs + t * t * laps))


def equivalence_rows(f, function_id, p, t_list, d, theta_grid_size=64, order=None):
    """Per-scale rows (function_id, p, t, omega, k_estimate, ratio) comparing
    the modulus with the K-functional estimate; the ratio is NaN when both
    quantities vanish (constants)."""
    rows = []
    for t in t_list:
        om = modulus(f, t, p, d, theta_grid_size=theta_grid_size, order=order)
        kf = k_functional_estimate(f, t, p, d, order=order)
        ratio = om / kf if kf > 1e-12 else float("nan")
        rows.append({"function_id": function_id, "p": p, "t": t,
                     "omega": om, "k_estimate": kf, "ratio": ratio})
    return rows
