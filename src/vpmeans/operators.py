"""Operators on spherical functions: the smoothing means V_n and their powers
V_n^m, and the translation mean S_theta.

Every operator acts diagonally on zonal spectral coefficients; at d = 3 the
translation and the means also have direct geometric realizations (circle
averages and dense grid convolution) that serve as independent oracles.
"""

import math

import numpy as np

from .function_space import GridFunction, ZonalSpectral, zonal_synthesis
from .kernel import kernel_norm_constant, multiplier_prefixes
from .special import q_table

__all__ = [
    "means_columns",
    "vpm_means",
    "translate_spectral",
    "translate_direct",
    "vpm_grid",
    "zonal_point_function",
    "sample_zonal_on_grid",
    "orthonormal_completion",
]


def means_columns(f, degrees, powers=(1,), rows=None):
    """The coefficients of V_n^m f, a_k -> (omega_{n,k})^m a_k, one column per
    (n, m), powers of a degree side by side, from the batch `multiplier_prefixes`
    (1 ulp of `multiplier_weight`); with `rows`, only their first rows k < rows."""
    if min(powers) < 1:
        raise ValueError(f"operator powers must be >= 1, got {tuple(powers)}")
    cols = np.zeros((f.band_limit + 1 if rows is None else rows, len(degrees) * len(powers)))
    for j, w in enumerate(multiplier_prefixes(degrees, f.lam, f.band_limit)):
        w = w[:len(cols)]
        for i, m in enumerate(powers):
            # w ** 1 equals w but costs a pow per entry
            cols[:w.size, j * len(powers) + i] = f.coeffs[:w.size] * (w if m == 1 else w ** m)
    return cols


def vpm_means(f, n, m=1):
    """Apply the m-th power of the degree-n means: a_k -> (omega_{n,k})^m a_k
    (band-limits to n)."""
    return ZonalSpectral(f.lam, means_columns(f, [n], (m,))[:, 0])


def translate_spectral(f, theta):
    """Apply the translation mean at step theta: a_k -> Q_k(cos theta) a_k."""
    if not 0.0 < theta < np.pi:
        raise ValueError(f"translation requires 0 < theta < pi, got {theta}")
    return ZonalSpectral(f.lam, f.coeffs * q_table(f.band_limit, f.lam, theta)[0])


# ---------------------------------------------------------------------------
# direct (geometric) pathways at d = 3

_NORTH = np.array([0.0, 0.0, 1.0])
_XAXIS = np.array([1.0, 0.0, 0.0])


def orthonormal_completion(mu):
    """Deterministic orthonormal pair {u, v} completing the unit vector mu:
    u = normalize(a x mu) with a the north pole, or the x-axis when
    |mu_z| > 0.9; v = mu x u."""
    a = _XAXIS if abs(mu[2]) > 0.9 else _NORTH
    u = np.cross(a, mu)
    u = u / np.linalg.norm(u)
    v = np.cross(mu, u)
    return u, v


def zonal_point_function(profile, pole):
    """Lift a zonal function to a function of S^2 points about `pole`:
    f(nu) = g(arccos(pole . nu)).  Accepts a profile callable of the polar
    angle or a ZonalSpectral; returns a callable of (m, 3) point arrays."""
    pole = np.asarray(pole, dtype=float)
    if isinstance(profile, ZonalSpectral):
        spectral = profile
        g = lambda theta: zonal_synthesis(spectral.coeffs, spectral.lam, np.cos(theta))
    else:
        g = profile

    def f(points):
        dots = np.clip(np.asarray(points, dtype=float) @ pole, -1.0, 1.0)
        return g(np.arccos(dots))

    return f


def translate_direct(f_eval, theta, point, circle_order):
    """Mean of f over the circle of geodesic radius theta about `point`,
    computed by the trapezoid rule with `circle_order` equispaced stations
    (exact for band-limited f once circle_order exceeds the band limit).

    `f_eval` evaluates f at an (m, 3) array of unit vectors; corpus functions
    supply it through `zonal_point_function`.  A `circle_order` below 1, which
    leaves no station to average, raises ValueError.
    """
    if not 0.0 < theta < np.pi:
        raise ValueError(f"translation requires 0 < theta < pi, got {theta}")
    if circle_order < 1:
        raise ValueError(f"translate_direct requires circle_order >= 1, got {circle_order}")
    mu = np.asarray(point, dtype=float)
    nrm = np.linalg.norm(mu)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError("translate_direct requires a unit point")
    mu = mu / nrm
    u, v = orthonormal_completion(mu)
    phi = 2.0 * np.pi * np.arange(circle_order) / circle_order
    circle = (math.cos(theta) * mu[None, :]
              + math.sin(theta) * (np.outer(np.cos(phi), u) + np.outer(np.sin(phi), v)))
    return float(np.mean(np.asarray(f_eval(circle), dtype=float)))


# rows of the vpm_grid kernel matrix formed at once, bounding its memory
GRID_BLOCK_ROWS = 64


def vpm_grid(f, n):
    """Dense grid convolution with the degree-n kernel at d = 3:

        (V_n f)(mu_i) = (1/(2 pi)) sum_j w_j f(nu_j) v_n(arc(mu_i, nu_j)).

    O(N^2) on purpose: the straightforward quadrature of the convolution is
    the oracle for the spectral route.
    """
    pts = f.grid.points
    wf = f.grid.point_weights * f.values
    scale = math.exp(-kernel_norm_constant(n, 3)) / (2.0 * np.pi)
    out = np.empty(len(pts))
    for start in range(0, len(pts), GRID_BLOCK_ROWS):
        rows = slice(start, start + GRID_BLOCK_ROWS)
        # v_n(arc(mu, nu)) = ((1 + mu.nu)/2)^n / I, no arccos needed
        s = np.clip(0.5 + 0.5 * (pts[rows] @ pts.T), 0.0, 1.0)
        out[rows] = (s ** n) @ wf
    return GridFunction(grid=f.grid, values=out * scale)


def sample_zonal_on_grid(profile, grid, pole=_NORTH):
    """Sample a zonal profile about `pole` at the grid points."""
    f = zonal_point_function(profile, pole)
    return GridFunction(grid=grid, values=np.asarray(f(grid.points), dtype=float))
