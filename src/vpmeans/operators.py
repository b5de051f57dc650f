"""Operators on spherical functions: the smoothing means V_n and their powers
V_n^m, the translation mean S_theta, and the Laplace-Beltrami multipliers.

Every operator acts diagonally on zonal spectral coefficients; at d = 3 the
translation and the means also have direct geometric realizations (circle
averages and dense grid convolution) that serve as independent oracles.
"""

import math

import numpy as np

from .function_space import GridFunction, ZonalSpectral, zonal_synthesis
from .kernel import MultiplierSequence, kernel_spec, multiplier_sequence
from .special import q_table

__all__ = [
    "vpm_multipliers",
    "vpm_power_multipliers",
    "translation_multipliers",
    "laplace_multipliers",
    "apply_multiplier",
    "vpm_means",
    "vpm_iterated",
    "translate_spectral",
    "translate_direct",
    "laplace_beltrami",
    "vpm_grid",
    "zonal_point_function",
    "sample_zonal_on_grid",
    "orthonormal_completion",
]


def vpm_multipliers(n, lam, k_max):
    """Multipliers of the degree-n means: omega_{n,k} for k = 0..k_max."""
    return MultiplierSequence(values=multiplier_sequence(n, lam, k_max),
                              source=f"vpm(n={n})")


def vpm_power_multipliers(n, m, lam, k_max):
    """Multipliers of the m-th operator power: (omega_{n,k})^m."""
    if m < 1:
        raise ValueError(f"operator power must be >= 1, got {m}")
    return MultiplierSequence(values=multiplier_sequence(n, lam, k_max) ** m,
                              source=f"vpm_power(n={n},m={m})")


def translation_multipliers(theta, lam, k_max):
    """Multipliers of the translation mean: Q_k(cos theta) for k = 0..k_max."""
    if not 0.0 < theta < np.pi:
        raise ValueError(f"translation requires 0 < theta < pi, got {theta}")
    return MultiplierSequence(values=q_table(k_max, lam, theta)[0],
                              source=f"translation(theta={theta})")


def laplace_multipliers(lam, k_max, power=1):
    """Multipliers of the Laplace-Beltrami operator (or its square):
    (-k(k+d-2))^power with d = 2 lam + 2."""
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power}")
    k = np.arange(k_max + 1, dtype=float)
    eig = -k * (k + 2.0 * lam)
    name = "laplace_beltrami" if power == 1 else "laplace_beltrami_squared"
    return MultiplierSequence(values=eig ** power, source=name)


def apply_multiplier(f, mult):
    """Coefficient-wise product a_k -> mult.values[k] * a_k."""
    if len(mult.values) < len(f.coeffs):
        raise ValueError(f"multiplier sequence of length {len(mult.values)} is shorter "
                         f"than the coefficient vector of length {len(f.coeffs)}")
    return ZonalSpectral(lam=f.lam, coeffs=f.coeffs * mult.values[:len(f.coeffs)])


def vpm_means(f, n):
    """Apply the degree-n means: a_k -> omega_{n,k} a_k (band-limits to n)."""
    return apply_multiplier(f, vpm_multipliers(n, f.lam, f.band_limit))


def vpm_iterated(f, n, m):
    """Apply the m-th power of the degree-n means: a_k -> (omega_{n,k})^m a_k."""
    return apply_multiplier(f, vpm_power_multipliers(n, m, f.lam, f.band_limit))


def translate_spectral(f, theta):
    """Apply the translation mean at step theta: a_k -> Q_k(cos theta) a_k."""
    return apply_multiplier(f, translation_multipliers(theta, f.lam, f.band_limit))


def laplace_beltrami(f, power=1):
    """Apply the Laplace-Beltrami operator (power 1) or its square (power 2).

    The square is realized as two applications, which makes power 2 agree
    with repeated power 1 coefficient-for-coefficient."""
    if power not in (1, 2):
        raise ValueError(f"power must be 1 or 2, got {power}")
    out = apply_multiplier(f, laplace_multipliers(f.lam, f.band_limit, power=1))
    if power == 2:
        out = apply_multiplier(out, laplace_multipliers(f.lam, f.band_limit, power=1))
    return out


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
    supply it through `zonal_point_function`.
    """
    if not 0.0 < theta < np.pi:
        raise ValueError(f"translation requires 0 < theta < pi, got {theta}")
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


def vpm_grid(f, n, spec=None, block=1024):
    """Dense grid convolution with the degree-n kernel at d = 3:

        (V_n f)(mu_i) = (1/(2 pi)) sum_j w_j f(nu_j) v_n(arc(mu_i, nu_j)).

    O(N^2) on purpose: the straightforward quadrature of the convolution is
    the oracle for the spectral route.  `block` bounds the memory of the
    kernel matrix.
    """
    if spec is None:
        spec = kernel_spec(n, 3)
    if spec.d != 3:
        raise ValueError("vpm_grid is a d = 3 pathway")
    pts = f.grid.points
    wf = f.grid.point_weights * f.values
    scale = math.exp(-spec.log_norm) / (2.0 * np.pi)
    out = np.empty(len(pts))
    for start in range(0, len(pts), block):
        stop = min(start + block, len(pts))
        # v_n(arc(mu, nu)) = ((1 + mu.nu)/2)^n / I, no arccos needed
        s = np.clip(0.5 + 0.5 * (pts[start:stop] @ pts.T), 0.0, 1.0)
        out[start:stop] = (s ** spec.n) @ wf
    return GridFunction(grid=f.grid, values=out * scale)


def sample_zonal_on_grid(profile, grid, pole=_NORTH):
    """Sample a zonal profile about `pole` at the grid points."""
    f = zonal_point_function(profile, pole)
    return GridFunction(grid=grid, values=np.asarray(f(grid.points), dtype=float))
