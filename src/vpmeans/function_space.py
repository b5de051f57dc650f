"""Function representations on the sphere and their L^p norms.

Two pathways coexist: zonal spectral coefficients against the normalized
Gegenbauer system Q_k (any d >= 3), and raw samples on the S^2 product grid
(d = 3 only), which serve as an independent oracle for the spectral route.
The test corpus (harmonics, geodesic cusps, a smooth bump, a seeded random
band-limited function) lives here as well.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .memo import RunMemo
from .quadrature import SphereGrid, mapped_rule
from .special import _q_steps, q_table

__all__ = [
    "ZonalSpectral",
    "ZonalProfile",
    "GridFunction",
    "surface_area",
    "zonal_synthesis",
    "synthesis_context",
    "zonal_project",
    "lp_norm_zonal",
    "lp_norms_batch",
    "lp_norm_grid",
    "make_corpus",
    "corpus_member",
    "corpus_ids",
]

INF = float("inf")

# number of colatitude samples behind every sup-norm evaluation
DENSE_GRID_SIZE = 4096

# columns that lp_norms_batch and zonal_project process at once: their
# temporaries stay at (grid size) x 64 doubles, 2 MiB on the dense grid,
# instead of growing with the number of functions or degrees
BLOCK_COLUMNS = 64


def surface_area(d):
    """Surface area of the unit sphere S^{d-1}: 2 pi^(d/2) / Gamma(d/2)."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class ZonalSpectral:
    """Zonal function sum_k coeffs[k] Q_k^lam(cos gamma) about an implicit pole.

    `projection_residual` records the relative L^2 defect left by projecting a
    non-band-limited profile, when applicable.
    """
    lam: float
    coeffs: np.ndarray
    projection_residual: float | None = None

    @property
    def band_limit(self):
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class ZonalProfile:
    """Pre-projection zonal function: the profile g of the polar angle,
    f(mu) = g(arc(pole, mu)).  Band-limited members carry their exact
    coefficients."""
    g: Callable
    tag: str
    coeffs: np.ndarray | None = None

    def __call__(self, theta):
        return self.g(theta)


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function on S^2 at the points of a product grid."""
    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != len(self.grid.points):
            raise ValueError("GridFunction values must match the grid point count")


def zonal_synthesis(coeffs, lam, x):
    """Evaluate sum_k coeffs[k] Q_k^lam(x) by accumulating the recurrence."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    steps = _q_steps(len(coeffs) - 1, lam, xa)
    next(steps)
    acc = np.full_like(xa, float(coeffs[0]))
    for c, q in zip(coeffs[1:], steps):
        acc += c * q
    return acc


# ---------------------------------------------------------------------------
# synthesis contexts: Q_k tables over the quadrature nodes used by norms and
# projections, memoised per run on (lam, band limit, grid kind, size)

_CONTEXTS = RunMemo("synthesis_context")


@dataclass(frozen=True)
class _SynthesisContext:
    theta: np.ndarray        # colatitude samples
    weights: np.ndarray | None  # polar quadrature weights incl. sin^(d-2), or None for dense grids
    q_matrix: np.ndarray     # (len(theta), k_max+1) table of Q_k(cos theta)


def synthesis_context(lam, k_max, kind, size):
    """Q-table context, memoised per run (see `vpmeans.memo`); kind is "gauss"
    (mapped rule on [0, pi], with sin^(2 lam)-weighted quadrature weights) or
    "dense" (uniform colatitudes including the endpoints, no weights)."""
    if kind not in ("gauss", "dense"):
        raise ValueError(f"unknown synthesis grid kind {kind!r}")

    def compute():
        if kind == "gauss":
            theta, w = mapped_rule(0.0, np.pi, size)
            weights = w * np.sin(theta) ** (2.0 * lam)
        else:
            theta = np.linspace(0.0, np.pi, size)
            weights = None
        q = q_table(k_max, lam, theta)
        for arr in (theta, q) + (() if weights is None else (weights,)):
            arr.setflags(write=False)
        return _SynthesisContext(theta=theta, weights=weights, q_matrix=q)
    return _CONTEXTS.lookup((float(lam), int(k_max), kind, int(size)), compute)


def _profile_callable(f):
    if isinstance(f, ZonalProfile):
        return f.g
    if callable(f):
        return f
    return None


def zonal_project(profile, k_max, lam, order=None):
    """Project a zonal profile onto Q_0..Q_{k_max}:

        a_k = integral g Q_k sin^(2 lam) / integral Q_k^2 sin^(2 lam),

    both integrals on the same mapped Gauss rule, the denominators in blocks
    of BLOCK_COLUMNS degrees.  The relative L^2 residual of the
    reconstruction is attached to the result.
    """
    g = _profile_callable(profile)
    if g is None:
        raise TypeError("zonal_project expects a ZonalProfile or a callable profile")
    if order is None:
        order = 2 * k_max + 32
    ctx = synthesis_context(lam, k_max, "gauss", order)
    gv = np.asarray(g(ctx.theta), dtype=float)
    num = ctx.q_matrix.T @ (ctx.weights * gv)
    den = np.empty(k_max + 1)
    for start in range(0, k_max + 1, BLOCK_COLUMNS):
        block = slice(start, start + BLOCK_COLUMNS)
        den[block] = (ctx.q_matrix[:, block] ** 2).T @ ctx.weights
    coeffs = num / den
    recon = ctx.q_matrix @ coeffs
    ref = math.sqrt(float(ctx.weights @ gv ** 2))
    resid = math.sqrt(max(float(ctx.weights @ (gv - recon) ** 2), 0.0))
    rel = resid / ref if ref > 0 else resid
    coeffs.setflags(write=False)
    return ZonalSpectral(lam=lam, coeffs=coeffs, projection_residual=rel)


def lp_norm_zonal(f, p, d, order=None):
    """L^p(S^{d-1}) norm of a zonal function (spectral or profile form).

    For p < infinity this is the unnormalized surface integral reduced to one
    dimension, (|S^{d-2}| integral_0^pi |g|^p sin^(d-2) theta dtheta)^(1/p);
    for p = infinity, the max of |g| over a dense colatitude grid.  Spectral
    input goes through `lp_norms_batch`; the profile route samples g directly
    and serves as its oracle.
    """
    if p != INF and p < 1:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    lam = (d - 2) / 2.0
    if isinstance(f, ZonalSpectral):
        if abs(f.lam - lam) > 1e-12:
            raise ValueError(f"function has lam={f.lam}, inconsistent with d={d}")
        return float(lp_norms_batch(f.coeffs, lam, p, d, order=order)[0])
    g = _profile_callable(f)
    if g is None:
        raise TypeError("lp_norm_zonal expects a ZonalSpectral, ZonalProfile, or callable")
    if p == INF:
        theta = np.linspace(0.0, np.pi, DENSE_GRID_SIZE)
        return float(np.max(np.abs(np.asarray(g(theta), dtype=float))))
    theta, w = mapped_rule(0.0, np.pi, order if order is not None else DENSE_GRID_SIZE)
    vals = np.asarray(g(theta), dtype=float)
    weights = w * np.sin(theta) ** (2.0 * lam)
    return float((surface_area(d - 1) * np.dot(weights, np.abs(vals) ** p)) ** (1.0 / p))


def lp_norms_batch(coeff_matrix, lam, p, d, order=None):
    """L^p norms of many zonal spectral functions at once.

    `coeff_matrix` has one coefficient vector per column; returns one norm per
    column.  This is the workhorse behind the modulus and K-functional sweeps,
    where hundreds of coefficient vectors share the same synthesis table.
    Columns are synthesised in blocks of BLOCK_COLUMNS, with `abs` and
    the power taken in place, so the working set does not grow with the
    number of columns.

    The quadrature grid is fixed by the input shape: the band limit is
    `coeff_matrix.shape[0] - 1` and the Gauss order defaults to
    2 * band limit + 32.  Within each block, the trailing rows whose entries
    are all exact zeros are skipped in the synthesis product, since they add
    only zeros; a NaN or inf entry keeps its row.
    """
    if p != INF and p < 1:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    coeff_matrix = np.asarray(coeff_matrix, dtype=float)
    if coeff_matrix.ndim == 1:
        coeff_matrix = coeff_matrix[:, None]
    k_max = coeff_matrix.shape[0] - 1
    if p == INF:
        ctx = synthesis_context(lam, k_max, "dense", DENSE_GRID_SIZE)
    else:
        size = order if order is not None else 2 * k_max + 32
        ctx = synthesis_context(lam, k_max, "gauss", size)
    out = np.empty(coeff_matrix.shape[1])
    for start in range(0, coeff_matrix.shape[1], BLOCK_COLUMNS):
        block = slice(start, start + BLOCK_COLUMNS)
        live = np.flatnonzero(np.any(coeff_matrix[:, block] != 0.0, axis=1))
        rows = live[-1] + 1 if live.size else 0
        vals = ctx.q_matrix[:, :rows] @ coeff_matrix[:rows, block]
        np.abs(vals, out=vals)
        if p == INF:
            out[block] = np.max(vals, axis=0)
        else:
            vals **= p
            out[block] = ctx.weights @ vals
    if p == INF:
        return out
    return (surface_area(d - 1) * out) ** (1.0 / p)


def lp_norm_grid(f, p):
    """Weighted L^p norm of a GridFunction (max of |values| for p = inf)."""
    if p == INF:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    return float(np.dot(f.grid.point_weights, np.abs(f.values) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# test corpus

HARMONIC_DEGREES = (1, 4, 16)
CUSP_EXPONENTS = (0.5, 1.0, 1.5)
RANDBAND_LIMIT = 20


def _harmonic_profile(k, lam):
    def g(theta):
        c = np.zeros(k + 1)
        c[k] = 1.0
        return zonal_synthesis(c, lam, np.cos(np.asarray(theta, dtype=float)))
    return g


def make_corpus(d, seed=42):
    """Deterministic corpus of zonal test functions on S^{d-1}:

    - harmonic:k     single normalized Gegenbauer harmonic Q_k, k in {1, 4, 16}
    - cusp:alpha     geodesic cusp theta^alpha, alpha in {0.5, 1.0, 1.5}
    - bump           smooth exp(-4 theta^2)
    - randband:seedS coefficients i.i.d. uniform in [-1, 1] for k <= 20
    """
    if d < 3:
        raise ValueError(f"make_corpus requires d >= 3, got {d}")
    lam = (d - 2) / 2.0
    out = []
    for k in HARMONIC_DEGREES:
        c = np.zeros(k + 1)
        c[k] = 1.0
        c.setflags(write=False)
        out.append(ZonalProfile(g=_harmonic_profile(k, lam), tag=f"harmonic:{k}", coeffs=c))
    for a in CUSP_EXPONENTS:
        out.append(ZonalProfile(g=lambda theta, a=a: np.asarray(theta, dtype=float) ** a,
                                tag=f"cusp:{a}"))
    out.append(ZonalProfile(g=lambda theta: np.exp(-4.0 * np.asarray(theta, dtype=float) ** 2),
                            tag="bump"))
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, RANDBAND_LIMIT + 1)
    c.setflags(write=False)
    out.append(ZonalProfile(g=lambda theta, c=c: zonal_synthesis(c, lam, np.cos(np.asarray(theta, dtype=float))),
                            tag=f"randband:seed{seed}", coeffs=c))
    return out


def corpus_ids(seed=42):
    """The ids of the full corpus, in report order."""
    return tuple(f"harmonic:{k}" for k in HARMONIC_DEGREES) + \
        tuple(f"cusp:{a}" for a in CUSP_EXPONENTS) + ("bump", f"randband:seed{seed}")


def corpus_member(d, function_id, seed=42):
    """Resolve a corpus function by its string id; raises LookupError for
    unknown ids."""
    for member in make_corpus(d, seed=seed):
        if member.tag == function_id:
            return member
    raise LookupError(f"unknown corpus function id: {function_id!r}")
