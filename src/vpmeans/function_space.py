"""Function representations on the sphere and their L^p norms.

Two pathways coexist: zonal spectral coefficients against the normalized
Gegenbauer system Q_k (any d >= 3), and raw samples on the S^2 product grid
(d = 3 only), which serve as an independent oracle for the spectral route.
Spectral L^2 norms come from Parseval; other L^p norms synthesise the even
and odd degrees on half of a grid symmetric about pi/2 and mirror them.
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
    "zonal_project_many",
    "lp_norm_zonal",
    "lp_norms_batch",
    "lp_norm_maxima",
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
# projections, memoised per run on (lam, band limit, grid kind, size); the
# memo's run log holds (p, synthesised, skipped) per p != 2 of lp_norm_maxima

_CONTEXTS = RunMemo("synthesis_context")


@dataclass(frozen=True)
class _SynthesisContext:
    theta: np.ndarray        # colatitude samples, the full grid
    weights: np.ndarray | None  # polar quadrature weights incl. sin^(d-2), or None for dense grids
    even: np.ndarray         # (ceil(N/2), k_max//2 + 1) Q_0, Q_2, ... on the nodes theta <= pi/2
    odd: np.ndarray          # (ceil(N/2), (k_max+1)//2) Q_1, Q_3, ... on the same nodes


def synthesis_context(lam, k_max, kind, size):
    """Q-table context, memoised per run (see `vpmeans.memo`); kind is "gauss"
    (mapped rule on [0, pi], with sin^(2 lam)-weighted quadrature weights) or
    "dense" (uniform colatitudes including the endpoints, no weights).  Both
    grids are symmetric about pi/2, so the Q tables cover only the ceil(size/2)
    nodes with theta <= pi/2, split by the parity of k."""
    if kind not in ("gauss", "dense"):
        raise ValueError(f"unknown synthesis grid kind {kind!r}")

    def compute():
        if kind == "gauss":
            theta, w = mapped_rule(0.0, np.pi, size)
            weights = w * np.sin(theta) ** (2.0 * lam)
        else:
            theta = np.linspace(0.0, np.pi, size)
            weights = None
        x = np.cos(theta[:(size + 1) // 2])
        even = np.empty((x.size, k_max // 2 + 1))
        odd = np.empty((x.size, (k_max + 1) // 2))
        for k, q in enumerate(_q_steps(k_max, lam, x)):
            (odd if k % 2 else even)[:, k // 2] = q
        for arr in (theta, even, odd) + (() if weights is None else (weights,)):
            arr.setflags(write=False)
        return _SynthesisContext(theta=theta, weights=weights, even=even, odd=odd)
    return _CONTEXTS.lookup((float(lam), int(k_max), kind, int(size)), compute)


def _profile_callable(f):
    if isinstance(f, ZonalProfile):
        return f.g
    if callable(f):
        return f
    return None


def _projection_table(k_max, lam, order):
    """Synthesis context, full Q table and denominators of a projection."""
    ctx = synthesis_context(lam, k_max, "gauss", 2 * k_max + 32 if order is None else order)
    q = q_table(k_max, lam, ctx.theta)
    den = np.empty(k_max + 1)
    for start in range(0, k_max + 1, BLOCK_COLUMNS):
        block = slice(start, start + BLOCK_COLUMNS)
        den[block] = (q[:, block] ** 2).T @ ctx.weights
    return ctx, q, den


def zonal_project(profile, k_max, lam, order=None, table=None):
    """Project a zonal profile onto Q_0..Q_{k_max}:

        a_k = integral g Q_k sin^(2 lam) / integral Q_k^2 sin^(2 lam),

    both integrals on the mapped Gauss rule of `order` (2 k_max + 32) nodes,
    the denominators in blocks of BLOCK_COLUMNS degrees.  The relative L^2
    residual of the reconstruction is attached to the result.  The full Q
    table, built here unless a `zonal_project_many` batch passes its `table`,
    is then dropped: a parity-folded projection would round differently.
    """
    g = _profile_callable(profile)
    if g is None:
        raise TypeError("zonal_project expects a ZonalProfile or a callable profile")
    ctx, q, den = _projection_table(k_max, lam, order) if table is None else table
    gv = np.asarray(g(ctx.theta), dtype=float)
    coeffs = (q.T @ (ctx.weights * gv)) / den
    recon = q @ coeffs
    ref = math.sqrt(float(ctx.weights @ gv ** 2))
    resid = math.sqrt(max(float(ctx.weights @ (gv - recon) ** 2), 0.0))
    rel = resid / ref if ref > 0 else resid
    coeffs.setflags(write=False)
    return ZonalSpectral(lam=lam, coeffs=coeffs, projection_residual=rel)


def zonal_project_many(profiles, k_max, lam, order=None):
    """`zonal_project` of each profile of a sequence, bit for bit, with one Q
    table and one set of denominators for all; an empty one builds nothing."""
    table = _projection_table(k_max, lam, order) if len(profiles) else None
    return [zonal_project(profile, k_max, lam, order, table=table) for profile in profiles]


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


def lp_norms_batch(coeff_matrix, lam, p, d, order=None, reference=None):
    """L^p norms of many zonal spectral functions at once.

    `coeff_matrix` has one coefficient vector per column; returns one norm per
    column, or with a `reference` coefficient vector R, that of R minus each
    column.  This is the workhorse behind the modulus and K-functional sweeps.

    p = 2 is Parseval, ||g||_2^2 = |S^{d-1}| sum_k a_k^2 / N_k (N_k the
    dimension of the degree-k harmonics): no grid, `order` unused.  Other p
    synthesise blocks of BLOCK_COLUMNS columns, abs and power in place: the
    even- and odd-degree parts E and O on the half grid theta_i <= pi/2, E + O
    there and E - O at the mirrored points pi - theta_i (an odd grid's middle
    node has none), where the p = inf sup is also taken.  R is synthesised
    once and each block subtracted from it, so a column V_n f costs n + 1
    rows; this loses eps ||R|| / ||R - g|| relative, so pass g near R as R - g.

    The grid is fixed by the input shape: the band limit is
    `coeff_matrix.shape[0] - 1`; `order`, for finite p != 2 only, defaults to
    2 * band limit + 32.  Within each block, entries below NEGLIGIBLE are
    dropped and the trailing rows left all zero are skipped in the synthesis
    product; a NaN or inf entry keeps its row.
    """
    if p != INF and p < 1:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    coeff_matrix = np.asarray(coeff_matrix, dtype=float)
    if coeff_matrix.ndim == 1:
        coeff_matrix = coeff_matrix[:, None]
    reference = None if reference is None else np.asarray(reference, dtype=float)[:, None]
    k_max = coeff_matrix.shape[0] - 1
    if p == 2:
        diff = coeff_matrix if reference is None else reference - coeff_matrix
        squares = diff ** 2 if reference is None else np.multiply(diff, diff, out=diff)
        return np.sqrt(surface_area(d) * (_inverse_dims(k_max, lam) @ squares))
    ctx = _norm_context(lam, k_max, p, order)
    ref_vals = None if reference is None else _synthesise(ctx, reference)
    out = np.empty(coeff_matrix.shape[1])
    for start in range(0, coeff_matrix.shape[1], BLOCK_COLUMNS):
        block = slice(start, start + BLOCK_COLUMNS)
        vals = _synthesise(ctx, coeff_matrix[:, block])
        if ref_vals is not None:
            np.subtract(ref_vals, vals, out=vals)
        np.abs(vals, out=vals)
        if p == INF:
            out[block] = np.max(vals, axis=0)
        else:
            vals **= p
            out[block] = ctx.weights @ vals
    if p == INF:
        return out
    return (surface_area(d - 1) * out) ** (1.0 / p)


# relative widening of the bounds of lp_norm_maxima, see there
PRUNE_SLACK = 1e-10
ANCHOR_STRIDE = 8     # lp_norm_maxima's anchors: every 8th column left unpruned


def lp_norm_maxima(coeff_matrix, sizes, lam, ps, d, order=None, reference=None):
    """For each p of `ps`, the max of `lp_norms_batch(coeff_matrix, lam, p, d,
    order, reference)` over each run of consecutive columns, the runs of the
    given `sizes`: one row of run maxima per p.

    One pass over the coefficients bounds each column's norm (p = inf:
    sum_k |a_k|; p = 1: |S^{d-1}|^(1/2) ||g||_2) and, the same way, its step
    to its left neighbour; the prefix sums C of the steps give the chain
    bound ||g_i|| <= ||g_j|| + |C_i - C_j|.  Per p, three rounds synthesise
    each run's top-bound column, then every ANCHOR_STRIDE-th column whose
    bound exceeds its run's max, then the columns whose coefficient bound
    and chain bound from the nearest synthesised column on either side both
    exceed it.  The bounds add the synthesis rounding of the columns they
    involve and of the prefix sums, times (1 + PRUNE_SLACK); see README.md.
    Orders below 2K + 32 at p = 1, p other than 1, 2, inf, and NaN bounds
    prune nothing; past a NaN step the coefficient bounds prune alone; p = 2
    is Parseval.  Each p != 2 logs (p, columns synthesised, columns skipped)
    in the synthesis contexts' log.  The norms, from `_picked_norms`, do not
    depend on which columns are synthesised together, and are those of
    lp_norms_batch up to rounding.
    """
    if any(p != INF and p < 1 for p in ps):
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {list(ps)}")
    coeff_matrix = np.asarray(coeff_matrix, dtype=float)
    k_max, columns = coeff_matrix.shape[0] - 1, coeff_matrix.shape[1]
    starts = np.cumsum([0, *sizes])
    if starts[-1] != columns or min(sizes, default=1) < 1:
        raise ValueError("run sizes must be positive and add up to the column count")
    ref = 0.0 if reference is None else np.asarray(reference, dtype=float)[:, None]
    area, eps, inverse_dims = surface_area(d), np.finfo(float).eps, _inverse_dims(k_max, lam)
    sums, l2, mass = np.empty(columns), np.empty(columns), np.full(columns, np.sum(np.abs(ref)))
    steps = {INF: np.zeros(columns), 1: np.zeros(columns)}
    for start in range(0, columns, BLOCK_COLUMNS):
        at, left = slice(start, start + BLOCK_COLUMNS), max(start - 1, 0)
        a = np.abs(ref - coeff_matrix[:, at])
        sums[at] = a.sum(axis=0)
        l2[at] = np.sqrt(area * np.einsum("k,kj->j", inverse_dims, a * a))
        mass[at] += np.abs(coeff_matrix[:, at]).sum(axis=0)
        step = np.diff(coeff_matrix[:, left:at.stop], axis=1)     # a (K + 1) x 65 slice
        steps[INF][left + 1:at.stop] = np.abs(step).sum(axis=0)
        steps[1][left + 1:at.stop] = area * np.sqrt(np.einsum("k,kj->j", inverse_dims, step * step))
    bounds = {INF: sums, 1: math.sqrt(area) * l2}
    if order is not None and order < 2 * k_max + 32:
        del bounds[1]
    rows = []
    for p in ps:
        if p == 2:
            rows.append(np.maximum.reduceat(l2, starts[:-1]))
            continue
        rounding = (k_max + 1) * eps * mass * (1.0 if p == INF else area)
        prefix = np.cumsum(steps[p] if p in bounds else np.full(columns, np.nan))
        ctx = _norm_context(lam, k_max, p, order)
        rows.append(_pruned_maxima(
            ctx, p, d, coeff_matrix, starts, (bounds.get(p, INF) + rounding) * (1.0 + PRUNE_SLACK),
            prefix, rounding + columns * eps * prefix,
            None if reference is None else _synthesise(ctx, ref)))
    return np.array(rows)


def _pruned_maxima(ctx, p, d, coeff_matrix, starts, bound, prefix, rounding, ref_vals):
    """The three rounds of `lp_norm_maxima` at one p."""
    out, done = np.full(coeff_matrix.shape[1], -INF), np.zeros(coeff_matrix.shape[1], dtype=bool)

    def synthesise(picked):     # then the max of each column's run
        out[picked], done[picked] = _picked_norms(ctx, p, d, coeff_matrix, picked, ref_vals), True
        return np.repeat(np.maximum.reduceat(out, starts[:-1]), np.diff(starts))

    run_max = synthesise(np.array([i + np.argmax(bound[i:j]) for i, j in zip(starts, starts[1:])],
                                   dtype=int))
    alive = np.flatnonzero(~(bound <= run_max) & ~done)      # a NaN bound stays alive
    run_max = synthesise(alive[::ANCHOR_STRIDE])
    alive, near = alive[~done[alive]], np.flatnonzero(done)
    at = np.searchsorted(near, alive)
    chain = np.fmin(*(out[j] + rounding[j] + np.abs(prefix[alive] - prefix[j])
                      for j in (near[np.maximum(at - 1, 0)], near[np.minimum(at, near.size - 1)])))
    # fmin: each bound holds alone, so a NaN chain leaves the coefficient bound
    smaller = np.fmin(bound[alive], (chain + rounding[alive]) * (1.0 + PRUNE_SLACK))
    synthesise(alive[~(smaller <= run_max[alive])])
    _CONTEXTS.log.append((p, int(done.sum()), int(done.size - done.sum())))
    return np.maximum.reduceat(out, starts[:-1])


def _norm_context(lam, k_max, p, order):
    """The synthesis context of an L^p norm, p != 2, at band limit k_max."""
    if p == INF:
        return synthesis_context(lam, k_max, "dense", DENSE_GRID_SIZE)
    return synthesis_context(lam, k_max, "gauss", order if order is not None else 2 * k_max + 32)


def _picked_norms(ctx, p, d, coeff_matrix, picked, ref_vals):
    """The L^p norms of the `picked` columns (of ref_vals minus each), on the
    grid of `ctx`, independent of which columns are picked together: they
    are gathered C-ordered BLOCK_COLUMNS at a time and padded with zero
    columns to a multiple of 8, as BLAS rounds a product of another width
    (one column above all) differently, and summed row by row, as a
    matrix-vector product does not."""
    out = np.empty(len(picked))
    for start in range(0, len(picked), BLOCK_COLUMNS):
        block = np.take(coeff_matrix, picked[start:start + BLOCK_COLUMNS], axis=1)
        width = block.shape[1]
        vals = _synthesise(ctx, np.pad(block, ((0, 0), (0, -width % 8))))
        if ref_vals is not None:
            np.subtract(ref_vals, vals, out=vals)
        np.abs(vals, out=vals)
        if p != INF:
            vals **= p
        norms = np.max(vals, axis=0) if p == INF else np.einsum("i,ij->j", ctx.weights, vals)
        out[start:start + BLOCK_COLUMNS] = norms[:width]
    return out if p == INF else (surface_area(d - 1) * out) ** (1.0 / p)


# below 2^-960 a coefficient moves no synthesised value (|Q_k| <= 1); as a
# subnormal (multiplier weights near k = n) it slows a BLAS product severalfold
NEGLIGIBLE = 2.0 ** -960


def _synthesise(ctx, coeffs):
    """The columns of `coeffs` on the full grid of `ctx`, from their live rows."""
    small = np.abs(coeffs) < NEGLIGIBLE          # False for NaN: its row stays
    live = np.flatnonzero(~np.all(small, axis=1))
    rows = live[-1] + 1 if live.size else 0
    coeffs, small = coeffs[:rows], small[:rows]
    if np.any(small & (coeffs != 0.0)):
        coeffs = np.where(small, 0.0, coeffs)
    even = ctx.even[:, :(rows + 1) // 2] @ coeffs[0::2]
    odd = ctx.odd[:, :rows // 2] @ coeffs[1::2]
    n_mirrored = ctx.theta.size // 2   # node size-1-i is pi - theta_i
    vals = np.empty((ctx.theta.size, even.shape[1]))
    np.add(even, odd, out=vals[:len(even)])
    np.subtract(even[:n_mirrored], odd[:n_mirrored], out=vals[::-1][:n_mirrored])
    return vals


def _inverse_dims(k_max, lam):
    """1 / N_k, k = 0..k_max, by N_{k+1}/N_k = (k+2 lam)(2k+2 lam+2)/((k+1)(2k+2 lam)):
    `harmonic_dim`'s exact binomials overflow a float at large d."""
    k = np.arange(k_max, dtype=float)
    ratio = (k + 1.0) * (2.0 * k + 2.0 * lam) / ((k + 2.0 * lam) * (2.0 * k + 2.0 * lam + 2.0))
    return np.concatenate(([1.0], np.cumprod(ratio)))


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
