"""Function representations on the sphere and their L^p norms.

Two pathways coexist: zonal spectral coefficients against the normalized
Gegenbauer system Q_k (any d >= 3), and raw samples on the S^2 product grid
(d = 3 only), which serve as an independent oracle for the spectral route.
Spectral L^2 norms come from Parseval; other L^p norms synthesise the even
and odd degrees on half of a grid symmetric about pi/2 and mirror them, a
reference once per grid and run; the maxima of a sweep read only the rows
where its columns can be non-zero and count their pruning in RUN_RECORDS.
Each synthesis context fills from a Q_k stream of its own (`special._q_rows`);
the projection reads one by parity.  The test corpus (harmonics, geodesic
cusps, a smooth bump, a seeded random band-limited function) lives here too.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .memo import RUN_RECORDS, RunMemo
from .quadrature import SphereGrid, mapped_rule
from .special import BLOCK_COLUMNS, _q_rows

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
    "lp_norm_maxima",
    "lp_norm_grid",
    "make_corpus",
    "corpus_ids",
]

INF = float("inf")

# number of colatitude samples behind every sup-norm evaluation
DENSE_GRID_SIZE = 4096


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
    acc = np.full_like(xa, float(coeffs[0]))

    def accumulate(k, rows):
        for c, q in zip(coeffs[k + (k == 0):k + len(rows)], rows[int(k == 0):]):
            np.add(acc, c * q, out=acc)
    _q_rows(len(coeffs) - 1, lam, xa, accumulate)
    return acc


# ---------------------------------------------------------------------------
# synthesis contexts: Q_k tables over the quadrature nodes used by norms and
# projections, memoised per run on (lam, band limit, grid kind, size)

_CONTEXTS = RunMemo("synthesis_context")
_REFERENCES = RunMemo("reference_synthesis")


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

    def build():
        if kind == "gauss":
            theta, w = mapped_rule(size)
            weights = w * np.sin(theta) ** (2.0 * lam)
        else:
            theta, weights = np.linspace(0.0, np.pi, size), None
        x = np.cos(theta[:(size + 1) // 2])
        even, odd = np.empty((x.size, k_max // 2 + 1)), np.empty((x.size, (k_max + 1) // 2))

        def fill(k, rows):      # k and BLOCK_COLUMNS are even
            cols = slice(k // 2, (k + BLOCK_COLUMNS) // 2)
            even[:, cols], odd[:, cols] = rows[0::2].T, rows[1::2].T
        _q_rows(k_max, lam, x, fill)
        for arr in (theta, even, odd) + (() if weights is None else (weights,)):
            arr.setflags(write=False)
        return _SynthesisContext(theta=theta, weights=weights, even=even, odd=odd)
    return _CONTEXTS.lookup((float(lam), int(k_max), kind, int(size)), build)


def _profile_callable(f):     # a ZonalProfile calls its g
    if callable(f):
        return f
    raise TypeError(f"expected a callable profile, got {type(f).__name__}")


def zonal_project(profiles, k_max, lam):
    """Project each zonal profile of a sequence onto Q_0..Q_{k_max}:

        a_k = integral g Q_k sin^(2 lam) / integral Q_k^2 sin^(2 lam),

    the numerator on the Gauss grid of `lp_norms_batch` at p = 1 by parity
    from its synthesis context (Q_k(-x) = (-1)^k Q_k(x): the even rows meet
    w g plus its mirror, the odd ones w g minus it), the denominator in closed
    form, |S^{d-1}| / (|S^{d-2}| N_k).  The relative L^2 residual of the
    synthesised projection is attached; a batch equals its members alone."""
    gs = [_profile_callable(profile) for profile in profiles]
    if not gs:
        return []
    ctx, _ = _norm_context(lam, k_max, 1.0)
    d, half = 2.0 * lam + 2.0, len(ctx.even)
    den = surface_area(d) / surface_area(d - 1) * _inverse_dims(k_max, lam)
    out = []
    for g in gs:
        vals = np.asarray(g(ctx.theta), dtype=float)
        wg = ctx.weights * vals
        near, far = wg[:half], wg[::-1][:half]      # node size-1-i is pi - theta_i
        coeffs = np.empty(k_max + 1)
        coeffs[0::2], coeffs[1::2] = ctx.even.T @ (near + far), ctx.odd.T @ (near - far)
        coeffs /= den
        coeffs.setflags(write=False)
        resid = vals - _synthesise(ctx, coeffs[:, None])[:, 0]
        ref = math.sqrt(ctx.weights @ vals ** 2)
        out.append(ZonalSpectral(lam, coeffs, math.sqrt(ctx.weights @ resid ** 2) / (ref or 1.0)))
    return out


def lp_norm_zonal(f, p, d, order=None):
    """L^p(S^{d-1}) norm of a zonal profile g, sampled directly: the oracle of
    `lp_norms_batch`, which takes the spectral form.

    For p < infinity this is the unnormalized surface integral reduced to one
    dimension, (|S^{d-2}| integral_0^pi |g|^p sin^(d-2) theta dtheta)^(1/p),
    on the mapped Gauss rule of `order` (default DENSE_GRID_SIZE) points; for
    p = infinity, the max of |g| over a dense colatitude grid.
    """
    if not p >= 1:      # NaN fails
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    lam = (d - 2) / 2.0
    g = _profile_callable(f)
    if p == INF:
        theta = np.linspace(0.0, np.pi, DENSE_GRID_SIZE)
        return float(np.max(np.abs(np.asarray(g(theta), dtype=float))))
    theta, w = mapped_rule(order if order is not None else DENSE_GRID_SIZE)
    vals = np.asarray(g(theta), dtype=float)
    weights = w * np.sin(theta) ** (2.0 * lam)
    return float((surface_area(d - 1) * np.dot(weights, np.abs(vals) ** p)) ** (1.0 / p))


def lp_norms_batch(coeff_matrix, lam, p, order=None, reference=None):
    """L^p(S^{d-1}) norms, d = 2 lam + 2, of many zonal spectral functions at once.

    `coeff_matrix` has one coefficient vector per column; returns one norm per
    column, or with a `reference` coefficient vector R, that of R minus each
    column.  This is the workhorse behind the modulus and K-functional sweeps.

    p = 2 is Parseval, ||g||_2^2 = |S^{d-1}| sum_k a_k^2 / N_k (N_k the
    dimension of the degree-k harmonics): no grid, `order` unused.  Other p
    synthesise blocks of BLOCK_COLUMNS columns, abs and power in place: the
    even- and odd-degree parts E and O on the half grid theta_i <= pi/2, E + O
    there and E - O at the mirrored points pi - theta_i (an odd grid's middle
    node has none), where the p = inf sup is also taken.  R is synthesised
    once per grid and run and each block subtracted from it, so a column V_n f
    costs n + 1 rows; this loses eps ||R|| / ||R - g|| relative, so pass g
    near R as R - g.

    The grid is fixed by the input shape: the band limit is
    `coeff_matrix.shape[0] - 1`; `order`, for finite p != 2 only, defaults to
    2 * band limit + 32.  Within each block, entries below NEGLIGIBLE are
    dropped and the trailing rows left all zero are skipped in the synthesis
    product; a NaN or inf entry keeps its row.
    """
    if not p >= 1:      # NaN fails
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    coeff_matrix = np.asarray(coeff_matrix, dtype=float)
    if coeff_matrix.ndim == 1:
        coeff_matrix = coeff_matrix[:, None]
    reference = None if reference is None else np.asarray(reference, dtype=float)[:, None]
    k_max, d = coeff_matrix.shape[0] - 1, 2.0 * lam + 2.0
    if p == 2:
        diff = coeff_matrix if reference is None else reference - coeff_matrix
        squares = diff ** 2 if reference is None else np.multiply(diff, diff, out=diff)
        return np.sqrt(surface_area(d) * (_inverse_dims(k_max, lam) @ squares))
    ctx, ref_vals = _norm_context(lam, k_max, p, reference, order)
    return _block_norms(ctx, p, d, coeff_matrix.shape[1], lambda s: coeff_matrix[:, s], ref_vals)


def _block_norms(ctx, p, d, count, block, ref_vals):
    """The L^p norms, p != 2, of `count` columns on the grid of `ctx` (of
    ref_vals minus each), `block(s)` giving the coefficients of the columns
    of a slice s, at most BLOCK_COLUMNS wide."""
    out = np.empty(count)
    for start in range(0, count, BLOCK_COLUMNS):
        at = slice(start, start + BLOCK_COLUMNS)
        vals = _synthesise(ctx, block(at))
        if ref_vals is not None:
            np.subtract(ref_vals, vals, out=vals)
        np.abs(vals, out=vals)
        if p == INF:
            out[at] = np.max(vals, axis=0)
        else:
            vals **= p
            out[at] = ctx.weights @ vals
    if p == INF:
        return out
    return (surface_area(d - 1) * out) ** (1.0 / p)


# relative widening of the bounds of lp_norm_maxima, see there
PRUNE_SLACK = 1e-10
ANCHOR_STRIDE = 8     # lp_norm_maxima's anchors: every 8th column left unpruned


def lp_norm_maxima(columns, sizes, lam, ps, k_max, reference=None):
    """For each p of `ps`, the max of the `lp_norms_batch` norms (of
    `reference` minus each column) over each run of consecutive columns, the
    runs of the given `sizes`: one row of run maxima per p.  The builder
    `columns(indices)` gives the columns of an index array, at most
    BLOCK_COLUMNS at a time and each once in the bound pass, as a C-ordered
    block of their first rows: the rows past the block, up to the band limit
    `k_max`, are zero in every column it gives.

    One pass over the coefficients bounds each column's norm (p = inf:
    sum_k |a_k|; p = 1: |S^{d-1}|^(1/2) ||g||_2) and, the same way, its step
    to its left neighbour; the prefix sums C of the steps give the chain
    bound ||g_i|| <= ||g_j|| + |C_i - C_j|.  Per p, three rounds synthesise
    each run's top-bound column, then every ANCHOR_STRIDE-th column whose
    bound exceeds its run's max, then the columns whose coefficient bound
    and chain bound from the nearest synthesised column on either side both
    exceed it, each round building only its picks.  The bounds add the
    synthesis rounding of the columns they involve and of the prefix sums,
    times (1 + PRUNE_SLACK); see README.md.  p other than 1, 2, inf and NaN
    bounds prune nothing; past a NaN step the coefficient bounds prune alone;
    p = 2 is Parseval.  Each p != 2 appends (p, columns synthesised, columns
    skipped) to RUN_RECORDS["pruning"] (`vpmeans.memo`).  The norms come from
    the block loop of lp_norms_batch and equal its norms up to rounding: BLAS
    may round a column differently next to other columns.
    """
    if any(not p >= 1 for p in ps):
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {list(ps)}")
    if min(sizes, default=0) < 1:
        raise ValueError(f"run sizes must be positive, got {list(sizes)}")
    starts, d = np.cumsum([0, *sizes]), 2.0 * lam + 2.0
    count = int(starts[-1])
    ref = np.zeros(k_max + 1) if reference is None else np.asarray(reference, dtype=float)
    ref_rows, ref = _live_rows(ref), ref[:, None]
    area, eps, inverse_dims = surface_area(d), np.finfo(float).eps, _inverse_dims(k_max, lam)
    sums, l2, mass = np.empty(count), np.empty(count), np.full(count, np.sum(np.abs(ref)))
    steps, left = {INF: np.empty(count), 1: np.empty(count)}, None
    for start in range(0, count, BLOCK_COLUMNS):
        at = slice(start, min(start + BLOCK_COLUMNS, count))
        block = columns(np.arange(at.start, at.stop))
        live, width = block.shape
        if width == 1:      # down one column numpy sums pairwise: trailing zeros move bits
            block, live = np.pad(block, ((0, k_max + 1 - live), (0, 0))), k_max + 1
        rows = max(live, ref_rows)
        a = np.abs(np.broadcast_to(ref[:rows], (rows, width)))
        a[:live] = np.abs(ref[:live] - block)
        sums[at] = a.sum(axis=0)
        l2[at] = np.sqrt(area * np.einsum("k,kj->j", inverse_dims[:rows], a * a))
        mass[at] += np.abs(block).sum(axis=0)
        left = block[:, :1] if left is None else left       # the first column's step is 0
        step = np.zeros((max(live, len(left)), width))      # to the left neighbour
        np.subtract(block[:, 1:], block[:, :-1], out=step[:live, 1:])
        step[:live, :1] = block[:, :1]
        step[:len(left), :1] -= left
        left = block[:, -1:].copy()      # frees the block
        steps[INF][at] = np.abs(step).sum(axis=0)
        steps[1][at] = area * np.sqrt(np.einsum("k,kj->j", inverse_dims[:len(step)], step * step))
    bounds = {INF: sums, 1: math.sqrt(area) * l2}
    rows = []
    for p in ps:
        if p == 2:
            rows.append(np.maximum.reduceat(l2, starts[:-1]))
            continue
        rounding = (k_max + 1) * eps * mass * (1.0 if p == INF else area)
        prefix = np.cumsum(steps[p] if p in bounds else np.full(count, np.nan))
        ctx, ref_vals = _norm_context(lam, k_max, p, None if reference is None else ref)
        rows.append(_pruned_maxima(
            ctx, p, d, columns, starts, (bounds.get(p, INF) + rounding) * (1.0 + PRUNE_SLACK),
            prefix, rounding + count * eps * prefix, ref_vals))
    return np.array(rows)


def _pruned_maxima(ctx, p, d, columns, starts, bound, prefix, rounding, ref_vals):
    """The three rounds of `lp_norm_maxima` at one p."""
    out, done = np.full(starts[-1], -INF), np.zeros(starts[-1], dtype=bool)

    def synthesise(picked):     # then the max of each column's run
        out[picked] = _block_norms(ctx, p, d, len(picked), lambda s: columns(picked[s]), ref_vals)
        done[picked] = True
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
    RUN_RECORDS["pruning"].append((p, int(done.sum()), int(done.size - done.sum())))
    return np.maximum.reduceat(out, starts[:-1])


def _norm_context(lam, k_max, p, reference=None, order=None):
    """(context, R's values): the synthesis context of an L^p norm, p != 2, at
    band limit k_max, and the `reference` column R synthesised on it, memoised
    per run on the grid and R's bytes (None without R): the dense grid at p =
    inf, else the Gauss rule of `order`, by default 2 k_max + 32 nodes, an even
    count."""
    key = (float(lam), int(k_max)) + (("dense", DENSE_GRID_SIZE) if p == INF else
                                      ("gauss", order if order is not None else 2 * k_max + 32))
    ctx = synthesis_context(*key)
    if reference is None:
        return ctx, None

    def compute():      # read-only, as a memo stores it
        vals = _synthesise(ctx, reference)
        vals.setflags(write=False)
        return vals
    return ctx, _REFERENCES.lookup(key + (reference.tobytes(),), compute)


def _live_rows(coeffs):
    """The rows of a coefficient vector up to its last non-zero one."""
    nonzero = np.flatnonzero(coeffs)
    return int(nonzero[-1]) + 1 if nonzero.size else 0


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
    N_k's exact binomials overflow a float at large d."""
    k = np.arange(k_max, dtype=float)
    ratio = (k + 1.0) * (2.0 * k + 2.0 * lam) / ((k + 2.0 * lam) * (2.0 * k + 2.0 * lam + 2.0))
    return np.concatenate(([1.0], np.cumprod(ratio)))


def lp_norm_grid(f, p):
    """Weighted L^p norm of a GridFunction (max of |values| for p = inf)."""
    if p == INF:
        return float(np.max(np.abs(f.values)))
    if not p >= 1:
        raise ValueError(f"p must satisfy 1 <= p <= inf, got {p}")
    return float(np.dot(f.grid.point_weights, np.abs(f.values) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# test corpus

HARMONIC_DEGREES = (1, 4, 16)
CUSP_EXPONENTS = (0.5, 1.0, 1.5)
RANDBAND_LIMIT = 20


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
    tags = iter(corpus_ids(seed))

    def band_limited(c):
        c.setflags(write=False)
        return ZonalProfile(
            g=lambda theta: zonal_synthesis(c, lam, np.cos(np.asarray(theta, dtype=float))),
            tag=next(tags), coeffs=c)
    out = [band_limited((np.arange(k + 1) == k).astype(float)) for k in HARMONIC_DEGREES]
    for a in CUSP_EXPONENTS:
        out.append(ZonalProfile(g=lambda theta, a=a: np.asarray(theta, dtype=float) ** a,
                                tag=next(tags)))
    out.append(ZonalProfile(g=lambda theta: np.exp(-4.0 * np.asarray(theta, dtype=float) ** 2),
                            tag=next(tags)))
    out.append(band_limited(np.random.default_rng(seed).uniform(-1.0, 1.0, RANDBAND_LIMIT + 1)))
    return out


def corpus_ids(seed=42):
    """The ids of the full corpus in report order, which `make_corpus` tags its
    members with; made without a random draw, which would import numpy.random."""
    return tuple(f"harmonic:{k}" for k in HARMONIC_DEGREES) + \
        tuple(f"cusp:{a}" for a in CUSP_EXPONENTS) + ("bump", f"randband:seed{seed}")
