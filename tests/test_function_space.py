import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vpmeans.function_space
import vpmeans.special
from vpmeans.function_space import (BLOCK_COLUMNS, DENSE_GRID_SIZE, INF, NEGLIGIBLE,
                                    GridFunction, ZonalProfile, ZonalSpectral, _context,
                                    _inverse_dims,
                                    corpus_ids, lp_norm_grid, lp_norm_maxima, lp_norm_zonal,
                                    lp_norms_batch, make_corpus, surface_area,
                                    synthesis_context, zonal_project, zonal_synthesis)
from vpmeans.kernel import multiplier_sequence
from vpmeans.memo import clear_run_memos, run_memo_stats
from vpmeans.operators import sample_zonal_on_grid
from vpmeans.quadrature import integrate_theta, mapped_rule, sphere_grid
from vpmeans.smoothness import _damping_table, _theta_scans
from vpmeans.special import _gegenbauer_steps, q_table


def unit(k, size):
    c = np.zeros(size)
    c[k] = 1.0
    return c


def test_surface_area():
    assert surface_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert surface_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)
    assert surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_eval_zonal_basics():
    assert np.all(zonal_synthesis(np.array([3.0]), 0.5, [0.2, -1.0]) == 3.0)
    for k in (0, 2, 9):
        assert zonal_synthesis(unit(k, 10), 1.0, 1.0)[0] == pytest.approx(1.0, rel=1e-14)
    val = zonal_synthesis(unit(1, 4), 0.8, math.cos(math.pi / 3))[0]
    assert val == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
def test_zonal_synthesis_matches_q_table(lam):
    coeffs = np.random.default_rng(3).uniform(-1.0, 1.0, 41)
    theta = np.linspace(0.0, np.pi, 97)
    ref = q_table(40, lam, theta) @ coeffs
    got = zonal_synthesis(coeffs, lam, np.cos(theta))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    # summed degree by degree in the same order, the two agree exactly
    tab = q_table(40, lam, theta)
    acc = np.full(theta.size, coeffs[0])
    for k in range(1, 41):
        acc += coeffs[k] * tab[:, k]
    assert np.array_equal(got, acc)


def test_project_constant_and_cosine():
    out, = zonal_project([lambda t: np.ones_like(t)], 8, 0.5)
    assert out.coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out.coeffs[1:])) <= 1e-12
    out, = zonal_project([lambda t: np.cos(t)], 8, 0.5)
    assert out.coeffs[1] == pytest.approx(1.0, abs=1e-12)
    assert abs(out.coeffs[0]) <= 1e-13 and np.max(np.abs(out.coeffs[2:])) <= 1e-12


def test_project_single_harmonic():
    lam = 1.0
    profile = lambda t: zonal_synthesis(unit(3, 4), lam, np.cos(t))
    out, = zonal_project([profile], 9, lam)
    assert out.coeffs[3] == pytest.approx(1.0, abs=1e-10)
    others = np.delete(out.coeffs, 3)
    assert np.max(np.abs(others)) <= 1e-10
    assert out.projection_residual <= 1e-10


def test_projection_round_trip_pointwise():
    rng = np.random.default_rng(7)
    lam = 1.5
    coeffs = rng.uniform(-1, 1, 13)
    profile = lambda t: zonal_synthesis(coeffs, lam, np.cos(t))
    out, = zonal_project([profile], 20, lam)
    theta = np.linspace(0.0, np.pi, 101)
    recon = zonal_synthesis(out.coeffs, lam, np.cos(theta))
    assert np.max(np.abs(recon - profile(theta))) <= 1e-9


def test_norm_constants():
    one = np.array([1.0])
    assert lp_norms_batch(one, 0.5, 2.0)[0] == pytest.approx(math.sqrt(4 * math.pi), rel=1e-12)
    assert lp_norms_batch(one, 0.5, 1.0)[0] == pytest.approx(4 * math.pi, rel=1e-12)
    assert lp_norms_batch(one, 0.5, INF)[0] == pytest.approx(1.0, rel=1e-14)
    for c, p in ((2.5, 1.0), (-3.0, 2.0), (0.25, 4.0)):
        assert lp_norms_batch(np.array([c]), 0.5, p)[0] == pytest.approx(
            abs(c) * (4 * math.pi) ** (1 / p), rel=1e-12)


def test_norm_of_first_harmonic():
    # ||cos theta||_2^2 = 2 pi * 2/3
    assert lp_norms_batch(unit(1, 2), 0.5, 2.0)[0] == pytest.approx(
        math.sqrt(4 * math.pi / 3), rel=1e-12)


def test_norm_profile_and_spectral_consistency():
    # same quadrature order: the synthesis route and the direct callable
    # route sample identical nodes, so even the |cos| kink at p = 1 cancels
    profile = lambda t: np.cos(t)
    for p in (1.0, 2.0, INF):
        assert lp_norm_zonal(profile, p, 3, order=2048) == pytest.approx(
            lp_norms_batch(unit(1, 2), 0.5, p, order=2048)[0], rel=1e-12)


def test_norm_argument_validation():
    with pytest.raises(ValueError):
        lp_norm_zonal(np.cos, 0.5, 3)
    with pytest.raises(TypeError, match="expected a callable profile, got float$"):
        lp_norm_zonal(3.0, 2.0, 3)
    # the spectral form has its own route, lp_norms_batch
    with pytest.raises(TypeError, match="expected a callable profile, got ZonalSpectral$"):
        lp_norm_zonal(ZonalSpectral(lam=0.5, coeffs=np.ones(3)), 2.0, 3)


@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_lp_norms_batch_derives_d_from_lam(d):
    # the norms of the constant 1 on S^{d-1}: |S^{d-1}| at p = 1 (a 32-node
    # Gauss sum of a smooth integrand, so rounding only), its square root by
    # Parseval at p = 2, and 1 at p = inf; d = 2 lam + 2 is exact for integer
    # and half-integer lam
    e0 = np.array([1.0])
    for p, want in ((1.0, surface_area(d)), (2.0, math.sqrt(surface_area(d))), (INF, 1.0)):
        assert abs(lp_norms_batch(e0, (d - 2) / 2.0, p)[0] - want) <= 4 * np.spacing(want)


def test_lp_norms_batch_matches_single():
    rng = np.random.default_rng(3)
    cols = rng.uniform(-1, 1, (9, 5))
    for p in (1.0, 2.0, INF):
        batch = lp_norms_batch(cols, 0.5, p)
        for j in range(5):
            single = lp_norms_batch(cols[:, j], 0.5, p)[0]
            assert batch[j] == pytest.approx(single, rel=1e-12)


def untrimmed_norms(padded, p, d, order=None):
    """The norms by the slow route: the full Q table over every node of the
    grid, times every padded row, with no parity folding and no Parseval."""
    lam = (d - 2) / 2.0
    k_max = padded.shape[0] - 1
    if p == INF:
        theta = np.linspace(0.0, np.pi, DENSE_GRID_SIZE)
        return np.max(np.abs(q_table(k_max, lam, theta) @ padded), axis=0)
    theta, w = mapped_rule(order if order is not None else 2 * k_max + 32)
    sums = (w * np.sin(theta) ** (2.0 * lam)) @ np.abs(q_table(k_max, lam, theta) @ padded) ** p
    return (surface_area(d - 1) * sums) ** (1.0 / p)


def banded_columns(rng, k_max, support, columns):
    """Columns nonzero up to their own degree <= support and exactly zero
    above it, up to the padded band limit k_max."""
    padded = np.zeros((k_max + 1, columns))
    padded[:support + 1] = rng.uniform(-1.0, 1.0, (support + 1, columns))
    tops = rng.integers(0, support + 1, columns)
    padded[np.arange(k_max + 1)[:, None] > tops] = 0.0
    return padded


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), support=st.integers(0, 40),
       columns=st.integers(1, 2 * BLOCK_COLUMNS + 2), k_max=st.sampled_from([64, 300]),
       odd_order=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_lp_norms_batch_trimmed_matches_full_product(d, support, columns, k_max, odd_order, seed):
    # an odd Gauss order has a middle node at pi/2, which is not mirrored
    padded = banded_columns(np.random.default_rng(seed), k_max, support, columns)
    order = 2 * k_max + 33 if odd_order else None
    for p in (1.0, INF):
        np.testing.assert_allclose(lp_norms_batch(padded, (d - 2) / 2.0, p, order=order),
                                   untrimmed_norms(padded, p, d, order=order),
                                   rtol=1e-13, atol=0.0)


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), support=st.integers(0, 300),
       columns=st.integers(1, 2 * BLOCK_COLUMNS + 2), k_max=st.sampled_from([64, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lp_norms_batch_parseval_matches_gauss(d, support, columns, k_max, seed):
    padded = banded_columns(np.random.default_rng(seed), k_max, min(support, k_max), columns)
    np.testing.assert_allclose(lp_norms_batch(padded, (d - 2) / 2.0, 2.0),
                               untrimmed_norms(padded, 2.0, d), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_inverse_dims_match_harmonic_dim(harmonic_dim, d):
    k_max = 2048
    exact = np.array([1.0 / harmonic_dim(k, d) for k in range(k_max + 1)])
    np.testing.assert_allclose(_inverse_dims(k_max, (d - 2) / 2.0), exact, rtol=1e-13, atol=0.0)


def column_q_table(k_max, lam, x):
    """Q_k(x) for k = 0..k_max, one column per degree straight from the
    recurrence: the slow path that the block-filled tables replaced, kept as
    their oracle."""
    out = np.empty((np.size(x), k_max + 1))
    steps = zip(_gegenbauer_steps(k_max, lam, x), _gegenbauer_steps(k_max, lam, 1.0))
    for k, (p, one) in enumerate(steps):
        out[:, k] = p / one
    return out


@pytest.mark.parametrize("kind, size", [("gauss", 133), ("gauss", 134), ("dense", 97),
                                        ("dense", 98), ("dense", DENSE_GRID_SIZE)])
@pytest.mark.parametrize("k_max", [0, 1, 63, 64, 65, 130])
def test_synthesis_context_half_grid_tables(kind, size, k_max):
    half = (size + 1) // 2
    for lam in (0.5, 1.5):
        ctx = synthesis_context(lam, k_max, kind, size)
        assert ctx.theta.size == size and ctx.even.shape == (half, k_max // 2 + 1)
        assert ctx.odd.shape == (half, (k_max + 1) // 2)
        assert ctx.even.flags.c_contiguous and ctx.odd.flags.c_contiguous
        assert np.all(ctx.theta[:half] <= np.pi / 2) and np.all(ctx.theta[half:] > np.pi / 2)
        assert (ctx.weights is None) == (kind == "dense")
        full = column_q_table(k_max, lam, np.cos(ctx.theta[:half]))
        assert np.array_equal(ctx.even, full[:, 0::2]) and np.array_equal(ctx.odd, full[:, 1::2])


@pytest.mark.parametrize("k_max", [0, 1, 15, 16, 17, 300])
@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_q_table_equals_column_fill(k_max, lam):
    for theta in (np.linspace(0.0, np.pi, 97), np.array([0.3])):
        table = q_table(k_max, lam, theta)
        assert table.flags.c_contiguous
        assert np.array_equal(table, column_q_table(k_max, lam, np.cos(theta)))


def test_cold_context_build_holds_its_tables_and_two_row_blocks():
    # the tables fill from blocks of BLOCK_COLUMNS degrees: transposed copies
    # of whole tables would add their 33.6 MB
    clear_run_memos()
    tracemalloc.start()
    try:
        ctx = synthesis_context(0.5, 2048, "dense", DENSE_GRID_SIZE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_run_memos()
    row_block = BLOCK_COLUMNS * len(ctx.even) * 8
    assert peak <= ctx.even.nbytes + ctx.odd.nbytes + 2 * row_block + 2 ** 20


# rounding bounds of the projection against its oracles; u = eps / 2 is the
# unit roundoff, and a sum of n rounded terms is within gamma(n) of the sum of
# their absolute values (Higham, Accuracy and Stability, 3.1)
EPS = np.finfo(float).eps


def gamma(n):
    return n * (EPS / 2) / (1.0 - n * (EPS / 2))


def closed_denominators(k_max, lam):
    """integral Q_k^2 sin^(2 lam) = |S^{d-1}| / (|S^{d-2}| N_k), k <= k_max."""
    d = 2.0 * lam + 2.0
    return surface_area(d) / surface_area(d - 1) * _inverse_dims(k_max, lam)


def numerator_bound(profile, k_max, lam):
    """N eps sum_i |w_i g_i| / den_k on the projection's N-node rule: two sums
    of the same N products w_i g_i Q_k(x_i), |Q_k| <= 1, in two orders (the
    parity route pairs the mirrored nodes first, N/2 + 1 roundings a term),
    each within gamma(N) sum_i |w_i g_i| of the exact sum, differ by at most
    2 gamma(N) sum_i |w_i g_i|, which is N eps sum_i |w_i g_i| to first order."""
    ctx = synthesis_context(lam, k_max, "gauss", 2 * k_max + 32)
    spread = np.sum(np.abs(ctx.weights * profile(ctx.theta)))
    return 2.0 * gamma(ctx.theta.size) * spread / closed_denominators(k_max, lam)


def coefficient_bound(profile, k_max, lam, ref):
    """The numerator bound, plus the quadrature denominator's rounding,
    gamma(N + 2) relative (`test_closed_denominators_equal_quadrature_sums`),
    of an oracle whose coefficients are `ref`."""
    n = 2 * k_max + 32
    return numerator_bound(profile, k_max, lam) + gamma(n + 2) * np.abs(ref)


def residual_bound(profile, k_max, lam, coeffs, ref_coeffs, resid):
    """The gap two routes may leave between their relative L^2 residuals
    ||g - sum_k a_k Q_k||_w / ||g||_w: the coefficient gap's own term
    sum_k |a_k - a'_k| ||Q_k||_w (triangle inequality, ||Q_k||_w^2 = den_k);
    each route's synthesis, a sum of k_max + 1 products a_k Q_k(x_i) and one
    more for the mirrored parity halves, within gamma(k_max + 2)
    sum_k |a_k| at each node, so within that times ||1||_w = den_0^(1/2) in
    the norm; and each residual's own rounding, two weighted sums of N squares
    and a root and a quotient, gamma(N + 4) relative."""
    ctx = synthesis_context(lam, k_max, "gauss", 2 * k_max + 32)
    values = profile(ctx.theta)
    den = closed_denominators(k_max, lam)
    gap = np.sum(np.abs(coeffs - ref_coeffs) * np.sqrt(den))
    synthesis = 2.0 * gamma(k_max + 2) * np.sum(np.abs(coeffs)) * math.sqrt(den[0])
    return (gap + synthesis) / math.sqrt(ctx.weights @ values ** 2) + \
        2.0 * gamma(ctx.theta.size + 4) * resid


@pytest.mark.parametrize("d", [3, 4, 5, 8])
@pytest.mark.parametrize("k_max", [0, 63, 64, 576])
def test_closed_denominators_equal_quadrature_sums(d, k_max):
    # the Gauss rule of 2 k_max + 32 nodes integrates Q_k^2 sin^(2 lam), of
    # degree 2 k <= 2 k_max, exactly: its sum of N terms w_i Q_k(x_i)^2, each
    # two roundings, is within gamma(N + 2) of the closed form
    lam = (d - 2) / 2.0
    theta, w = mapped_rule(2 * k_max + 32)
    quadrature = (q_table(k_max, lam, theta) ** 2).T @ (w * np.sin(theta) ** (2.0 * lam))
    closed = closed_denominators(k_max, lam)
    assert np.all(np.abs(quadrature - closed) <= gamma(theta.size + 2) * quadrature)


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("k_max", [40, 130])
def test_zonal_project_returns_exact_coefficients_of_band_limited_profiles(lam, k_max):
    cases = [(lambda t, j=j: zonal_synthesis(unit(j, j + 1), lam, np.cos(t)), unit(j, k_max + 1))
             for j in (0, 3, k_max // 2, k_max)]
    if lam == 0.5:      # cos 3 theta = (8 P_3 - 3 P_1) / 5
        cos3 = np.zeros(k_max + 1)
        cos3[1], cos3[3] = -0.6, 1.6
        cases.append((lambda t: np.cos(3.0 * t), cos3))
    for profile, exact in cases:
        out, = zonal_project([profile], k_max, lam)
        assert np.all(np.abs(out.coeffs - exact) <= numerator_bound(profile, k_max, lam))
        assert out.projection_residual <= \
            residual_bound(profile, k_max, lam, out.coeffs, exact, 0.0)


def test_zonal_project_equals_full_table_reference():
    # the full-grid (N x (K + 1)) table of Q_k and quadrature denominators:
    # the route the parity projection replaced, kept as its oracle
    lam = 1.0
    profile = lambda t: np.exp(-4.0 * t ** 2)
    for k_max in (40, 200):         # one degree block, and four
        theta, w = mapped_rule(2 * k_max + 32)
        weights = w * np.sin(theta) ** (2.0 * lam)
        q = q_table(k_max, lam, theta)
        ref = (q.T @ (weights * profile(theta))) / ((q ** 2).T @ weights)
        got = zonal_project([profile], k_max, lam)[0].coeffs
        assert np.all(np.abs(got - ref) <= coefficient_bound(profile, k_max, lam, ref))


def column_stream_projection(profiles, k_max, lam):
    """The coefficients and residuals of one pass that streams Q_k column by
    column over the whole Gauss grid, with quadrature denominators and the
    reconstructions accumulated per 64-degree block: the route the parity
    projection replaced, kept as its oracle."""
    ctx = synthesis_context(lam, k_max, "gauss", 2 * k_max + 32)
    values = [np.asarray(g(ctx.theta), dtype=float) for g in profiles]
    table = column_q_table(k_max, lam, np.cos(ctx.theta))
    coeffs, recon = np.empty((len(values), k_max + 1)), np.zeros((len(values), ctx.theta.size))
    for start in range(0, k_max + 1, BLOCK_COLUMNS):
        block = slice(start, start + BLOCK_COLUMNS)
        q = np.ascontiguousarray(table[:, block])
        den = (q ** 2).T @ ctx.weights
        for c, gv, r in zip(coeffs, values, recon):
            c[block] = (q.T @ (ctx.weights * gv)) / den
            r += q @ c[block]
    norms = [(math.sqrt(ctx.weights @ (gv - r) ** 2), math.sqrt(ctx.weights @ gv ** 2))
             for gv, r in zip(values, recon)]
    return coeffs, [resid / (ref or 1.0) for resid, ref in norms]


@pytest.mark.parametrize("k_max", [0, 63, 64, 65, 130])
@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_zonal_project_equals_column_stream(k_max, lam):
    profiles = [lambda t: np.exp(-4.0 * t ** 2), lambda t: t ** 0.5, lambda t: np.cos(3.0 * t)]
    coeffs, residuals = column_stream_projection(profiles, k_max, lam)
    for out, g, c, resid in zip(zonal_project(profiles, k_max, lam), profiles, coeffs, residuals):
        assert np.all(np.abs(out.coeffs - c) <= coefficient_bound(g, k_max, lam, c))
        assert abs(out.projection_residual - resid) <= \
            residual_bound(g, k_max, lam, out.coeffs, c, resid)


def test_zonal_project_batch_equals_single_projections(q_streams):
    lam, k_max = 1.0, 150
    profiles = [lambda t: np.exp(-4.0 * t ** 2), lambda t: t ** 0.5,
                ZonalProfile(g=lambda t: np.cos(3.0 * t), tag="cos3")]
    clear_run_memos()
    batch = zonal_project(profiles, k_max, lam)
    assert q_streams == [k_max]     # one stream fills the context and serves the whole batch
    for profile, out in zip(profiles, batch):
        single, = zonal_project([profile], k_max, lam)
        assert np.array_equal(out.coeffs, single.coeffs)
        assert out.projection_residual == single.projection_residual
    q_streams.clear()
    assert zonal_project([], k_max, lam) == [] and q_streams == []
    with pytest.raises(TypeError):
        zonal_project([np.ones(3)], k_max, lam)
    clear_run_memos()


@pytest.mark.parametrize("k_max", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("lam", [0.5, 1.5])
def test_shared_stream_tables_equal_tables_built_alone(q_streams, k_max, lam):
    # the Gauss and dense contexts and the theta-scan table filled by one
    # stream, as prepare_corpus fills them, and the projection on them,
    # against each built by its own
    profiles = [lambda t: np.exp(-4.0 * t ** 2), lambda t: t ** 0.5]
    scales = [0.5, 0.125, 0.05]
    thetas, _ = _theta_scans(scales)
    gauss, dense = ("gauss", 2 * k_max + 32), ("dense", DENSE_GRID_SIZE)
    clear_run_memos()
    parts = []
    _context(lam, k_max, *gauss, parts)
    _context(lam, k_max, *dense, parts)
    _damping_table(k_max, lam, thetas, parts)
    vpmeans.special._q_rows(k_max, lam, parts)
    shared = zonal_project(profiles, k_max, lam)
    tables = [synthesis_context(lam, k_max, *gauss), synthesis_context(lam, k_max, *dense),
              _damping_table(k_max, lam, thetas, [])]
    assert q_streams == [k_max]     # one stream filled them all; the projection streams none
    clear_run_memos()
    alone = [synthesis_context(lam, k_max, *gauss), synthesis_context(lam, k_max, *dense),
             1.0 - q_table(k_max, lam, thetas)]
    for ctx, ref in zip(tables[:2], alone[:2]):
        assert np.array_equal(ctx.even, ref.even) and np.array_equal(ctx.odd, ref.odd)
    assert np.array_equal(tables[2], alone[2])
    # the projection with its context memoised, then cold
    for projection in (zonal_project(profiles, k_max, lam),
                       clear_run_memos() or zonal_project(profiles, k_max, lam)):
        for out, ref in zip(shared, projection):
            assert np.array_equal(out.coeffs, ref.coeffs)
            assert out.projection_residual == ref.projection_residual
    clear_run_memos()


def test_lp_norms_batch_synthesises_each_reference_once_per_grid(monkeypatch):
    rng = np.random.default_rng(8)
    ref, cols = rng.uniform(-1.0, 1.0, 101), rng.uniform(-1.0, 1.0, (101, 10))
    clear_run_memos()
    first = [lp_norms_batch(cols, 1.0, p, reference=ref) for p in (1.0, INF)]
    widths, inner = [], vpmeans.function_space._synthesise
    monkeypatch.setattr(vpmeans.function_space, "_synthesise",
                        lambda ctx, coeffs: widths.append(coeffs.shape[1]) or inner(ctx, coeffs))
    again = [lp_norms_batch(cols, 1.0, p, reference=ref) for p in (1.0, INF)]
    assert widths == [10, 10]       # the column blocks only: R's values are memoised
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert run_memo_stats()["reference_synthesis"]["entries"] == 2
    # another grid or another R is synthesised anew
    lp_norms_batch(cols, 1.0, 1.0, order=300, reference=ref)
    lp_norms_batch(cols, 1.0, 1.0, reference=-ref)
    assert widths == [10, 10, 1, 10, 1, 10]
    clear_run_memos()


def test_zonal_project_streams_degree_blocks():
    # with its synthesis context built, a projection at the default band limit
    # holds O(N * BLOCK_COLUMNS) doubles, not the (N, K + 1) table of Q_k
    lam, k_max = 0.5, 1088
    table_bytes = (2 * k_max + 32) * (k_max + 1) * 8
    clear_run_memos()
    synthesis_context(lam, k_max, "gauss", 2 * k_max + 32)
    tracemalloc.start()
    try:
        out, = zonal_project([lambda t: t ** 0.5], k_max, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clear_run_memos()
    assert peak < table_bytes / 4
    assert 0.0 < out.projection_residual < 1e-5


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 5]), support=st.integers(0, 64),
       columns=st.integers(1, 2 * BLOCK_COLUMNS + 2), k_max=st.sampled_from([64, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
# a draw whose p = inf cell loses 1.99e-15 ||R||, 1.01e-12 relative
@example(d=5, support=8, columns=127, k_max=300, seed=31879)
def test_lp_norms_batch_reference_matches_full_band(d, support, columns, k_max, seed):
    # ||R - g|| as a difference of syntheses against the synthesis of R - g;
    # near R the difference loses eps ||R|| / ||R - g||, so such cells are
    # compared only where ||R - g|| >= 1e-3 ||R||, up to that eps ||R|| term
    rng = np.random.default_rng(seed)
    lam = (d - 2) / 2.0
    ref = rng.uniform(-1.0, 1.0, k_max + 1)
    cols = banded_columns(rng, k_max, support, columns)
    near = rng.random(columns) < 0.3
    cols[:, near] = ref[:, None] * (1.0 - rng.uniform(0.0, 1e-2, near.sum()))
    for p in (1.0, 2.0, INF):
        got = lp_norms_batch(cols, lam, p, reference=ref)
        want = lp_norms_batch(ref[:, None] - cols, lam, p)
        norm_ref = lp_norms_batch(ref, lam, p)[0]
        keep = want >= 1e-3 * norm_ref
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12, atol=1e-14 * norm_ref)


def builder(cols):
    """The column builder of `lp_norm_maxima` that reads a matrix."""
    return lambda picked: np.take(cols, picked, axis=1)


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), support=st.integers(0, 200),
       sizes=st.lists(st.integers(1, 70), min_size=1, max_size=4),
       means=st.booleans(), with_reference=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_lp_norm_maxima_equal_maxima_of_every_norm(d, support, sizes, means, with_reference, seed):
    # random columns of mixed scale, so the bounds order them differently from
    # the norms, or the means V_n f of consecutive degrees, whose norms and
    # steps change slowly along a run.  The pruned norms come from
    # lp_norms_batch's loop, but BLAS may round a column differently in
    # another block, so they agree to rounding only
    rng = np.random.default_rng(seed)
    k_max, lam, columns = 300, (d - 2) / 2.0, sum(sizes)
    if means:
        f = rng.uniform(-1.0, 1.0, k_max + 1) / (1.0 + np.arange(k_max + 1)) ** rng.uniform(0, 2)
        first = int(rng.integers(1, 200))
        cols = np.column_stack([f * multiplier_sequence(n, lam, k_max)
                                for n in range(first, first + columns)])
        ref = f if with_reference else None
    else:
        cols = banded_columns(rng, k_max, support, columns) * 10.0 ** rng.uniform(-2, 2, columns)
        ref = rng.uniform(-1.0, 1.0, k_max + 1) if with_reference else None
    ps = (1.0, 2.0, INF, 3.0)
    got = lp_norm_maxima(builder(cols), sizes, lam, ps, k_max, reference=ref)
    assert got.shape == (len(ps), len(sizes))
    for p, row in zip(ps, got):
        full = lp_norms_batch(cols, lam, p, reference=ref)
        lost = 0.0      # but R - V_n f, a difference of syntheses, also loses eps ||R||
        if means and ref is not None and p != 2.0:
            lost = 1e-14 * lp_norms_batch(ref, lam, p)[0]
        np.testing.assert_allclose(row, np.maximum.reduceat(full, np.cumsum([0] + sizes[:-1])),
                                   rtol=1e-14, atol=lost)


def test_lp_norm_maxima_prunes_logs_and_validates():
    rng = np.random.default_rng(11)
    cols = rng.uniform(-1.0, 1.0, (129, 100)) * np.geomspace(1.0, 1e-3, 100)
    cols[:, 70] = np.nan
    clear_run_memos()
    log = vpmeans.function_space._CONTEXTS.log
    got = lp_norm_maxima(builder(cols), [60, 40], 0.5, [1.0, 2.0, INF], 128)
    for p, row in zip((1.0, 2.0, INF), got):
        full = lp_norms_batch(cols, 0.5, p)
        assert row[0] == pytest.approx(np.max(full[:60]), rel=1e-14) and np.isnan(row[1])
    # one record per pruned p; the second run holds a NaN column, whose NaN
    # bound and steps prune nothing
    assert [rec[0] for rec in log] == [1.0, INF]
    for p, synthesised, skipped in log:
        assert synthesised + skipped == 100 and 0 < skipped < 59
    for sizes in ([100, 0], [-1, 101], []):
        with pytest.raises(ValueError, match="sizes"):
            lp_norm_maxima(builder(cols), sizes, 0.5, [INF], 128)
    with pytest.raises(ValueError, match="p must"):
        lp_norm_maxima(builder(cols), [100], 0.5, [INF, 0.5], 128)


@pytest.mark.parametrize("p", [1.0, INF])
def test_lp_norm_maxima_chain_bounds_are_tight(p):
    # columns s Q_0 have the norm |s| ||Q_0||_p and steps |s_j - s_(j-1)| ||Q_0||_p,
    # so the chain bound between two of them is exact.  A decoy of norm 1 but a
    # larger coefficient bound is synthesised first; the anchors 2 and 5 follow;
    # the max 5.5 lies next to the anchor 2, and its chain bound 2 + 3.5 is
    # exactly its norm: any smaller step would drop it under the run max 5
    rng = np.random.default_rng(2)
    k_max, unit_norm = 300, (1.0 if p == INF else surface_area(3))
    if p == INF:    # random signs: sum_k |a_k| far above the sup
        decoy = np.concatenate(([0.0], rng.choice([-1.0, 1.0], k_max)))
    else:           # a spike at the pole: |S^2|^(1/2) ||g||_2 far above ||g||_1
        decoy = np.concatenate(([0.0], 2.0 * np.arange(1, k_max + 1) + 1.0))
    decoy *= unit_norm / lp_norms_batch(decoy, 0.5, p)[0]
    scales = [2.0, 5.5] + [1.5] * 6 + [5.0]
    cols = np.column_stack([decoy] + [s * unit(0, k_max + 1) for s in scales])
    clear_run_memos()
    got = lp_norm_maxima(builder(cols), [10], 0.5, [p], k_max)[0, 0]
    assert got == pytest.approx(5.5 * unit_norm, rel=1e-14)
    # decoy, the two anchors and the max; the 1.5 columns fall to their
    # coefficient bounds once the anchors raise the run max to 5
    assert vpmeans.function_space._CONTEXTS.log == [(p, 4, 6)]
    # a NaN column in an earlier run makes every later step sum NaN: its run
    # is synthesised whole, and the coefficient bounds alone still prune the
    # 1.5 columns (its 8 finite columns keep the anchors of the run above)
    nan_run = np.column_stack([np.full(k_max + 1, np.nan)] + [unit(0, k_max + 1)] * 8)
    clear_run_memos()
    got = lp_norm_maxima(builder(np.hstack([nan_run, cols])), [9, 10], 0.5, [p], k_max)[0]
    assert np.isnan(got[0]) and got[1] == pytest.approx(5.5 * unit_norm, rel=1e-14)
    assert vpmeans.function_space._CONTEXTS.log == [(p, 13, 6)]


def test_lp_norm_maxima_bounds_cover_rounding():
    # a_j = R (1 + eps m_j) for small integers m_j, and R_0 = 3000 sets the
    # rounding of the syntheses: the computed norms of R - a_j are rounding,
    # and differ between columns by more than the steps, so only the rounding
    # terms of the bounds keep every column from being pruned
    for seed in range(4):
        rng = np.random.default_rng(seed)
        ref = rng.uniform(-1.0, 1.0, 301)
        ref[0] = 3000.0
        ulps = rng.integers(-2, 3, (301, 200))
        ulps[0] = 0
        cols = ref[:, None] * (1.0 + np.finfo(float).eps * ulps)
        for p in (1.0, INF):
            clear_run_memos()
            lp_norm_maxima(builder(cols), [100, 100], 0.5, [p], 300, reference=ref)
            assert vpmeans.function_space._CONTEXTS.log == [(p, 200, 0)]


def test_lp_norm_maxima_bounds_equal_on_live_rows(monkeypatch):
    # a builder that gives only the live rows moves no bound, prefix sum or
    # rounding term, also in a one-column block, which numpy sums pairwise
    bounds, pruned = [], vpmeans.function_space._pruned_maxima

    def recorded(*args):
        bounds.append(np.concatenate(args[5:8]))
        return pruned(*args)
    monkeypatch.setattr(vpmeans.function_space, "_pruned_maxima", recorded)
    k_max = 300
    for seed in range(6):
        rng = np.random.default_rng(seed)
        live = rng.integers(20, 250, 129)
        live[63] = k_max + 1      # the left neighbour of the next block is longer than it
        cols = rng.uniform(-1.0, 1.0, (k_max + 1, 129)) * (np.arange(k_max + 1)[:, None] < live)
        ref = rng.uniform(-1.0, 1.0, k_max + 1) * (np.arange(k_max + 1) < rng.integers(1, 302))
        for reference in (None, ref):
            bounds.clear()
            clear_run_memos()
            lp_norm_maxima(lambda picked: np.take(cols[:live[picked].max()], picked, axis=1),
                           [60, 69], 0.5, [1.0, INF], k_max, reference=reference)
            lp_norm_maxima(builder(cols), [60, 69], 0.5, [1.0, INF], k_max, reference=reference)
            assert len(bounds) == 4 and all(map(np.array_equal, bounds[:2], bounds[2:]))
    clear_run_memos()


def test_lp_norm_maxima_builds_columns_in_blocks():
    # the bound pass asks for each column once, 64 at a time, the rounds for
    # the columns they picked: never the whole (K + 1) x (K + 1) matrix
    rng = np.random.default_rng(3)
    k_max = 200
    f = rng.uniform(-1.0, 1.0, k_max + 1) / (1.0 + np.arange(k_max + 1))
    cols = np.column_stack([f * multiplier_sequence(n, 0.5, k_max) for n in range(1, k_max + 2)])
    asked = []

    def columns(picked):
        asked.append(len(picked))
        return np.take(cols, picked, axis=1)
    clear_run_memos()
    got = lp_norm_maxima(columns, [10, 90, k_max + 1 - 100], 0.5, [1.0, 2.0, INF], k_max,
                         reference=f)
    assert max(asked) <= BLOCK_COLUMNS < cols.shape[1]
    synthesised = sum(rec[1] for rec in vpmeans.function_space._CONTEXTS.log)
    assert sum(asked) == cols.shape[1] + synthesised
    for p, row in zip((1.0, 2.0, INF), got):
        full = lp_norms_batch(cols, 0.5, p, reference=f)
        np.testing.assert_allclose(row, np.maximum.reduceat(full, [0, 10, 100]),
                                   rtol=1e-14, atol=0.0)


def test_lp_norms_batch_negligible_entries_nan_and_zero_columns():
    rng = np.random.default_rng(5)
    ref = rng.uniform(-1.0, 1.0, 65)
    cols = np.zeros((65, 4))
    cols[:20, 1] = rng.uniform(-1.0, 1.0, 20)
    cols[:31, 2] = rng.uniform(-1.0, 1.0, 31)
    # subnormal tails, as the multiplier weights leave near k = n, are zeros
    tiny = cols.copy()
    tiny[20:40, 1] = 5e-324
    tiny[50, 2] = -5e-324
    tiny[64, 3] = 5e-324
    for reference in (None, ref):
        for p in (1.0, 2.0, INF):
            assert np.array_equal(lp_norms_batch(tiny, 0.5, p, reference=reference),
                                  lp_norms_batch(cols, 0.5, p, reference=reference))
    # all-zero columns give ||R||
    for p in (1.0, 2.0, INF):
        np.testing.assert_allclose(lp_norms_batch(np.zeros((65, 3)), 0.5, p, reference=ref),
                                   lp_norms_batch(ref, 0.5, p)[0], rtol=1e-15, atol=0.0)
    # an entry of 2^-960 keeps its row; the next float below it is dropped
    edge = np.zeros((65, 2))
    edge[40, 0] = NEGLIGIBLE
    edge[40, 1] = np.nextafter(NEGLIGIBLE, 0.0)
    for p in (1.0, INF):
        out = lp_norms_batch(edge, 0.5, p)
        assert out[0] > 0.0 and out[1] == 0.0
    # a NaN row propagates through the reference form as well
    cols[64, 3] = np.nan
    for p in (1.0, 2.0, INF):
        out = lp_norms_batch(cols, 0.5, p, reference=ref)
        assert np.isnan(out[3]) and np.all(np.isfinite(out[:3]))


def test_lp_norms_batch_zero_and_nan_rows():
    padded = np.zeros((65, 3))
    for p in (1.0, 2.0, INF):
        assert np.array_equal(lp_norms_batch(padded, 0.5, p), np.zeros(3))
    padded[:5, 0] = 1.0
    padded[:9, 2] = -0.5
    for p in (1.0, 2.0, INF):
        out = lp_norms_batch(padded, 0.5, p)
        assert out[1] == 0.0 and out[0] > 0.0 and out[2] > 0.0
    # a NaN in the last row is not trimmed away
    padded[-1, 1] = np.nan
    for p in (1.0, 2.0, INF):
        out = lp_norms_batch(padded, 0.5, p)
        assert np.isnan(out[1]) and np.all(np.isfinite(out[[0, 2]]))


def test_lp_norms_batch_grid_follows_input_shape():
    # the quadrature grid is the one of the full padded band limit, however
    # few rows hold nonzero coefficients; p = 2 builds no grid at all
    padded = np.zeros((301, 2))
    padded[:3] = 1.0
    clear_run_memos()
    lp_norms_batch(padded, 0.5, 2.0)
    assert run_memo_stats()["synthesis_context"]["entries"] == 0
    lp_norms_batch(padded, 0.5, 1.0)
    synthesis_context(0.5, 300, "gauss", 2 * 300 + 32)
    stats = run_memo_stats()["synthesis_context"]
    assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)


@pytest.mark.parametrize("d", [3, 4])
def test_parseval_consistency(d):
    # L2 norm from coefficients (diagonal Gram of the Q system) must match the
    # quadrature norm
    lam = (d - 2) / 2.0
    rng = np.random.default_rng(11)
    coeffs = rng.uniform(-1, 1, 14)
    gram = np.array([integrate_theta(
        lambda t, k=k: zonal_synthesis(unit(k, 14), lam, np.cos(t)) ** 2, lam, 60)
        for k in range(14)])
    from_coeffs = math.sqrt(surface_area(d - 1) * float(np.dot(coeffs ** 2, gram)))
    direct = lp_norms_batch(coeffs, lam, 2.0)[0]
    assert direct == pytest.approx(from_coeffs, rel=1e-8)


def test_grid_norms():
    grid = sphere_grid(24)
    ones = GridFunction(grid=grid, values=np.ones(len(grid.points)))
    assert lp_norm_grid(ones, 1.0) == pytest.approx(4 * math.pi, rel=1e-12)
    assert lp_norm_grid(ones, INF) == 1.0
    scaled = GridFunction(grid=grid, values=-2.0 * np.ones(len(grid.points)))
    assert lp_norm_grid(scaled, 2.0) == pytest.approx(2.0 * math.sqrt(4 * math.pi), rel=1e-12)


def test_grid_vs_zonal_norm_band_limited(corpus_d3):
    grid = sphere_grid(48)
    member = corpus_d3["randband:seed42"]
    gf = sample_zonal_on_grid(member, grid)
    assert lp_norm_grid(gf, 2.0) == pytest.approx(
        lp_norms_batch(member.coeffs, 0.5, 2.0)[0], rel=1e-8)


def test_grid_function_length_check():
    grid = sphere_grid(4)
    with pytest.raises(ValueError):
        GridFunction(grid=grid, values=np.ones(3))


def test_corpus_contents_and_determinism(corpus_d3):
    members = make_corpus(3)
    tags = [m.tag for m in members]
    assert tags == list(corpus_ids())
    again = make_corpus(3)
    a = [m for m in members if m.tag == "randband:seed42"][0]
    b = [m for m in again if m.tag == "randband:seed42"][0]
    assert np.array_equal(a.coeffs, b.coeffs)
    for alpha in (0.5, 1.0, 1.5):
        member = corpus_d3[f"cusp:{alpha}"]
        assert lp_norm_zonal(member, INF, 3) == pytest.approx(math.pi ** alpha, rel=1e-12)


def test_corpus_band_limited_coeffs(corpus_d3):
    member = corpus_d3["harmonic:4"]
    assert member.coeffs is not None and member.coeffs[4] == 1.0
    theta = np.linspace(0, np.pi, 50)
    assert np.allclose(member(theta),
                       zonal_synthesis(member.coeffs, 0.5, np.cos(theta)), atol=1e-13)


def test_holder_monotonicity_of_normalized_norms():
    # (4 pi)^(-1/p) ||f||_p is nondecreasing in p on S^2
    area = 4 * math.pi
    for member in make_corpus(3):
        norms = [lp_norm_zonal(member, p, 3) * area ** (-1 / p if p != INF else 0.0)
                 for p in (1.0, 2.0, INF)]
        assert norms[0] <= norms[1] * (1 + 1e-9)
        assert norms[1] <= norms[2] * (1 + 1e-9)
