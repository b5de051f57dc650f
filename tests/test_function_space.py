import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vpmeans.function_space
from vpmeans.function_space import (BLOCK_COLUMNS, DENSE_GRID_SIZE, INF, NEGLIGIBLE,
                                    GridFunction, ZonalProfile, ZonalSpectral,
                                    _inverse_dims, _norm_context, _picked_norms, _synthesise,
                                    corpus_ids, corpus_member,
                                    lp_norm_grid, lp_norm_maxima, lp_norm_zonal,
                                    lp_norms_batch,
                                    make_corpus, surface_area, synthesis_context,
                                    zonal_project, zonal_project_many, zonal_synthesis)
from vpmeans.kernel import multiplier_sequence
from vpmeans.memo import clear_run_memos, run_memo_stats
from vpmeans.operators import sample_zonal_on_grid
from vpmeans.quadrature import integrate_theta, mapped_rule, sphere_grid
from vpmeans.special import harmonic_dim, q_table


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
    out = zonal_project(lambda t: np.ones_like(t), 8, 0.5)
    assert out.coeffs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out.coeffs[1:])) <= 1e-12
    out = zonal_project(lambda t: np.cos(t), 8, 0.5)
    assert out.coeffs[1] == pytest.approx(1.0, abs=1e-12)
    assert abs(out.coeffs[0]) <= 1e-13 and np.max(np.abs(out.coeffs[2:])) <= 1e-12


def test_project_single_harmonic():
    lam = 1.0
    profile = lambda t: zonal_synthesis(unit(3, 4), lam, np.cos(t))
    out = zonal_project(profile, 9, lam)
    assert out.coeffs[3] == pytest.approx(1.0, abs=1e-10)
    others = np.delete(out.coeffs, 3)
    assert np.max(np.abs(others)) <= 1e-10
    assert out.projection_residual <= 1e-10


def test_projection_round_trip_pointwise():
    rng = np.random.default_rng(7)
    lam = 1.5
    coeffs = rng.uniform(-1, 1, 13)
    profile = lambda t: zonal_synthesis(coeffs, lam, np.cos(t))
    out = zonal_project(profile, 20, lam)
    theta = np.linspace(0.0, np.pi, 101)
    recon = zonal_synthesis(out.coeffs, lam, np.cos(theta))
    assert np.max(np.abs(recon - profile(theta))) <= 1e-9


def test_norm_constants():
    const = ZonalSpectral(lam=0.5, coeffs=np.array([1.0]))
    assert lp_norm_zonal(const, 2.0, 3) == pytest.approx(math.sqrt(4 * math.pi), rel=1e-12)
    assert lp_norm_zonal(const, 1.0, 3) == pytest.approx(4 * math.pi, rel=1e-12)
    assert lp_norm_zonal(const, INF, 3) == pytest.approx(1.0, rel=1e-14)
    for c, p in ((2.5, 1.0), (-3.0, 2.0), (0.25, 4.0)):
        scaled = ZonalSpectral(lam=0.5, coeffs=np.array([c]))
        assert lp_norm_zonal(scaled, p, 3) == pytest.approx(
            abs(c) * (4 * math.pi) ** (1 / p), rel=1e-12)


def test_norm_of_first_harmonic():
    # ||cos theta||_2^2 = 2 pi * 2/3
    f = ZonalSpectral(lam=0.5, coeffs=unit(1, 2))
    assert lp_norm_zonal(f, 2.0, 3) == pytest.approx(math.sqrt(4 * math.pi / 3), rel=1e-12)


def test_norm_profile_and_spectral_consistency():
    # same quadrature order: the synthesis route and the direct callable
    # route sample identical nodes, so even the |cos| kink at p = 1 cancels
    profile = lambda t: np.cos(t)
    spectral = ZonalSpectral(lam=0.5, coeffs=unit(1, 2))
    for p in (1.0, 2.0, INF):
        assert lp_norm_zonal(profile, p, 3, order=2048) == pytest.approx(
            lp_norm_zonal(spectral, p, 3, order=2048), rel=1e-12)


def test_norm_argument_validation():
    f = ZonalSpectral(lam=0.5, coeffs=np.ones(3))
    with pytest.raises(ValueError):
        lp_norm_zonal(f, 0.5, 3)
    with pytest.raises(ValueError):
        lp_norm_zonal(f, 2.0, 4)   # lam mismatch
    with pytest.raises(TypeError):
        lp_norm_zonal(3.0, 2.0, 3)


def test_lp_norms_batch_matches_single():
    rng = np.random.default_rng(3)
    cols = rng.uniform(-1, 1, (9, 5))
    for p in (1.0, 2.0, INF):
        batch = lp_norms_batch(cols, 0.5, p, 3)
        for j in range(5):
            single = lp_norm_zonal(ZonalSpectral(lam=0.5, coeffs=cols[:, j]), p, 3)
            assert batch[j] == pytest.approx(single, rel=1e-12)


def untrimmed_norms(padded, p, d, order=None):
    """The norms by the slow route: the full Q table over every node of the
    grid, times every padded row, with no parity folding and no Parseval."""
    lam = (d - 2) / 2.0
    k_max = padded.shape[0] - 1
    if p == INF:
        theta = np.linspace(0.0, np.pi, DENSE_GRID_SIZE)
        return np.max(np.abs(q_table(k_max, lam, theta) @ padded), axis=0)
    theta, w = mapped_rule(0.0, np.pi, order if order is not None else 2 * k_max + 32)
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
        np.testing.assert_allclose(lp_norms_batch(padded, (d - 2) / 2.0, p, d, order=order),
                                   untrimmed_norms(padded, p, d, order=order),
                                   rtol=1e-13, atol=0.0)


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), support=st.integers(0, 300),
       columns=st.integers(1, 2 * BLOCK_COLUMNS + 2), k_max=st.sampled_from([64, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lp_norms_batch_parseval_matches_gauss(d, support, columns, k_max, seed):
    padded = banded_columns(np.random.default_rng(seed), k_max, min(support, k_max), columns)
    np.testing.assert_allclose(lp_norms_batch(padded, (d - 2) / 2.0, 2.0, d),
                               untrimmed_norms(padded, 2.0, d), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("d", [3, 4, 5, 7])
def test_inverse_dims_match_harmonic_dim(d):
    k_max = 2048
    exact = np.array([1.0 / harmonic_dim(k, d) for k in range(k_max + 1)])
    np.testing.assert_allclose(_inverse_dims(k_max, (d - 2) / 2.0), exact, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("kind, size", [("gauss", 133), ("gauss", 134), ("dense", 97),
                                        ("dense", DENSE_GRID_SIZE)])
@pytest.mark.parametrize("k_max", [0, 1, 64, 65])
def test_synthesis_context_half_grid_tables(kind, size, k_max):
    lam = 1.5
    ctx = synthesis_context(lam, k_max, kind, size)
    half = (size + 1) // 2
    assert ctx.theta.size == size and ctx.even.shape == (half, k_max // 2 + 1)
    assert ctx.odd.shape == (half, (k_max + 1) // 2)
    assert ctx.even.flags.c_contiguous and ctx.odd.flags.c_contiguous
    assert np.all(ctx.theta[:half] <= np.pi / 2) and np.all(ctx.theta[half:] > np.pi / 2)
    assert (ctx.weights is None) == (kind == "dense")
    full = q_table(k_max, lam, ctx.theta[:half])
    assert np.array_equal(ctx.even, full[:, 0::2]) and np.array_equal(ctx.odd, full[:, 1::2])


def test_zonal_project_equals_full_table_reference():
    lam, k_max = 1.0, 40
    profile = lambda t: np.exp(-4.0 * t ** 2)
    theta, w = mapped_rule(0.0, np.pi, 2 * k_max + 32)
    weights = w * np.sin(theta) ** (2.0 * lam)
    q = q_table(k_max, lam, theta)
    ref = (q.T @ (weights * profile(theta))) / ((q ** 2).T @ weights)
    assert np.array_equal(zonal_project(profile, k_max, lam).coeffs, ref)


def counting_q_table(monkeypatch):
    """Route function_space's q_table through a call log; returns the log."""
    calls = []
    monkeypatch.setattr(vpmeans.function_space, "q_table",
                        lambda *args: calls.append(args) or q_table(*args))
    return calls


def test_zonal_project_many_equals_single_projections(monkeypatch):
    lam, k_max = 1.0, 40
    profiles = [lambda t: np.exp(-4.0 * t ** 2), lambda t: t ** 0.5,
                ZonalProfile(g=lambda t: np.cos(3.0 * t), tag="cos3")]
    calls = counting_q_table(monkeypatch)
    batch = zonal_project_many(profiles, k_max, lam)
    assert len(calls) == 1
    for profile, out in zip(profiles, batch):
        single = zonal_project(profile, k_max, lam)
        assert np.array_equal(out.coeffs, single.coeffs)
        assert out.projection_residual == single.projection_residual
    calls.clear()
    assert zonal_project_many([], k_max, lam) == [] and calls == []


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 5]), support=st.integers(0, 64),
       columns=st.integers(1, 2 * BLOCK_COLUMNS + 2), k_max=st.sampled_from([64, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lp_norms_batch_reference_matches_full_band(d, support, columns, k_max, seed):
    # ||R - g|| as a difference of syntheses against the synthesis of R - g;
    # near R the difference loses eps ||R|| / ||R - g||, so such cells are
    # compared only where ||R - g|| >= 1e-3 ||R||
    rng = np.random.default_rng(seed)
    lam = (d - 2) / 2.0
    ref = rng.uniform(-1.0, 1.0, k_max + 1)
    cols = banded_columns(rng, k_max, support, columns)
    near = rng.random(columns) < 0.3
    cols[:, near] = ref[:, None] * (1.0 - rng.uniform(0.0, 1e-2, near.sum()))
    for p in (1.0, 2.0, INF):
        got = lp_norms_batch(cols, lam, p, d, reference=ref)
        want = lp_norms_batch(ref[:, None] - cols, lam, p, d)
        keep = want >= 1e-3 * lp_norms_batch(ref, lam, p, d)[0]
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12, atol=0.0)


def unpruned_maxima(cols, sizes, lam, p, d, ref):
    """The run maxima of every column's `_picked_norms`: the arithmetic of the
    pruned passes, without pruning."""
    ctx = _norm_context(lam, cols.shape[0] - 1, p, None)
    ref_vals = None if ref is None else _synthesise(ctx, ref[:, None])
    every = _picked_norms(ctx, p, d, cols, np.arange(cols.shape[1]), ref_vals)
    return np.maximum.reduceat(every, np.cumsum([0] + sizes[:-1]))


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), support=st.integers(0, 200),
       sizes=st.lists(st.integers(1, 70), min_size=1, max_size=4),
       means=st.booleans(), with_reference=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_lp_norm_maxima_equal_maxima_of_every_norm(d, support, sizes, means, with_reference, seed):
    # random columns of mixed scale, so the bounds order them differently from
    # the norms, or the means V_n f of consecutive degrees, whose norms and
    # steps change slowly along a run.  The pruned norms sum row by row and
    # synthesise blocks padded to 8 columns, lp_norms_batch does neither, so
    # only the unpruned sweep of the pruned path is bit-equal
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
    got = lp_norm_maxima(cols, sizes, lam, ps, d, reference=ref)
    assert got.shape == (len(ps), len(sizes))
    for p, row in zip(ps, got):
        full = lp_norms_batch(cols, lam, p, d, reference=ref)
        lost = 0.0      # but R - V_n f, a difference of syntheses, also loses eps ||R||
        if means and ref is not None and p != 2.0:
            lost = 1e-14 * lp_norms_batch(ref, lam, p, d)[0]
        np.testing.assert_allclose(row, np.maximum.reduceat(full, np.cumsum([0] + sizes[:-1])),
                                   rtol=1e-14, atol=lost)
        if p != 2.0:
            assert np.array_equal(row, unpruned_maxima(cols, sizes, lam, p, d, ref))


def test_lp_norm_maxima_prunes_logs_and_validates():
    rng = np.random.default_rng(11)
    cols = rng.uniform(-1.0, 1.0, (129, 100)) * np.geomspace(1.0, 1e-3, 100)
    cols[:, 70] = np.nan
    clear_run_memos()
    log = vpmeans.function_space._CONTEXTS.log
    got = lp_norm_maxima(cols, [60, 40], 0.5, [1.0, 2.0, INF], 3)
    for p, row in zip((1.0, 2.0, INF), got):
        full = lp_norms_batch(cols, 0.5, p, 3)
        assert row[0] == pytest.approx(np.max(full[:60]), rel=1e-14) and np.isnan(row[1])
    # one record per pruned p; the second run holds a NaN column, whose NaN
    # bound and steps prune nothing
    assert [rec[0] for rec in log] == [1.0, INF]
    for p, synthesised, skipped in log:
        assert synthesised + skipped == 100 and 0 < skipped < 59
    # a Gauss order below 2K + 32 need not integrate g^2 exactly: neither bound prunes at p = 1
    low = lp_norm_maxima(cols[:, :60], [60], 0.5, [1.0], 3, order=100)
    assert log[-1] == (1.0, 60, 0)
    assert low[0, 0] == pytest.approx(
        np.max(lp_norms_batch(cols[:, :60], 0.5, 1.0, 3, order=100)), rel=1e-14)
    for sizes in ([50, 49], [50, 51], [100, 0]):
        with pytest.raises(ValueError, match="sizes"):
            lp_norm_maxima(cols, sizes, 0.5, [INF], 3)
    with pytest.raises(ValueError, match="p must"):
        lp_norm_maxima(cols, [100], 0.5, [INF, 0.5], 3)


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
    decoy *= unit_norm / lp_norms_batch(decoy, 0.5, p, 3)[0]
    scales = [2.0, 5.5] + [1.5] * 6 + [5.0]
    cols = np.column_stack([decoy] + [s * unit(0, k_max + 1) for s in scales])
    clear_run_memos()
    got = lp_norm_maxima(cols, [10], 0.5, [p], 3)[0, 0]
    assert got == pytest.approx(5.5 * unit_norm, rel=1e-14)
    # decoy, the two anchors and the max; the 1.5 columns fall to their
    # coefficient bounds once the anchors raise the run max to 5
    assert vpmeans.function_space._CONTEXTS.log == [(p, 4, 6)]
    # a NaN column in an earlier run makes every later step sum NaN: its run
    # is synthesised whole, and the coefficient bounds alone still prune the
    # 1.5 columns (its 8 finite columns keep the anchors of the run above)
    nan_run = np.column_stack([np.full(k_max + 1, np.nan)] + [unit(0, k_max + 1)] * 8)
    clear_run_memos()
    got = lp_norm_maxima(np.hstack([nan_run, cols]), [9, 10], 0.5, [p], 3)[0]
    assert np.isnan(got[0]) and got[1] == pytest.approx(5.5 * unit_norm, rel=1e-14)
    assert vpmeans.function_space._CONTEXTS.log == [(p, 13, 6)]


def test_lp_norm_maxima_bounds_cover_rounding():
    # a_j = R (1 + eps m_j) for small integers m_j, and R_0 = 3000 sets the
    # rounding of the syntheses: the computed norms of R - a_j are rounding,
    # and differ between columns by more than the steps, so only the rounding
    # terms of the bounds keep every computed max from being pruned
    for seed in range(4):
        rng = np.random.default_rng(seed)
        ref = rng.uniform(-1.0, 1.0, 301)
        ref[0] = 3000.0
        ulps = rng.integers(-2, 3, (301, 200))
        ulps[0] = 0
        cols = ref[:, None] * (1.0 + np.finfo(float).eps * ulps)
        for p in (1.0, INF):
            got = lp_norm_maxima(cols, [100, 100], 0.5, [p], 3, reference=ref)[0]
            assert np.array_equal(got, unpruned_maxima(cols, [100, 100], 0.5, p, 3, ref))


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
            assert np.array_equal(lp_norms_batch(tiny, 0.5, p, 3, reference=reference),
                                  lp_norms_batch(cols, 0.5, p, 3, reference=reference))
    # all-zero columns give ||R||
    for p in (1.0, 2.0, INF):
        np.testing.assert_allclose(lp_norms_batch(np.zeros((65, 3)), 0.5, p, 3, reference=ref),
                                   lp_norms_batch(ref, 0.5, p, 3)[0], rtol=1e-15, atol=0.0)
    # an entry of 2^-960 keeps its row; the next float below it is dropped
    edge = np.zeros((65, 2))
    edge[40, 0] = NEGLIGIBLE
    edge[40, 1] = np.nextafter(NEGLIGIBLE, 0.0)
    for p in (1.0, INF):
        out = lp_norms_batch(edge, 0.5, p, 3)
        assert out[0] > 0.0 and out[1] == 0.0
    # a NaN row propagates through the reference form as well
    cols[64, 3] = np.nan
    for p in (1.0, 2.0, INF):
        out = lp_norms_batch(cols, 0.5, p, 3, reference=ref)
        assert np.isnan(out[3]) and np.all(np.isfinite(out[:3]))


def test_lp_norms_batch_zero_and_nan_rows():
    padded = np.zeros((65, 3))
    for p in (1.0, 2.0, INF):
        assert np.array_equal(lp_norms_batch(padded, 0.5, p, 3), np.zeros(3))
    padded[:5, 0] = 1.0
    padded[:9, 2] = -0.5
    for p in (1.0, 2.0, INF):
        out = lp_norms_batch(padded, 0.5, p, 3)
        assert out[1] == 0.0 and out[0] > 0.0 and out[2] > 0.0
    # a NaN in the last row is not trimmed away
    padded[-1, 1] = np.nan
    for p in (1.0, 2.0, INF):
        out = lp_norms_batch(padded, 0.5, p, 3)
        assert np.isnan(out[1]) and np.all(np.isfinite(out[[0, 2]]))


def test_lp_norms_batch_grid_follows_input_shape():
    # the quadrature grid is the one of the full padded band limit, however
    # few rows hold nonzero coefficients; p = 2 builds no grid at all
    padded = np.zeros((301, 2))
    padded[:3] = 1.0
    clear_run_memos()
    lp_norms_batch(padded, 0.5, 2.0, 3)
    assert run_memo_stats()["synthesis_context"]["entries"] == 0
    lp_norms_batch(padded, 0.5, 1.0, 3)
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
    direct = lp_norm_zonal(ZonalSpectral(lam=lam, coeffs=coeffs), 2.0, d)
    assert direct == pytest.approx(from_coeffs, rel=1e-8)


def test_grid_norms():
    grid = sphere_grid(24)
    ones = GridFunction(grid=grid, values=np.ones(len(grid.points)))
    assert lp_norm_grid(ones, 1.0) == pytest.approx(4 * math.pi, rel=1e-12)
    assert lp_norm_grid(ones, INF) == 1.0
    scaled = GridFunction(grid=grid, values=-2.0 * np.ones(len(grid.points)))
    assert lp_norm_grid(scaled, 2.0) == pytest.approx(2.0 * math.sqrt(4 * math.pi), rel=1e-12)


def test_grid_vs_zonal_norm_band_limited():
    grid = sphere_grid(48)
    member = corpus_member(3, "randband:seed42")
    gf = sample_zonal_on_grid(member, grid)
    spectral = ZonalSpectral(lam=0.5, coeffs=member.coeffs)
    assert lp_norm_grid(gf, 2.0) == pytest.approx(
        lp_norm_zonal(spectral, 2.0, 3), rel=1e-8)


def test_grid_function_length_check():
    grid = sphere_grid(4)
    with pytest.raises(ValueError):
        GridFunction(grid=grid, values=np.ones(3))


def test_corpus_contents_and_determinism():
    members = make_corpus(3)
    tags = [m.tag for m in members]
    assert tags == list(corpus_ids())
    again = make_corpus(3)
    a = [m for m in members if m.tag == "randband:seed42"][0]
    b = [m for m in again if m.tag == "randband:seed42"][0]
    assert np.array_equal(a.coeffs, b.coeffs)
    for alpha in (0.5, 1.0, 1.5):
        member = corpus_member(3, f"cusp:{alpha}")
        assert lp_norm_zonal(member, INF, 3) == pytest.approx(math.pi ** alpha, rel=1e-12)


def test_corpus_unknown_id():
    with pytest.raises(LookupError):
        corpus_member(3, "wavelet:9")


def test_corpus_band_limited_coeffs():
    member = corpus_member(3, "harmonic:4")
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
