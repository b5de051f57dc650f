import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmeans.function_space import (BLOCK_COLUMNS, DENSE_GRID_SIZE, INF,
                                    GridFunction, ZonalSpectral, corpus_ids,
                                    corpus_member, lp_norm_grid, lp_norm_zonal,
                                    lp_norms_batch, make_corpus, surface_area,
                                    synthesis_context, zonal_project,
                                    zonal_synthesis)
from vpmeans.memo import clear_run_memos, run_memo_stats
from vpmeans.operators import sample_zonal_on_grid
from vpmeans.quadrature import integrate_theta, sphere_grid
from vpmeans.special import q_table


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


def untrimmed_norms(padded, p, d):
    """The norms from the full synthesis product over every padded row."""
    lam = (d - 2) / 2.0
    k_max = padded.shape[0] - 1
    if p == INF:
        ctx = synthesis_context(lam, k_max, "dense", DENSE_GRID_SIZE)
        return np.max(np.abs(ctx.q_matrix @ padded), axis=0)
    ctx = synthesis_context(lam, k_max, "gauss", 2 * k_max + 32)
    sums = ctx.weights @ np.abs(ctx.q_matrix @ padded) ** p
    return (surface_area(d - 1) * sums) ** (1.0 / p)


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 4]), support=st.integers(0, 40),
       columns=st.integers(1, 2 * BLOCK_COLUMNS + 2), k_max=st.sampled_from([64, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lp_norms_batch_trimmed_matches_full_product(d, support, columns, k_max, seed):
    # each column is nonzero up to its own degree <= support and exactly zero
    # above it, up to the padded band limit k_max
    rng = np.random.default_rng(seed)
    padded = np.zeros((k_max + 1, columns))
    padded[:support + 1] = rng.uniform(-1.0, 1.0, (support + 1, columns))
    tops = rng.integers(0, support + 1, columns)
    padded[np.arange(k_max + 1)[:, None] > tops] = 0.0
    for p in (1.0, 2.0, INF):
        np.testing.assert_allclose(lp_norms_batch(padded, (d - 2) / 2.0, p, d),
                                   untrimmed_norms(padded, p, d), rtol=1e-13, atol=0.0)


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
    # few rows hold nonzero coefficients
    padded = np.zeros((301, 2))
    padded[:3] = 1.0
    clear_run_memos()
    lp_norms_batch(padded, 0.5, 2.0, 3)
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
