import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vpmeans.operators
from vpmeans.experiments import prepare_corpus
from vpmeans.function_space import INF, ZonalSpectral, lp_norms_batch
from vpmeans.kernel import multiplier_sequence
from vpmeans.operators import (means_columns, orthonormal_completion, sample_zonal_on_grid,
                               translate_direct, translate_spectral, vpm_grid, vpm_means,
                               zonal_point_function)
from vpmeans.quadrature import sphere_grid
from vpmeans.special import q_table

NORTH = np.array([0.0, 0.0, 1.0])


def unit(k, size):
    c = np.zeros(size)
    c[k] = 1.0
    return c


def random_spectral(size=13, lam=0.5, seed=5):
    rng = np.random.default_rng(seed)
    return ZonalSpectral(lam=lam, coeffs=rng.uniform(-1, 1, size))


def test_vpm_means_basics():
    const = ZonalSpectral(lam=0.5, coeffs=np.array([2.0]))
    assert np.array_equal(vpm_means(const, 9).coeffs, const.coeffs)
    high = ZonalSpectral(lam=0.5, coeffs=unit(7, 8))
    assert np.all(vpm_means(high, 5).coeffs == 0.0)
    f1 = ZonalSpectral(lam=0.5, coeffs=unit(1, 8))
    out = vpm_means(f1, 2)
    assert out.coeffs[1] == pytest.approx(0.5, rel=1e-13)
    # band-limiting: everything above degree n is exactly zero
    f = random_spectral()
    assert np.all(vpm_means(f, 5).coeffs[6:] == 0.0)


def band_spectral(d, band, pad, seed):
    """Coefficients uniform in [-1, 1] up to degree `band`, then `pad` zeros."""
    coeffs = np.zeros(band + pad + 1)
    coeffs[:band + 1] = np.random.default_rng(seed).uniform(-1.0, 1.0, band + 1)
    return ZonalSpectral(lam=(d - 2) / 2.0, coeffs=coeffs)


@settings(max_examples=40, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), band=st.integers(0, 64), pad=st.integers(0, 64),
       n=st.integers(0, 256), l=st.integers(1, 8), m=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=3, band=12, pad=0, n=6, l=3, m=2, seed=5)
def test_vpm_iterated_semigroup(d, band, pad, n, l, m, seed):
    # V_n^l V_n^m f = V_n^(l+m) f: omega^l omega^m against omega^(l+m), each
    # power a correctly rounded pow, so a few ulps per power; the atol covers
    # coefficients that underflow to subnormals
    f = band_spectral(d, band, pad, seed)
    once = vpm_means(f, n, l + m).coeffs
    twice = vpm_means(vpm_means(f, n, m), n, l).coeffs
    np.testing.assert_allclose(twice, once, rtol=2 * (l + m) * np.finfo(float).eps,
                               atol=np.finfo(float).tiny)


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_chain_bound_on_corpus(p):
    for f in prepare_corpus(("cusp:1.0", "bump", "randband:seed42"), 3, 16):
        base = lp_norms_batch(f.coeffs - vpm_means(f, 16).coeffs, f.lam, p)[0]
        for m in (2, 7):
            lhs = lp_norms_batch(f.coeffs - vpm_means(f, 16, m).coeffs, f.lam, p)[0]
            assert lhs <= m * base + 1e-8


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), band=st.integers(0, 40), pad=st.integers(0, 64),
       n=st.integers(0, 256), p=st.sampled_from([1.0, 2.0, INF]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_vpm_means_contraction_property(d, band, pad, n, p, seed):
    # V_n is convolution with a nonnegative kernel of unit mass
    f = band_spectral(d, band, pad, seed)
    assert lp_norms_batch(vpm_means(f, n).coeffs, f.lam, p)[0] <= \
        lp_norms_batch(f.coeffs, f.lam, p)[0] * (1.0 + 1e-12)


def test_translate_spectral_diagonal_action():
    const = ZonalSpectral(lam=1.0, coeffs=np.array([5.0]))
    assert np.array_equal(translate_spectral(const, 0.8).coeffs, const.coeffs)
    for k in (1, 4):
        f = ZonalSpectral(lam=1.0, coeffs=unit(k, 6))
        out = translate_spectral(f, 0.8)
        assert out.coeffs[k] == pytest.approx(q_table(k, 1.0, 0.8)[0, k], rel=1e-14)


def test_translate_spectral_domain():
    f = random_spectral()
    for theta in (0.0, np.pi, -0.3, 4.0):
        with pytest.raises(ValueError):
            translate_spectral(f, theta)


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), band=st.integers(0, 64), pad=st.integers(0, 64),
       theta=st.floats(0.0, np.pi, exclude_min=True, exclude_max=True),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=3, band=20, pad=0, theta=0.1, seed=42)
@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_translation_contraction(p, d, band, pad, theta, seed):
    # S_theta is an average over a circle, so ||S_theta f||_p <= ||f||_p, up
    # to the documented 1e-8 rounding slack
    f = band_spectral(d, band, pad, seed)
    assert lp_norms_batch(translate_spectral(f, theta).coeffs, f.lam, p)[0] <= \
        lp_norms_batch(f.coeffs, f.lam, p)[0] + 1e-8


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_translation_converges_to_identity(p):
    for f in prepare_corpus(("cusp:0.5", "bump", "randband:seed42"), 3, 16):
        norm = lp_norms_batch(f.coeffs, f.lam, p)[0]
        errs = []
        for j in (2, 6, 10, 14, 20):
            out = translate_spectral(f, 2.0 ** -j)
            errs.append(lp_norms_batch(f.coeffs - out.coeffs, f.lam, p)[0])
        assert errs[-1] <= 1e-3 * norm
        assert errs[-1] <= errs[0]


def test_spectral_operators_commute():
    f = random_spectral()
    a = translate_spectral(vpm_means(f, 7), 0.4).coeffs
    b = vpm_means(translate_spectral(f, 0.4), 7).coeffs
    assert np.max(np.abs(a - b)) <= 1e-15


def test_orthonormal_completion():
    for mu in (NORTH, np.array([1.0, 0.0, 0.0]),
               np.array([0.6, 0.0, 0.8]), np.array([0.1, -0.3, 0.9]) / np.linalg.norm([0.1, -0.3, 0.9])):
        u, v = orthonormal_completion(mu)
        for a, b in ((u, v), (u, mu), (v, mu)):
            assert abs(float(np.dot(a, b))) <= 1e-14
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


def test_translate_direct_constant():
    f_eval = lambda pts: np.ones(len(pts))
    val = translate_direct(f_eval, 0.9, NORTH, 32)
    assert val == pytest.approx(1.0, rel=1e-15)


def test_translate_direct_pole_case(corpus_d3):
    # about the pole, the circle of radius theta sits at constant colatitude,
    # so the mean equals the profile value
    member = corpus_d3["bump"]
    f_eval = zonal_point_function(member, NORTH)
    for theta in (0.3, 1.2):
        assert translate_direct(f_eval, theta, NORTH, 64) == pytest.approx(
            float(member(np.array([theta]))[0]), rel=1e-12)


def test_translate_direct_matches_spectral(corpus_d3):
    member = corpus_d3["randband:seed42"]
    f = ZonalSpectral(lam=0.5, coeffs=member.coeffs)
    f_eval = zonal_point_function(f, NORTH)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(20, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    theta = 0.7
    shifted = translate_spectral(f, theta)
    spectral_vals = zonal_point_function(shifted, NORTH)(pts)
    for point, expect in zip(pts, spectral_vals):
        direct = translate_direct(f_eval, theta, point, 4 * 20 + 16)
        assert abs(direct - expect) <= 1e-8


def test_translate_direct_validation():
    f_eval = lambda pts: np.ones(len(pts))
    with pytest.raises(ValueError):
        translate_direct(f_eval, 0.0, NORTH, 16)
    with pytest.raises(ValueError):
        translate_direct(f_eval, 0.5, np.array([0.0, 0.0, 2.0]), 16)
    for circle_order in (0, -3):    # no station to average, not a nan mean
        with pytest.raises(ValueError, match="circle_order >= 1"):
            translate_direct(f_eval, 0.5, NORTH, circle_order)


def test_vpm_grid_constant_and_band_limited(corpus_d3):
    grid = sphere_grid(24)
    ones = sample_zonal_on_grid(lambda t: np.ones_like(t), grid)
    out = vpm_grid(ones, 6)
    assert np.max(np.abs(out.values - 1.0)) <= 1e-8
    member = corpus_d3["randband:seed42"]
    gf = sample_zonal_on_grid(member, grid)
    conv = vpm_grid(gf, 8)
    spectral = vpm_means(ZonalSpectral(lam=0.5, coeffs=member.coeffs), 8)
    expect = zonal_point_function(spectral, NORTH)(grid.points)
    assert np.max(np.abs(conv.values - expect)) <= 1e-7


def test_vpm_grid_degree_zero_projects_to_mean(corpus_d3):
    grid = sphere_grid(16)
    member = corpus_d3["bump"]
    gf = sample_zonal_on_grid(member, grid)
    out = vpm_grid(gf, 0)
    mean = float(np.dot(grid.point_weights, gf.values)) / (4 * np.pi)
    assert np.max(np.abs(out.values - mean)) <= 1e-12


@pytest.mark.parametrize("bands", [24, 40])
def test_vpm_grid_values_do_not_depend_on_the_row_block(bands, monkeypatch, corpus_d3):
    # each output row is one kernel row times the weighted values, so the
    # block of rows formed at once bounds the memory and moves no value
    # (observed with OpenBLAS; BLAS does not promise it)
    gf = sample_zonal_on_grid(corpus_d3["randband:seed42"], sphere_grid(bands))
    values = []
    for rows in (1024, 256, 64):
        monkeypatch.setattr(vpmeans.operators, "GRID_BLOCK_ROWS", rows)
        values.append(vpm_grid(gf, 8).values)
    assert all(np.array_equal(values[0], other) for other in values[1:])


def test_operator_multiplier_sequences():
    k_max = 9
    lam = 0.5
    f = random_spectral(size=k_max + 1)
    cases = [
        (vpm_means(f, 5), multiplier_sequence(5, lam, k_max)),
        (vpm_means(f, 5, 3), multiplier_sequence(5, lam, k_max) ** 3),
        (translate_spectral(f, 0.6), q_table(k_max, lam, 0.6)[0]),
    ]
    for applied, expect in cases:
        assert applied.lam == lam
        assert np.max(np.abs(applied.coeffs - f.coeffs * expect)) <= 1e-12
    with pytest.raises(ValueError):
        vpm_means(f, 5, 0)
    with pytest.raises(ValueError):
        means_columns(f, [5, 6], (1, 0))


@settings(max_examples=40, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), band=st.integers(0, 60),
       degrees=st.lists(st.integers(0, 80), max_size=6),
       powers=st.lists(st.integers(1, 9), min_size=1, max_size=4), seed=st.integers(0, 2 ** 32 - 1))
@example(d=3, band=40, degrees=[0, 3, 40, 47], powers=[1, 2, 7], seed=11)   # 0, K and above K
def test_means_columns_are_the_multiplier_products(d, band, degrees, powers, seed):
    # column (n, m), degree-major, is f.coeffs * omega_n^m bit for bit
    f = random_spectral(size=band + 1, lam=(d - 2) / 2.0, seed=seed)
    cols = means_columns(f, degrees, powers)
    assert cols.shape == (band + 1, len(degrees) * len(powers))
    for j, (n, m) in enumerate((n, m) for n in degrees for m in powers):
        assert np.array_equal(cols[:, j], f.coeffs * multiplier_sequence(n, f.lam, band) ** m)


def test_bernstein_multiplier_window():
    # max_k k(k+1) omega_{n,k}^7 / n stays in a factor-2 window at d = 3
    vals = []
    for n in (16, 32, 64, 128, 256, 512):
        seq = multiplier_sequence(n, 0.5, n)
        k = np.arange(n + 1, dtype=float)
        vals.append(float(np.max(k * (k + 1) * seq ** 7)) / n)
    assert max(vals) / min(vals) <= 2.0
