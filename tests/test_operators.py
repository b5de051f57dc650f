import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vpmeans.operators
from vpmeans.function_space import (INF, ZonalSpectral, corpus_member,
                                    lp_norm_zonal)
from vpmeans.kernel import multiplier_sequence
from vpmeans.operators import (orthonormal_completion, sample_zonal_on_grid,
                               translate_direct, translate_spectral, vpm_grid,
                               vpm_iterated, vpm_means, zonal_point_function)
from vpmeans.quadrature import sphere_grid
from vpmeans.special import q_normalized, q_table

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


def test_vpm_iterated_semigroup():
    f = random_spectral()
    assert np.array_equal(vpm_iterated(f, 6, 1).coeffs, vpm_means(f, 6).coeffs)
    for m, l in ((2, 3), (1, 7), (4, 4)):
        once = vpm_iterated(f, 6, m + l).coeffs
        twice = vpm_iterated(vpm_iterated(f, 6, l), 6, m).coeffs
        assert np.max(np.abs(once - twice)) <= 1e-15


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_chain_bound_on_corpus(p):
    from vpmeans.experiments import Workspace
    ws = Workspace(3, 16)
    for fid in ("cusp:1.0", "bump", "randband:seed42"):
        f = ws.spectral(fid)
        base = lp_norm_zonal(ZonalSpectral(lam=f.lam, coeffs=f.coeffs - vpm_means(f, 16).coeffs), p, 3)
        for m in (2, 7):
            iterated = vpm_iterated(f, 16, m)
            lhs = lp_norm_zonal(ZonalSpectral(lam=f.lam, coeffs=f.coeffs - iterated.coeffs), p, 3)
            assert lhs <= m * base + 1e-8


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), band=st.integers(0, 40), pad=st.integers(0, 64),
       n=st.integers(0, 256), p=st.sampled_from([1.0, 2.0, INF]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_vpm_means_contraction_property(d, band, pad, n, p, seed):
    # V_n is convolution with a nonnegative kernel of unit mass
    coeffs = np.zeros(band + pad + 1)
    coeffs[:band + 1] = np.random.default_rng(seed).uniform(-1.0, 1.0, band + 1)
    f = ZonalSpectral(lam=(d - 2) / 2.0, coeffs=coeffs)
    assert lp_norm_zonal(vpm_means(f, n), p, d) <= lp_norm_zonal(f, p, d) * (1.0 + 1e-12)


def test_translate_spectral_diagonal_action():
    const = ZonalSpectral(lam=1.0, coeffs=np.array([5.0]))
    assert np.array_equal(translate_spectral(const, 0.8).coeffs, const.coeffs)
    for k in (1, 4):
        f = ZonalSpectral(lam=1.0, coeffs=unit(k, 6))
        out = translate_spectral(f, 0.8)
        assert out.coeffs[k] == pytest.approx(q_normalized(k, 1.0, 0.8), rel=1e-14)


def test_translate_spectral_domain():
    f = random_spectral()
    for theta in (0.0, np.pi, -0.3, 4.0):
        with pytest.raises(ValueError):
            translate_spectral(f, theta)


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_translation_contraction(p):
    from vpmeans.experiments import Workspace
    ws = Workspace(3, 16)
    for fid in ("harmonic:4", "cusp:0.5", "bump"):
        f = ws.spectral(fid)
        base = lp_norm_zonal(f, p, 3)
        for theta in (0.1, 0.5, 2.0):
            out = translate_spectral(f, theta)
            assert lp_norm_zonal(out, p, 3) <= base + 1e-8


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_translation_converges_to_identity(p):
    from vpmeans.experiments import Workspace
    ws = Workspace(3, 16)
    for fid in ("cusp:0.5", "bump", "randband:seed42"):
        f = ws.spectral(fid)
        norm = lp_norm_zonal(f, p, 3)
        errs = []
        for j in (2, 6, 10, 14, 20):
            out = translate_spectral(f, 2.0 ** -j)
            diff = ZonalSpectral(lam=f.lam, coeffs=f.coeffs - out.coeffs)
            errs.append(lp_norm_zonal(diff, p, 3))
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


def test_translate_direct_pole_case():
    # about the pole, the circle of radius theta sits at constant colatitude,
    # so the mean equals the profile value
    member = corpus_member(3, "bump")
    f_eval = zonal_point_function(member, NORTH)
    for theta in (0.3, 1.2):
        assert translate_direct(f_eval, theta, NORTH, 64) == pytest.approx(
            float(member(np.array([theta]))[0]), rel=1e-12)


def test_translate_direct_matches_spectral():
    member = corpus_member(3, "randband:seed42")
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


def test_vpm_grid_constant_and_band_limited():
    grid = sphere_grid(24)
    ones = sample_zonal_on_grid(lambda t: np.ones_like(t), grid)
    out = vpm_grid(ones, 6)
    assert np.max(np.abs(out.values - 1.0)) <= 1e-8
    member = corpus_member(3, "randband:seed42")
    gf = sample_zonal_on_grid(member, grid)
    conv = vpm_grid(gf, 8)
    spectral = vpm_means(ZonalSpectral(lam=0.5, coeffs=member.coeffs), 8)
    expect = zonal_point_function(spectral, NORTH)(grid.points)
    assert np.max(np.abs(conv.values - expect)) <= 1e-7


def test_vpm_grid_degree_zero_projects_to_mean():
    grid = sphere_grid(16)
    member = corpus_member(3, "bump")
    gf = sample_zonal_on_grid(member, grid)
    out = vpm_grid(gf, 0)
    mean = float(np.dot(grid.point_weights, gf.values)) / (4 * np.pi)
    assert np.max(np.abs(out.values - mean)) <= 1e-12


@pytest.mark.parametrize("bands", [24, 40])
def test_vpm_grid_values_do_not_depend_on_the_row_block(bands, monkeypatch):
    # each output row is one kernel row times the weighted values, so the
    # block of rows formed at once bounds the memory and moves no value
    # (observed with OpenBLAS; BLAS does not promise it)
    gf = sample_zonal_on_grid(corpus_member(3, "randband:seed42"), sphere_grid(bands))
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
        (vpm_iterated(f, 5, 3), multiplier_sequence(5, lam, k_max) ** 3),
        (translate_spectral(f, 0.6), q_table(k_max, lam, 0.6)[0]),
    ]
    for applied, expect in cases:
        assert applied.lam == lam
        assert np.max(np.abs(applied.coeffs - f.coeffs * expect)) <= 1e-12
    with pytest.raises(ValueError):
        vpm_iterated(f, 5, 0)


def test_bernstein_multiplier_window():
    # max_k k(k+1) omega_{n,k}^7 / n stays in a factor-2 window at d = 3
    vals = []
    for n in (16, 32, 64, 128, 256, 512):
        seq = multiplier_sequence(n, 0.5, n)
        k = np.arange(n + 1, dtype=float)
        vals.append(float(np.max(k * (k + 1) * seq ** 7)) / n)
    assert max(vals) / min(vals) <= 2.0
