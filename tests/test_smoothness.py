import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmeans.experiments import Workspace
from vpmeans.function_space import INF, ZonalSpectral, lp_norm_zonal
from vpmeans.memo import clear_run_memos, run_memo_stats
from vpmeans.smoothness import (default_candidate_degrees,
                                k_functional_estimate, modulus,
                                translation_error_norms)
from vpmeans.special import q_normalized


@pytest.fixture(scope="module")
def ws():
    return Workspace(3, 64)


def unit(k, size):
    c = np.zeros(size)
    c[k] = 1.0
    return c


def test_modulus_of_constant_is_zero():
    const = ZonalSpectral(lam=0.5, coeffs=np.array([7.0]))
    for t in (0.01, 0.5, math.pi):
        assert modulus(const, t, 2.0, 3) == 0.0


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
@pytest.mark.parametrize("k", [1, 4])
def test_modulus_single_harmonic_closed_form(p, k):
    # diagonal action gives ||f - S_theta f||_p = (1 - Q_k(cos theta)) ||Q_k||_p,
    # and 1 - Q_k(cos theta) increases on the first lobe, so the sup sits at
    # theta = t for small t
    f = ZonalSpectral(lam=0.5, coeffs=unit(k, k + 1))
    t = 0.2 / k
    expect = (1.0 - q_normalized(k, 0.5, t)) * lp_norm_zonal(f, p, 3)
    assert modulus(f, t, p, 3) == pytest.approx(expect, rel=1e-10)


def test_modulus_monotone_in_t(ws):
    f = ws.spectral("cusp:1.0")
    prev = 0.0
    for t in (0.01, 0.05, 0.2, 0.8, 3.0):
        cur = modulus(f, t, 2.0, 3)
        assert cur >= prev - 1e-12
        prev = cur


def test_modulus_bounded_by_twice_norm(ws):
    for fid in ("harmonic:16", "cusp:0.5", "bump", "randband:seed42"):
        f = ws.spectral(fid)
        for p in (1.0, 2.0, INF):
            assert modulus(f, 0.5, p, 3) <= 2.0 * lp_norm_zonal(f, p, 3) + 1e-10


def test_modulus_subhomogeneous(ws):
    f = ws.spectral("bump")
    scaled = ZonalSpectral(lam=f.lam, coeffs=-3.5 * f.coeffs)
    for p in (1.0, INF):
        a = modulus(scaled, 0.3, p, 3)
        b = 3.5 * modulus(f, 0.3, p, 3)
        assert a == pytest.approx(b, rel=1e-12)


def test_modulus_grid_refinement_stable(ws):
    for fid in ("cusp:0.5", "cusp:1.5"):
        f = ws.spectral(fid)
        m1 = modulus(f, 0.25, INF, 3, theta_grid_size=64)
        m2 = modulus(f, 0.25, INF, 3, theta_grid_size=128)
        assert abs(m1 - m2) <= 0.01 * m2


def test_modulus_memo_hit_is_recomputation(ws):
    f = ws.spectral("cusp:0.5")
    clear_run_memos()
    first = modulus(f, 0.2, 1.0, 3)
    # equal coefficient bytes in a new object meet the same cell; p = 2
    # shares the theta-scan table
    hit = modulus(ZonalSpectral(lam=f.lam, coeffs=f.coeffs.copy()), 0.2, 1.0, 3)
    modulus(f, 0.2, 2.0, 3)
    stats = run_memo_stats()
    assert (stats["modulus"]["hits"], stats["modulus"]["misses"]) == (1, 2)
    assert (stats["theta_scan"]["hits"], stats["theta_scan"]["misses"]) == (1, 1)
    clear_run_memos()
    assert modulus(f, 0.2, 1.0, 3) == first == hit
    other = ZonalSpectral(lam=f.lam, coeffs=f.coeffs * (1.0 + 1e-9))
    assert modulus(other, 0.2, 1.0, 3) != first


def test_modulus_domain():
    f = ZonalSpectral(lam=0.5, coeffs=np.ones(3))
    with pytest.raises(ValueError):
        modulus(f, 0.0, 2.0, 3)
    with pytest.raises(ValueError):
        modulus(f, 3.5, 2.0, 3)


def test_translation_error_norms_batch(ws):
    f = ws.spectral("harmonic:4")
    thetas = np.array([0.05, 0.1])
    vals = translation_error_norms(f, thetas, 2.0, 3)
    for theta, val in zip(thetas, vals):
        expect = (1.0 - q_normalized(4, 0.5, theta)) * lp_norm_zonal(f, 2.0, 3)
        assert val == pytest.approx(expect, rel=1e-10)


def test_default_candidate_degrees():
    degrees = default_candidate_degrees(0.25)
    assert degrees[0] == 1
    assert degrees[-1] == 4 * 16
    assert all(b > a for a, b in zip(degrees, degrees[1:]))


def test_k_estimate_upper_bounds(ws):
    f = ws.spectral("cusp:1.0")
    for p in (1.0, 2.0, INF):
        norm = lp_norm_zonal(f, p, 3)
        assert k_functional_estimate(f, 0.2, p, 3) <= norm + 1e-12


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), band=st.integers(0, 40), pad=st.integers(0, 64),
       t=st.floats(0.05, math.pi), p=st.sampled_from([1.0, 2.0, INF]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_k_estimate_bounded_by_norm_property(d, band, pad, t, p, seed):
    # g = 0 is a candidate, so the estimate never exceeds ||f||_p
    coeffs = np.zeros(band + pad + 1)
    coeffs[:band + 1] = np.random.default_rng(seed).uniform(-1.0, 1.0, band + 1)
    f = ZonalSpectral(lam=(d - 2) / 2.0, coeffs=coeffs)
    assert k_functional_estimate(f, t, p, d) <= lp_norm_zonal(f, p, d) * (1.0 + 1e-12)


def test_k_estimate_constant_is_zero():
    const = ZonalSpectral(lam=0.5, coeffs=np.array([2.0]))
    assert k_functional_estimate(const, 0.3, 2.0, 3) == pytest.approx(0.0, abs=1e-14)


def test_k_estimate_monotone_in_candidates(ws):
    f = ws.spectral("cusp:0.5")
    small = k_functional_estimate(f, 0.2, 2.0, 3, candidate_degrees=(1, 4))
    large = k_functional_estimate(f, 0.2, 2.0, 3, candidate_degrees=(1, 2, 4, 16, 25))
    assert large <= small + 1e-14


def test_k_estimate_candidate_validation(ws):
    f = ws.spectral("bump")
    with pytest.raises(ValueError):
        k_functional_estimate(f, 0.2, 2.0, 3, candidate_degrees=())
    with pytest.raises(ValueError):
        k_functional_estimate(f, 0.2, 2.0, 3, candidate_degrees=(0, 3))


def test_equivalence_rows_constant_degenerate():
    # both sides of the equivalence vanish on a constant, so the modulus
    # suite flags such a row degenerate instead of forming the ratio
    const = ZonalSpectral(lam=0.5, coeffs=np.array([3.0]))
    for t in (0.5, 0.1):
        assert modulus(const, t, 2.0, 3) == 0.0
        assert k_functional_estimate(const, t, 2.0, 3) == pytest.approx(0.0, abs=1e-14)


def test_equivalence_ratio_window_sample(ws):
    f = ws.spectral("cusp:1.0")
    for n in (4, 16, 64):
        t = n ** -0.5
        ratio = modulus(f, t, INF, 3) / k_functional_estimate(f, t, INF, 3)
        assert 1.0 / 50.0 <= ratio <= 50.0


def test_cusp_modulus_rate_classification():
    # the sup-norm modulus of the geodesic cusp theta^alpha scales like
    # t^min(alpha, 1): the profile also has a Lipschitz cone at the antipode
    # (geodesic distance is not smooth there), which caps the rate at 1
    ws_fine = Workspace(3, 256, band_limit=2048)
    ts = 2.0 ** -np.arange(2, 9)
    for alpha in (0.5, 1.0, 1.5):
        f = ws_fine.spectral(f"cusp:{alpha}")
        oms = np.array([modulus(f, t, INF, 3) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(oms), 1)[0]
        assert abs(slope - min(alpha, 1.0)) <= 0.15
