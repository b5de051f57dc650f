import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vpmeans.smoothness
from vpmeans.experiments import Workspace
from vpmeans.function_space import INF, ZonalSpectral, lp_norm_zonal
from vpmeans.memo import clear_run_memos, run_memo_stats
from vpmeans.smoothness import (_theta_scan, default_candidate_degrees,
                                k_functional_estimate, modulus, modulus_many,
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


def band_limited(d, support, pad, seed):
    """Coefficients uniform in [-1, 1] up to degree `support`, zero up to
    the band limit support + pad."""
    coeffs = np.zeros(support + pad + 1)
    coeffs[:support + 1] = np.random.default_rng(seed).uniform(-1.0, 1.0, support + 1)
    return ZonalSpectral(lam=(d - 2) / 2.0, coeffs=coeffs)


@settings(max_examples=60, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), support=st.integers(0, 120), pad=st.integers(0, 60),
       p=st.sampled_from([1.0, INF]), seed=st.integers(0, 2 ** 32 - 1),
       t=st.floats(1e-6, math.pi))
# steps whose norm is the max without the largest bound
@example(d=3, support=3, pad=0, p=1.0, seed=0, t=2.0)
@example(d=3, support=5, pad=0, p=INF, seed=1, t=3.0)
def test_pruned_modulus_equals_full_sweep(d, support, pad, p, seed, t):
    # the 64-step sweep of translation_error_norms is the oracle; modulus
    # synthesises only the steps whose bound can reach the max
    f = band_limited(d, support, pad, seed)
    full = float(np.max(translation_error_norms(f, _theta_scan(t, 64), [p], d)))
    clear_run_memos()
    if p == INF:
        assert modulus(f, t, p, d) == full
    else:
        assert modulus(f, t, p, d) == pytest.approx(full, rel=1e-14, abs=0.0)


def test_modulus_cells_in_a_batch_equal_cells_alone(ws):
    ts = [n ** -0.5 for n in (4, 8, 16, 32, 64)] + [math.pi]
    for fid in ("cusp:0.5", "bump", "randband:seed42", "harmonic:16"):
        f = ws.spectral(fid)
        clear_run_memos()
        batch = modulus_many(f, ts, (1.0, 2.0, INF), 3)
        for p, cells in zip((1.0, 2.0, INF), batch):
            for t, cell in zip(ts, cells):
                clear_run_memos()
                assert modulus(f, t, p, 3) == cell


def test_modulus_reaches_translation_error_norms(ws, monkeypatch):
    # the cells missing from the memo take one pruned sweep over all their p,
    # so one set of translation columns and one bound pass
    runs = []
    inner = vpmeans.smoothness.translation_error_norms
    monkeypatch.setattr(vpmeans.smoothness, "translation_error_norms",
                        lambda f, thetas, ps, *args, **kw:
                        runs.append((kw["sizes"], list(ps))) or inner(f, thetas, ps, *args, **kw))
    f = ws.spectral("cusp:1.0")
    clear_run_memos()
    single = modulus(f, 0.3, INF, 3)
    cells = modulus_many(f, [0.5, 0.3, math.pi], (1.0, 2.0, INF), 3)
    assert cells[2][1] == single
    scan = len(_theta_scan(math.pi, 64))
    assert runs == [([64], [INF]), ([64, 64, scan], [1.0, 2.0, INF])]
    assert run_memo_stats()["modulus"] == {"entries": 9, "hits": 1, "misses": 9, "bytes": 0}


def test_modulus_domain():
    f = ZonalSpectral(lam=0.5, coeffs=np.ones(3))
    with pytest.raises(ValueError):
        modulus(f, 0.0, 2.0, 3)
    with pytest.raises(ValueError):
        modulus(f, 3.5, 2.0, 3)
    with pytest.raises(ValueError):
        modulus_many(f, [0.5, 0.0], [2.0], 3)


def test_translation_error_norms_batch(ws):
    f = ws.spectral("harmonic:4")
    thetas = np.array([0.05, 0.1])
    vals = translation_error_norms(f, thetas, [2.0, INF], 3)
    assert vals.shape == (2, thetas.size)
    for theta, val in zip(thetas, vals[0]):
        expect = (1.0 - q_normalized(4, 0.5, theta)) * lp_norm_zonal(f, 2.0, 3)
        assert val == pytest.approx(expect, rel=1e-10)


def test_translation_errors_stay_in_coefficient_form(ws, monkeypatch):
    # ||f - S_theta f|| / ||f|| falls to ~1e-8 at the smallest steps, where a
    # difference of syntheses would lose ~1e-8 relative
    references = []
    batch = vpmeans.smoothness.lp_norms_batch
    monkeypatch.setattr(vpmeans.smoothness, "lp_norms_batch",
                        lambda *args, **kw: references.append(kw.get("reference")) or
                        batch(*args, **kw))
    translation_error_norms(ws.spectral("cusp:0.5"), [1e-3, 0.1], [1.0], 3)
    assert references == [None]
    with pytest.raises(TypeError, match="sequence"):
        translation_error_norms(ws.spectral("cusp:0.5"), [0.1], 1.0, 3, sizes=[1])


def test_k_estimate_shares_candidates_across_scales():
    rng = np.random.default_rng(8)
    decay = np.arange(1.0, 301.0) ** -1.5
    fs = {3: ZonalSpectral(lam=0.5, coeffs=rng.uniform(-1.0, 1.0, 300) * decay),
          5: ZonalSpectral(lam=1.5, coeffs=rng.uniform(-1.0, 1.0, 300) * decay)}
    cells = [(d, p, n ** -0.5) for d in fs for p in (1.0, 2.0, INF) for n in (4, 8, 16, 32, 64)]
    fresh = {}
    for d, p, t in cells:
        clear_run_memos()
        fresh[d, p, t] = k_functional_estimate(fs[d], t, p, d)
    clear_run_memos()
    for d, p, t in cells:      # descending t within each (d, p)
        assert k_functional_estimate(fs[d], t, p, d) == pytest.approx(fresh[d, p, t], rel=1e-13)
    # one miss per (m, d, p); m = 0 is the candidate g = 0
    entries = {(m, d, p) for d, p, t in cells for m in (0,) + default_candidate_degrees(t)}
    assert run_memo_stats()["k_candidates"]["misses"] == len(entries)
    clear_run_memos()


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
