import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vpmeans.experiments
import vpmeans.function_space
import vpmeans.smoothness
from vpmeans.experiments import _delayed_maxima, prepare_corpus
from vpmeans.function_space import lp_norm_maxima
from vpmeans.function_space import INF, ZonalSpectral, lp_norms_batch
from vpmeans.memo import RUN_RECORDS, clear_run_memos, run_memo_stats
from vpmeans.smoothness import (_theta_scan, default_candidate_degrees,
                                k_functional_estimate, modulus, modulus_many,
                                translation_error_norms)
from vpmeans.special import q_table


@pytest.fixture(scope="module")
def spectral():
    return lambda fid: prepare_corpus([fid], 3, 64)[0]


def unit(k, size):
    c = np.zeros(size)
    c[k] = 1.0
    return c


def test_modulus_of_constant_is_zero():
    const = ZonalSpectral(lam=0.5, coeffs=np.array([7.0]))
    for t in (0.01, 0.5, math.pi):
        assert modulus(const, t, 2.0) == 0.0


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
@pytest.mark.parametrize("k", [1, 4])
def test_modulus_single_harmonic_closed_form(p, k):
    # diagonal action gives ||f - S_theta f||_p = (1 - Q_k(cos theta)) ||Q_k||_p,
    # and 1 - Q_k(cos theta) increases on the first lobe, so the sup sits at
    # theta = t for small t
    f = ZonalSpectral(lam=0.5, coeffs=unit(k, k + 1))
    t = 0.2 / k
    expect = (1.0 - q_table(k, 0.5, t)[0, k]) * lp_norms_batch(f.coeffs, f.lam, p)[0]
    assert modulus(f, t, p) == pytest.approx(expect, rel=1e-10)


def test_modulus_monotone_in_t(spectral):
    f = spectral("cusp:1.0")
    prev = 0.0
    for t in (0.01, 0.05, 0.2, 0.8, 3.0):
        cur = modulus(f, t, 2.0)
        assert cur >= prev - 1e-12
        prev = cur


def test_modulus_bounded_by_twice_norm(spectral):
    for fid in ("harmonic:16", "cusp:0.5", "bump", "randband:seed42"):
        f = spectral(fid)
        for p in (1.0, 2.0, INF):
            assert modulus(f, 0.5, p) <= 2.0 * lp_norms_batch(f.coeffs, f.lam, p)[0] + 1e-10


def test_modulus_subhomogeneous(spectral):
    f = spectral("bump")
    scaled = ZonalSpectral(lam=f.lam, coeffs=-3.5 * f.coeffs)
    for p in (1.0, INF):
        a = modulus(scaled, 0.3, p)
        b = 3.5 * modulus(f, 0.3, p)
        assert a == pytest.approx(b, rel=1e-12)


def test_modulus_grid_refinement_stable(spectral):
    for fid in ("cusp:0.5", "cusp:1.5"):
        f = spectral(fid)
        m1 = modulus(f, 0.25, INF, theta_grid_size=64)
        m2 = modulus(f, 0.25, INF, theta_grid_size=128)
        assert abs(m1 - m2) <= 0.01 * m2


def test_modulus_memo_hit_is_recomputation(spectral):
    f = spectral("cusp:0.5")
    clear_run_memos()
    first = modulus(f, 0.2, 1.0)
    # equal coefficient bytes in a new object meet the same cell; p = 2
    # shares the theta-scan table
    hit = modulus(ZonalSpectral(lam=f.lam, coeffs=f.coeffs.copy()), 0.2, 1.0)
    modulus(f, 0.2, 2.0)
    stats = run_memo_stats()
    assert (stats["modulus"]["hits"], stats["modulus"]["misses"]) == (1, 2)
    assert (stats["theta_scan"]["hits"], stats["theta_scan"]["misses"]) == (1, 1)
    clear_run_memos()
    assert modulus(f, 0.2, 1.0) == first == hit
    other = ZonalSpectral(lam=f.lam, coeffs=f.coeffs * (1.0 + 1e-9))
    assert modulus(other, 0.2, 1.0) != first


def full_sweep(f, thetas, ps):
    """The unpruned oracle: ||f - S_theta f||_p at every step, from the columns
    f.coeffs * (1 - Q_k(cos theta)) on the full band, one lp_norms_batch call per p."""
    damping = 1.0 - q_table(f.band_limit, f.lam, np.asarray(thetas, dtype=float))
    cols = np.multiply(f.coeffs[:, None], damping.T, order="C")
    return np.array([lp_norms_batch(cols, f.lam, p) for p in ps])


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
    # the unpruned 64-step sweep is the oracle; modulus synthesises only the
    # steps whose bound can reach the max
    f = band_limited(d, support, pad, seed)
    full = float(np.max(full_sweep(f, _theta_scan(t, 64), [p])))
    clear_run_memos()
    assert modulus(f, t, p) == pytest.approx(full, rel=1e-14, abs=0.0)


def test_modulus_cells_in_a_batch_equal_cells_alone(spectral):
    ts = [n ** -0.5 for n in (4, 8, 16, 32, 64)] + [math.pi]
    for fid in ("cusp:0.5", "bump", "randband:seed42", "harmonic:16"):
        f = spectral(fid)
        clear_run_memos()
        batch = modulus_many(f, ts, (1.0, 2.0, INF))
        for p, cells in zip((1.0, 2.0, INF), batch):
            for t, cell in zip(ts, cells):
                clear_run_memos()
                assert modulus(f, t, p) == pytest.approx(cell, rel=1e-14, abs=0.0)


def test_modulus_reaches_translation_error_norms(spectral, monkeypatch):
    # the cells missing from the memo take one pruned sweep over all their p,
    # so one set of translation columns and one bound pass
    runs = []
    inner = vpmeans.smoothness.translation_error_norms
    monkeypatch.setattr(vpmeans.smoothness, "translation_error_norms",
                        lambda f, thetas, ps, *args, **kw:
                        runs.append((kw["sizes"], list(ps))) or inner(f, thetas, ps, *args, **kw))
    f = spectral("cusp:1.0")
    clear_run_memos()
    single = modulus(f, 0.3, INF)
    cells = modulus_many(f, [0.5, 0.3, math.pi], (1.0, 2.0, INF))
    assert cells[2][1] == single
    scan = len(_theta_scan(math.pi, 64))
    assert runs == [([64], [INF]), ([64, 64, scan], [1.0, 2.0, INF])]
    assert run_memo_stats()["modulus"] == {"entries": 9, "hits": 1, "misses": 9, "bytes": 0}


def test_modulus_domain():
    f = ZonalSpectral(lam=0.5, coeffs=np.ones(3))
    with pytest.raises(ValueError):
        modulus(f, 0.0, 2.0)
    with pytest.raises(ValueError):
        modulus(f, 3.5, 2.0)
    with pytest.raises(ValueError):
        modulus_many(f, [0.5, 0.0], [2.0])
    with pytest.raises(ValueError, match="p must"):
        modulus(f, 0.3, math.nan)
    for theta in (0.0, math.pi, math.nan):
        with pytest.raises(ValueError, match=r"\(0, pi\)"):
            translation_error_norms(f, [0.2, theta], [2.0], [2])


def test_translation_error_norms_batch(spectral):
    f = spectral("harmonic:4")
    thetas = np.array([0.05, 0.1])
    vals = translation_error_norms(f, thetas, [2.0, INF], [1] * thetas.size)
    assert vals.shape == (2, thetas.size)
    np.testing.assert_allclose(vals, full_sweep(f, thetas, [2.0, INF]), rtol=1e-14, atol=0.0)
    for theta, val in zip(thetas, vals[0]):
        expect = (1.0 - q_table(4, 0.5, theta)[0, 4]) * lp_norms_batch(f.coeffs, f.lam, 2.0)[0]
        assert val == pytest.approx(expect, rel=1e-10)


def test_translation_errors_stay_in_coefficient_form(spectral, monkeypatch):
    # ||f - S_theta f|| / ||f|| falls to ~1e-8 at the smallest steps, where a
    # difference of syntheses would lose ~1e-8 relative
    references = []
    maxima = vpmeans.smoothness.lp_norm_maxima
    monkeypatch.setattr(vpmeans.smoothness, "lp_norm_maxima",
                        lambda *args, reference=None: references.append(reference) or
                        maxima(*args, reference=reference))
    translation_error_norms(spectral("cusp:0.5"), [1e-3, 0.1], [1.0], [2])
    assert references == [None]
    with pytest.raises(TypeError, match="sequence"):
        translation_error_norms(spectral("cusp:0.5"), [0.1], 1.0, sizes=[1])


def test_k_estimate_batch_equals_single_scales(monkeypatch):
    # one means_columns call builds the candidates of every scale, and each p
    # takes one lp_norms_batch pair; each scale's min reads its own degrees
    calls = []
    for name in ("means_columns", "lp_norms_batch"):
        monkeypatch.setattr(vpmeans.smoothness, name,
                            lambda *args, inner=getattr(vpmeans.smoothness, name), name=name,
                            **kw: calls.append(name) or inner(*args, **kw))
    rng = np.random.default_rng(8)
    decay = np.arange(1.0, 301.0) ** -1.5
    fs = {3: ZonalSpectral(lam=0.5, coeffs=rng.uniform(-1.0, 1.0, 300) * decay),
          5: ZonalSpectral(lam=1.5, coeffs=rng.uniform(-1.0, 1.0, 300) * decay)}
    ts, ps = [n ** -0.5 for n in (16, 4, 64, 8, 32)], [1.0, 2.0, INF]
    for d, f in fs.items():
        single = [[k_functional_estimate(f, [t], [p])[0][0] for t in ts] for p in ps]
        calls.clear()
        batch = k_functional_estimate(f, ts, ps)
        assert calls == ["means_columns"] + ["lp_norms_batch"] * 2 * len(ps)
        np.testing.assert_allclose(batch, single, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("t", [-0.25, 0.0, math.inf, math.nan])
def test_k_estimate_rejects_scales_outside_positive_reals(t):
    # -0.25 once returned the value at 0.25, 0 divided by zero and inf gave NaN
    f = ZonalSpectral(lam=0.5, coeffs=np.array([0.0, 1.0, 0.3]))
    with pytest.raises(ValueError, match=f"got {t}$"):
        k_functional_estimate(f, [0.5, t], [2.0])


def test_default_candidate_degrees():
    degrees = default_candidate_degrees(0.25)
    assert degrees[0] == 1
    assert degrees[-1] == 4 * 16
    assert all(b > a for a, b in zip(degrees, degrees[1:]))


def test_k_estimate_upper_bounds(spectral):
    f = spectral("cusp:1.0")
    for p in (1.0, 2.0, INF):
        norm = lp_norms_batch(f.coeffs, f.lam, p)[0]
        assert k_functional_estimate(f, [0.2], [p])[0][0] <= norm + 1e-12


@settings(max_examples=30, deadline=None, database=None)
@given(d=st.sampled_from([3, 4, 5]), band=st.integers(0, 40), pad=st.integers(0, 64),
       t=st.floats(0.05, math.pi), p=st.sampled_from([1.0, 2.0, INF]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_k_estimate_bounded_by_norm_property(d, band, pad, t, p, seed):
    # g = 0 is a candidate, so the estimate never exceeds ||f||_p
    coeffs = np.zeros(band + pad + 1)
    coeffs[:band + 1] = np.random.default_rng(seed).uniform(-1.0, 1.0, band + 1)
    f = ZonalSpectral(lam=(d - 2) / 2.0, coeffs=coeffs)
    norm = lp_norms_batch(f.coeffs, f.lam, p)[0]
    assert k_functional_estimate(f, [t], [p])[0][0] <= norm * (1.0 + 1e-12)


def test_k_estimate_constant_is_zero():
    const = ZonalSpectral(lam=0.5, coeffs=np.array([2.0]))
    assert k_functional_estimate(const, [0.3], [2.0])[0][0] == pytest.approx(0.0, abs=1e-14)


def test_equivalence_rows_constant_degenerate():
    # both sides of the equivalence vanish on a constant, so the modulus
    # suite flags such a row degenerate instead of forming the ratio
    const = ZonalSpectral(lam=0.5, coeffs=np.array([3.0]))
    for t in (0.5, 0.1):
        assert modulus(const, t, 2.0) == 0.0
        assert k_functional_estimate(const, [t], [2.0])[0][0] == pytest.approx(0.0, abs=1e-14)


def test_equivalence_ratio_window_sample(spectral):
    f = spectral("cusp:1.0")
    ts = [n ** -0.5 for n in (4, 16, 64)]
    (moduli,), (estimates,) = modulus_many(f, ts, [INF]), k_functional_estimate(f, ts, [INF])
    for om, kf in zip(moduli, estimates):
        assert 1.0 / 50.0 <= om / kf <= 50.0


def test_cusp_modulus_rate_classification():
    # the sup-norm modulus of the geodesic cusp theta^alpha scales like
    # t^min(alpha, 1): the profile also has a Lipschitz cone at the antipode
    # (geodesic distance is not smooth there), which caps the rate at 1
    ts = 2.0 ** -np.arange(2, 9)
    for alpha in (0.5, 1.0, 1.5):
        f = prepare_corpus([f"cusp:{alpha}"], 3, 496)[0]     # K = 2048
        oms = np.array([modulus(f, t, INF) for t in ts])
        slope = np.polyfit(np.log(ts), np.log(oms), 1)[0]
        assert abs(slope - min(alpha, 1.0)) <= 0.15


@pytest.mark.parametrize("d", [3, 5])
def test_live_row_builders_equal_full_height_builders(monkeypatch, d):
    # the translation and delayed-max builders give only the rows where a
    # column can be non-zero; padded back to K + 1 rows, they must give the
    # same bounds, maxima and pruning records, bit for bit (a delayed-max cap
    # of 2 max(n) + 4 leaves a one-column block)
    log, heights, bounds = RUN_RECORDS["pruning"], [], []
    pruned = vpmeans.function_space._pruned_maxima

    def recorded(ctx, p, d, columns, starts, bound, prefix, rounding, ref_vals):
        bounds.append(np.concatenate([bound, prefix, rounding]))
        return pruned(ctx, p, d, columns, starts, bound, prefix, rounding, ref_vals)

    def both(columns, sizes, lam, ps, k_max, reference=None):
        start, first = len(log), len(bounds)
        live = lp_norm_maxima(columns, sizes, lam, ps, k_max, reference=reference)
        records, middle = log[start:], len(bounds)

        def full(picked):
            block = columns(picked)
            heights.append(len(block))
            return np.pad(block, ((0, k_max + 1 - len(block)), (0, 0)))
        assert np.array_equal(lp_norm_maxima(full, sizes, lam, ps, k_max, reference=reference),
                              live)
        assert log[start + len(records):] == records
        assert all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(bounds[first:middle], bounds[middle:]))
        return live
    monkeypatch.setattr(vpmeans.function_space, "_pruned_maxima", recorded)
    monkeypatch.setattr(vpmeans.smoothness, "lp_norm_maxima", both)
    monkeypatch.setattr(vpmeans.experiments, "lp_norm_maxima", both)
    ids, n_list, ps = ["harmonic:16", "randband:seed42", "cusp:0.5", "bump"], [4, 8, 16, 32], \
        [1.0, 2.0, INF]
    clear_run_memos()
    for f in prepare_corpus(ids, d, max(n_list)):
        heights.clear()
        modulus_many(f, [n ** -0.5 for n in n_list], ps)
        _delayed_maxima(f, n_list, 2 * max(n_list) + 4, ps)
        assert min(heights) < f.band_limit + 1
    assert len(bounds) == 2 * 2 * 2 * len(ids)     # p = 1 and inf, two sweeps, two builders
    clear_run_memos()
