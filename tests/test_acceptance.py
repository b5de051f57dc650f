"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdict lines.  Thresholds are pinned here; they are empirical stand-ins for
constants that the underlying estimates leave existential.
"""

import math

import numpy as np
import pytest

from vpmeans.experiments import (prepare_corpus, run_converse_suite, run_modulus_suite,
                                 run_multiplier_identity_suite)
from vpmeans.function_space import (INF, ZonalSpectral, corpus_ids, lp_norm_grid,
                                    lp_norm_zonal, lp_norms_batch, make_corpus)
from vpmeans.kernel import (alpha_voronovskaya, kernel_norm_constant,
                            lemma_integral, multiplier_sequence,
                            multiplier_via_quadrature, multiplier_weight,
                            vpm_kernel_eval)
from vpmeans.operators import (sample_zonal_on_grid, translate_direct,
                               translate_spectral, vpm_grid, vpm_means,
                               zonal_point_function)
from vpmeans.quadrature import integrate_theta, sphere_grid

NORTH = np.array([0.0, 0.0, 1.0])
P_ALL = (1.0, 2.0, INF)
DYADIC_4_256 = (4, 8, 16, 32, 64, 128, 256)
BAND_LIMITED_IDS = ("harmonic:1", "harmonic:4", "harmonic:16", "randband:seed42")
NONNEGATIVE_IDS = ("cusp:0.5", "cusp:1.0", "cusp:1.5", "bump")


def verdict(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}"
    print(line)
    assert ok, line


def test_c01_multiplier_identity():
    worst = 0.0
    for d in (3, 4, 5):
        lam = (d - 2) / 2.0
        for n in range(33):
            for k in range(n + 5):
                closed = multiplier_weight(n, k, lam)
                if k > n:
                    assert closed == 0.0
                quad = multiplier_via_quadrature(n, k, d)
                worst = max(worst, abs(closed - quad))
    verdict(1, worst <= 1e-9,
            f"closed form vs quadrature multiplier, max |diff| = {worst:.3e} <= 1e-9")


def test_c02_kernel_normalization():
    worst = 0.0
    for d in (3, 4, 5):
        lam = (d - 2) / 2.0
        for n in range(513):
            val = integrate_theta(lambda t: vpm_kernel_eval(n, d, t), lam, 576)
            worst = max(worst, abs(val - 1.0))
    verdict(2, worst <= 1e-10,
            f"kernel normalization over n <= 512, d in 3..5, max dev = {worst:.3e} <= 1e-10")


def test_c03_norm_constant_closed_form_d3():
    worst = 0.0
    for n in range(513):
        rel = abs(math.exp(kernel_norm_constant(n, 3)) - 2.0 / (n + 1)) / (2.0 / (n + 1))
        worst = max(worst, rel)
    verdict(3, worst <= 1e-12,
            f"I(n,3) = 2/(n+1), max rel err = {worst:.3e} <= 1e-12")


def test_c04_fourth_moment_scaling():
    worst = 0.0
    for d in (3, 4, 5):
        vals = [n ** 2 * lemma_integral(n, d, 4.0)
                for n in (32, 64, 128, 256, 512)]
        worst = max(worst, max(vals) / min(vals))
    verdict(4, worst <= 2.0,
            f"n^2 * fourth moment windows, worst max/min = {worst:.3f} <= 2")


def test_c05_inverse_moment_scalings():
    worst = 0.0
    for d in (3, 4, 5):
        lam = (d - 2) / 2.0
        neg = [n ** (-lam / 2.0) * lemma_integral(n, d, -lam)
               for n in (32, 64, 128, 256, 512)]
        m7 = [n ** (-1.0 / 7.0) * lemma_integral(n, d, -2.0 / 7)
              for n in (32, 64, 128, 256, 512)]
        worst = max(worst, max(neg) / min(neg), max(m7) / min(m7))
    verdict(5, worst <= 2.0,
            f"theta^-lam and theta^(-2/7) moment windows, worst max/min = {worst:.3f} <= 2")


def test_c06_norm_constant_asymptotic():
    worst = 0.0
    for d in (3, 4, 5):
        vals = [math.exp(kernel_norm_constant(n, d)) * n ** ((d - 1) / 2.0)
                for n in (64, 128, 256, 512, 1024)]
        worst = max(worst, max(vals) / min(vals))
    verdict(6, worst <= 1.5,
            f"I(n,d) * n^((d-1)/2) window, worst max/min = {worst:.3f} <= 1.5")


def test_c07_voronovskaya_residuals():
    worst_ratio = 0.0
    alpha_ok = True
    limit_ok = True
    for d in (3, 4):
        lam = (d - 2) / 2.0
        normalized = []
        for n in (16, 32, 64, 128, 256):
            alpha = alpha_voronovskaya(n, d)
            alpha_ok = alpha_ok and 0.5 <= n * alpha <= 2.0
            if d == 3 and n >= 64:
                limit_ok = limit_ok and abs(n * alpha - 1.0) <= 0.1
            for k in range(1, math.isqrt(n) + 1):
                eig = k * (k + d - 2)
                residual = abs(multiplier_weight(n, k, lam) - 1.0 + alpha * eig)
                normalized.append(residual * n ** 2 / eig ** 2)
        worst_ratio = max(worst_ratio, max(normalized) / min(normalized))
    ok = worst_ratio <= 3.0 and alpha_ok and limit_ok
    verdict(7, ok,
            f"voronovskaya normalized residual max/min = {worst_ratio:.3f} <= 3, "
            f"n*alpha in [0.5,2]: {alpha_ok}, |n*alpha-1| <= 0.1 at n >= 64 (d=3): {limit_ok}")


def test_c08_bernstein_multiplier_bound():
    vals = []
    for n in (16, 32, 64, 128, 256, 512):
        seq = multiplier_sequence(n, 0.5, n)
        k = np.arange(n + 1, dtype=float)
        vals.append(float(np.max(k * (k + 1) * seq ** 7)) / n)
    ratio = max(vals) / min(vals)
    verdict(8, ratio <= 2.0,
            f"max_k k(k+1) omega^7 / n window, max/min = {ratio:.3f} <= 2 (d=3, m=7)")


def test_c09_two_pathway_oracles():
    corpus = {m.tag: m for m in make_corpus(3)}
    rng = np.random.default_rng(123)
    pts = rng.normal(size=(100, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]

    # (a) spectral vs direct translation on the band-limited members
    trans_worst = 0.0
    for fid in BAND_LIMITED_IDS:
        member = corpus[fid]
        f = ZonalSpectral(lam=0.5, coeffs=member.coeffs)
        f_eval = zonal_point_function(f, NORTH)
        for theta in (0.3, 0.7, 1.5):
            shifted = translate_spectral(f, theta)
            expect = zonal_point_function(shifted, NORTH)(pts)
            for point, ref in zip(pts, expect):
                got = translate_direct(f_eval, theta, point, 4 * f.band_limit + 16)
                trans_worst = max(trans_worst, abs(got - ref))

    # (b) spectral vs dense grid convolution
    grid = sphere_grid(24)
    conv_worst = 0.0
    for fid in BAND_LIMITED_IDS:
        member = corpus[fid]
        gf = sample_zonal_on_grid(member, grid)
        conv = vpm_grid(gf, 8)
        spectral = vpm_means(ZonalSpectral(lam=0.5, coeffs=member.coeffs), 8)
        expect = zonal_point_function(spectral, NORTH)(grid.points)
        conv_worst = max(conv_worst, float(np.max(np.abs(conv.values - expect))))

    # (c) zonal vs grid norms; p = 2 for everything, p = 1 where |f| = f is
    # quadrature-friendly, p = inf with the pole placed on a grid point so
    # both pathways sample the extremum
    norm_grid = sphere_grid(256)
    pole = norm_grid.points[len(norm_grid.points) // 2]
    norm_worst = 0.0
    for fid, member in corpus.items():
        pairs = [(2.0, NORTH)]
        if fid in NONNEGATIVE_IDS:
            pairs.append((1.0, NORTH))
        pairs.append((INF, pole))
        for p, axis in pairs:
            gf = sample_zonal_on_grid(member, norm_grid, pole=axis)
            ref = lp_norm_zonal(member, p, 3, order=8192)
            rel = abs(lp_norm_grid(gf, p) - ref) / ref
            norm_worst = max(norm_worst, rel)

    ok = trans_worst <= 1e-8 and conv_worst <= 1e-7 and norm_worst <= 1e-6
    verdict(9, ok,
            f"two-pathway: translation sup {trans_worst:.2e} <= 1e-8, "
            f"convolution sup {conv_worst:.2e} <= 1e-7, norm rel {norm_worst:.2e} <= 1e-6")


def test_c10_operator_laws():
    semigroup_worst = 0.0
    chain_ok = True
    contraction_ok = True
    for f in prepare_corpus(corpus_ids(), 3, 16):
        for m, l in ((2, 3), (1, 7), (4, 4)):
            once = vpm_means(f, 6, m + l).coeffs
            twice = vpm_means(vpm_means(f, 6, l), 6, m).coeffs
            semigroup_worst = max(semigroup_worst, float(np.max(np.abs(once - twice))))
        for p in P_ALL:
            base = lp_norms_batch(f.coeffs - vpm_means(f, 16).coeffs, f.lam, p)[0]
            for m in (2, 7):
                err_m = lp_norms_batch(f.coeffs - vpm_means(f, 16, m).coeffs, f.lam, p)[0]
                chain_ok = chain_ok and err_m <= m * base + 1e-8
            norm = lp_norms_batch(f.coeffs, f.lam, p)[0]
            for theta in (0.05, 0.3, 1.0, 2.5):
                shifted = translate_spectral(f, theta)
                contraction_ok = contraction_ok and (
                    lp_norms_batch(shifted.coeffs, f.lam, p)[0] <= norm + 1e-8)
    ok = semigroup_worst <= 1e-15 and chain_ok and contraction_ok
    verdict(10, ok,
            f"semigroup sup {semigroup_worst:.2e} <= 1e-15, chain bound: {chain_ok}, "
            f"translation contraction: {contraction_ok}")


def test_c11_strong_converse():
    report = run_converse_suite(corpus_ids(), P_ALL, DYADIC_4_256, 3)
    windows = report.measured["ratio_windows"]
    worst = max(w["ratio"] for w in windows.values())
    min_r = min(w["min"] for w in windows.values())
    ok = (report.passed and report.measured["window_bound"] == 25.0
          and worst <= 25.0 and min_r > 0.0)
    verdict(11, ok,
            f"operator error vs modulus, worst per-function ratio window = {worst:.2f} <= 25, "
            f"min ratio = {min_r:.3f} > 0")


def test_c12_modulus_k_equivalence():
    report = run_modulus_suite(corpus_ids(), P_ALL, DYADIC_4_256, 3)
    lo = report.measured["ratio_range"]["low"]
    hi = report.measured["ratio_range"]["high"]
    ok = (report.passed and report.measured["window_bound"] == 50.0
          and lo >= 1.0 / 50.0 and hi <= 50.0)
    verdict(12, ok,
            f"omega / K-estimate in [{lo:.3f}, {hi:.3f}] within [1/50, 50]")


def test_c13_determinism():
    a = run_multiplier_identity_suite(3, 8)
    b = run_multiplier_identity_suite(3, 8)
    small = ("cusp:1.0", "harmonic:4")
    c = run_converse_suite(small, (2.0,), (4, 8), 3)
    d = run_converse_suite(small, (2.0,), (4, 8), 3)
    ok = a.csv_body() == b.csv_body() and c.csv_body() == d.csv_body()
    verdict(13, ok, "re-running suites under identical config is byte-identical")
