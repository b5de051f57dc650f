"""Verification suites.

Each suite sweeps one family of computable identities or bound shapes,
collects per-cell rows into an ExperimentReport, re-runs its most sensitive
cell at a finer quadrature resolution as a self-check, and judges pass/fail
against the windows below.  All thresholds are existential stand-ins for
constants that are never pinned down analytically, so the windows are
generous module constants, and `measured` echoes the ones each suite used.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .function_space import (INF, ZonalSpectral, _live_rows, _norm_context, lp_norm_maxima,
                             lp_norms_batch, make_corpus, zonal_project, zonal_synthesis)
from .kernel import (_alpha_nested, _multiplier_integrals, _multiplier_prefixes, _refine,
                     alpha_voronovskaya, default_order, kernel_norm_constant, lemma_integral,
                     multiplier_sequence, multiplier_via_quadrature, multiplier_weight,
                     vpm_kernel_eval)
from .memo import RunMemo
from .operators import (means_columns, sample_zonal_on_grid, translate_direct,
                        translate_spectral, vpm_grid, vpm_means, zonal_point_function)
from .quadrature import gauss_legendre, gauss_legendre_many, integrate_theta, sphere_grid
from .smoothness import (THETA_GRID_SIZE, _damping_table, _theta_scans, k_functional_estimate,
                         modulus, modulus_many)
from .special import _q_rows, q_envelope, q_table

__all__ = [
    "ExperimentReport",
    "prepare_corpus",
    "run_multiplier_identity_suite",
    "run_lemma_suite",
    "run_voronovskaya_suite",
    "run_converse_suite",
    "run_delayed_max_suite",
    "run_modulus_suite",
    "run_selftest_suite",
    "measure_envelope_constant",
]

DEGENERATE_FLOOR = 1e-12

MULTIPLIER_TOL = 1e-9           # |closed form - quadrature| of each multiplier
LEMMA_WINDOW = 2.0              # max/min of each normalized kernel moment
VORONOVSKAYA_WINDOW = 3.0       # max/min of the normalized Voronovskaya residual
ALPHA_BOUNDS = (0.5, 2.0)       # range of n * alpha(n)
RATIO_WINDOW = 25.0             # max/min of the converse and delayed-max ratios
EQUIVALENCE_WINDOW = 50.0       # omega / K-estimate lies in [1/window, window]
MULTIPLIER_REACH = 4            # the multiplier suite reads k <= n + 4 at each degree n
BAND_BUDGET = 2048              # the largest band limit a run may ask for
REFINEMENT_RTOL = 1e-6          # lemma and alpha(n) refinement self-checks, relative
MODULUS_GRID_RTOL = 0.02        # omega on the doubled theta grid, relative


def _fmt(value):
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@dataclass
class ExperimentReport:
    """Tabular result of one suite run.

    The CSV body (header plus rows) is deterministic for a fixed
    configuration.  Suites that re-run a cell at a finer resolution record
    that verdict as measured["refinement_check"]; it is part of `passed`.
    """
    suite: str
    columns: list
    rows: list
    passed: bool
    measured: dict = field(default_factory=dict)

    def csv_body(self):
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"


def _window(values):
    """{"min", "max", "ratio": max/min} of a positive sequence."""
    arr = np.asarray(list(values), dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    return {"min": lo, "max": hi, "ratio": hi / lo if lo > 0 else math.inf}


# ---------------------------------------------------------------------------
# corpus functions in spectral form at a fixed dimension


_CORPUS_SPECTRAL = RunMemo("corpus_spectral")


def corpus_band_limit(n_max):
    """The band limit K = 4 n_max + 64 of the corpus for degrees up to n_max."""
    return 4 * n_max + 64


def prepare_corpus(corpus, d, n_max, seed=42, p_list=(), scales=()):
    """The ids of `corpus`, in order, in spectral form on the band limit
    K = `corpus_band_limit(n_max)`: exact coefficients for band-limited
    members, quadrature projection for the rest, memoised per run on (d, K,
    seed, id).  The members not yet memoised come from one `make_corpus` call,
    the projected ones by `zonal_project`; nothing is built when all are
    memoised.  Before projecting, one Q_k stream at K fills the projection's
    Gauss context, the dense context of p = inf in `p_list` and the
    theta-scan table of the moduli at `scales`.  An unknown id raises
    KeyError, a LookupError."""
    lam, band_limit = (d - 2) / 2.0, corpus_band_limit(n_max)
    keys = {fid: (d, band_limit, seed, fid) for fid in corpus}
    missing = [fid for fid, key in keys.items() if key not in _CORPUS_SPECTRAL]
    members = {member.tag: member for member in make_corpus(d, seed=seed)} if missing else {}
    projected = [fid for fid in missing if members[fid].coeffs is None]     # KeyError if unknown
    if projected:
        parts = []
        for p in (1.0, INF) if INF in p_list else (1.0,):
            _norm_context(lam, band_limit, p, parts=parts)
        if scales:
            _damping_table(band_limit, lam, _theta_scans(scales)[0], parts)
        _q_rows(band_limit, lam, parts)
    resolved = dict(zip(projected, zonal_project([members[fid] for fid in projected],
                                                 band_limit, lam)))
    for fid in set(missing) - set(projected):       # the exact coefficients, padded to K
        coeffs = np.pad(members[fid].coeffs, (0, band_limit + 1 - len(members[fid].coeffs)))
        coeffs.setflags(write=False)
        resolved[fid] = ZonalSpectral(lam, coeffs, projection_residual=0.0)
    return [_CORPUS_SPECTRAL.lookup(keys[fid], lambda fid=fid: resolved[fid])
            for fid in corpus]


# ---------------------------------------------------------------------------
# suites


def run_multiplier_identity_suite(d, n_max):
    """Closed-form weights, one `_multiplier_prefixes` batch, against their
    quadrature route, multiplier_via_quadrature(n, k, d) at Gauss order
    default_order(n, k) from one `_multiplier_integrals` call by order, for
    all n <= n_max and k <= n + MULTIPLIER_REACH, including the exact zeros
    at k > n."""
    lam = (d - 2) / 2.0
    by_order = {}
    for n in range(n_max + 1):
        for k in range(n + MULTIPLIER_REACH + 1):
            by_order.setdefault(default_order(n, k), []).append((n, k))
    gauss_legendre_many(list(by_order))
    closed = _multiplier_prefixes(range(n_max + 1), lam, n_max + MULTIPLIER_REACH)
    cells = [cell for group in by_order.values() for cell in group]
    rows = []
    for (n, k), quad in zip(cells, _multiplier_integrals(by_order, d)):
        omega = float(closed[n][k]) if k <= n else 0.0
        rows.append({"d": d, "n": n, "k": k, "closed_form": omega,
                     "quadrature": quad, "abs_diff": abs(omega - quad)})
    rows.sort(key=lambda r: (r["n"], r["k"]))
    worst = max(rows, key=lambda r: r["abs_diff"])
    max_diff = worst["abs_diff"]
    # refinement self-check on the most sensitive cell
    refine_ok = True
    if max_diff > 0:
        n, k = worst["n"], worst["k"]
        doubled = multiplier_via_quadrature(n, k, d, order=2 * default_order(n, k))
        refine_ok = abs(doubled - multiplier_weight(n, k, lam)) <= MULTIPLIER_TOL
    passed = max_diff <= MULTIPLIER_TOL and refine_ok
    return ExperimentReport(
        suite="multipliers",
        columns=["d", "n", "k", "closed_form", "quadrature", "abs_diff"],
        rows=rows, passed=passed,
        measured={"max_abs_diff": max_diff, "tolerance": MULTIPLIER_TOL,
                  "refinement_check": refine_ok},
    )


_LEMMA_QUANTITIES = ("fourth_moment", "neg_lambda", "neg_two_over_m_7", "norm_constant")


def run_lemma_suite(d, n_list):
    """Kernel moment scalings: n^2 * fourth moment, n^(-lam/2) * inverse-power
    moment, n^(-1/7) * the m = 7 variant, and n^((d-1)/2) * I_{n,d}.  Each
    normalized sequence must stay in a max/min window over the upper half of
    n_list."""
    lam = (d - 2) / 2.0
    n_list = sorted(n_list)
    rows = []
    series = {q: [] for q in _LEMMA_QUANTITIES}
    for n in n_list:
        vals = {
            "fourth_moment": (lemma_integral(n, d, "fourth_moment"), n ** 2),
            "neg_lambda": (lemma_integral(n, d, "neg_lambda"), n ** (-lam / 2.0)),
            "neg_two_over_m_7": (lemma_integral(n, d, "neg_two_over_m", m=7), n ** (-1.0 / 7.0)),
            "norm_constant": (math.exp(kernel_norm_constant(n, d)), n ** ((d - 1) / 2.0)),
        }
        for quantity, (value, scale) in vals.items():
            normalized = value * scale
            series[quantity].append(normalized)
            rows.append({"d": d, "n": n, "quantity": quantity,
                         "value": value, "normalized": normalized})
    windows = {quantity: _window(seq[len(n_list) // 2:]) for quantity, seq in series.items()}
    passed = all(window["ratio"] <= LEMMA_WINDOW for window in windows.values())
    # refinement self-check: largest n, most singular moment, the sweep's last,
    # on a ladder from 3/2 the sweep's first order, so that no rung is shared
    n_top, coarse = n_list[-1], vals["neg_lambda"][0]
    fine = lemma_integral(n_top, d, "neg_lambda", order=3 * (default_order(n_top) + 32) // 2)
    refine_ok = abs(fine - coarse) <= REFINEMENT_RTOL * abs(coarse)
    passed = passed and refine_ok
    return ExperimentReport(
        suite="lemmas",
        columns=["d", "n", "quantity", "value", "normalized"],
        rows=rows, passed=passed,
        measured={"windows": windows, "window_bound": LEMMA_WINDOW,
                  "refinement_check": refine_ok},
    )


def run_voronovskaya_suite(d, n_list):
    """Second-order expansion of the means on single harmonics: the residual

        |omega_{n,k} - 1 + alpha(n) k (k+d-2)|

    normalized by n^-2 k^2 (k+d-2)^2 must sit in a bounded window over
    1 <= k <= isqrt(n), and n * alpha(n) must stay inside ALPHA_BOUNDS.
    measured["alpha_closed_form_gap"] is the relative gap of alpha(n_top) to
    its closed form (1/(d-2)) sum_{j=1}^{d-2} 1/(n_top + j)."""
    lam = (d - 2) / 2.0
    rows = []
    normalized_all = []
    n_alpha = {}
    for n in sorted(n_list):
        alpha = alpha_voronovskaya(n, d)
        n_alpha[n] = n * alpha
        for k in range(math.isqrt(n) + 1):
            eig = k * (k + d - 2)
            residual = abs(multiplier_weight(n, k, lam) - 1.0 + alpha * eig)
            normalized = residual / (n ** -2.0 * eig ** 2) if k >= 1 else 0.0
            if k >= 1:
                normalized_all.append(normalized)
            rows.append({"d": d, "n": n, "k": k, "alpha_n": alpha,
                         "n_alpha": n * alpha, "residual": residual,
                         "normalized": normalized})
    window = _window(normalized_all)
    alpha_ok = all(ALPHA_BOUNDS[0] <= v <= ALPHA_BOUNDS[1] for v in n_alpha.values())
    # refinement self-check: alpha(n_top), the sweep's last, at a tighter
    # tolerance on a ladder from 3/2 the sweep's first order, as in the lemmas
    n_top = max(n_list)
    a2 = alpha_voronovskaya(n_top, d, order=3 * (default_order(n_top) + 32) // 2, rtol=1e-11)
    refine_ok = abs(alpha - a2) <= REFINEMENT_RTOL * abs(a2)
    closed = sum(1.0 / (n_top + j) for j in range(1, d - 1)) / (d - 2)
    passed = window["ratio"] <= VORONOVSKAYA_WINDOW and alpha_ok and refine_ok
    return ExperimentReport(
        suite="voronovskaya",
        columns=["d", "n", "k", "alpha_n", "n_alpha", "residual", "normalized"],
        rows=rows, passed=passed,
        measured={"normalized_window": window,
                  "n_alpha": {str(n): v for n, v in sorted(n_alpha.items())},
                  "window_bound": VORONOVSKAYA_WINDOW, "alpha_bounds": list(ALPHA_BOUNDS),
                  "refinement_check": refine_ok,
                  "alpha_closed_form_gap": abs(alpha - closed) / closed},
    )


def _delayed_maxima(f, n_list, k_cap, ps):
    """Per p of ps, max over k in [n, k_cap] of ||V_k f - f||_p for each n of
    the sorted n_list: the max of each segment [n_i, n_(i+1)) of degrees from
    one `lp_norm_maxima` call for all p, then suffix maxima over the segments;
    it asks `means_columns` for a block of degrees at a time, whatever k_cap is,
    on the rows up to the block's top degree or f's own band, whichever is less."""
    cuts = sorted(set(n_list)) + [k_cap + 1]
    degrees, live = range(cuts[0], k_cap + 1), _live_rows(f.coeffs)
    segments = lp_norm_maxima(
        lambda picked: means_columns(f, [degrees[i] for i in picked],
                                     rows=min(degrees[max(picked)] + 1, live)),
        np.diff(cuts), f.lam, ps, f.band_limit, reference=f.coeffs)
    suffix = np.maximum.accumulate(segments[:, ::-1], axis=1)[:, ::-1]
    return suffix[:, [cuts.index(n) for n in n_list]].tolist()


def _ratio_sweep(corpus, functions, p_list, n_list, numerators, column, flags, **fixed):
    """The ratio loop shared by the converse and delayed-max suites.

    For each corpus id and its function f of `functions`, numerators(f, p_list)
    gives per p one value per n of n_list, which is divided by
    omega(f, n^(-1/2))_p.  A cell whose modulus is numerically zero (a
    constant) is degenerate: its ratio is NaN and it stays out of every
    window.  Returns the CSV rows sorted by (function_id, p, n), the numerator
    under `column`, the `fixed` columns, and the flag flags[0], or flags[1]
    when degenerate; the windows of each (f, p), keyed "function_id|p=p"; the
    pooled windows of each p over every f and n, keyed str(p), which estimate
    the theorem's C1 (min) and C2 (max); and whether every window has min > 0
    and max/min <= RATIO_WINDOW.
    """
    rows, windows, pooled = [], {}, {p: [] for p in p_list}
    for fid, f in zip(corpus, functions):
        moduli_per_p = modulus_many(f, [n ** -0.5 for n in n_list], p_list)
        for p, nums, moduli in zip(p_list, numerators(f, p_list), moduli_per_p):
            ratios = []
            for n, num, w_n in zip(n_list, nums, moduli):
                degenerate = w_n <= DEGENERATE_FLOOR
                ratio = float("nan") if degenerate else num / w_n
                rows.append({"function_id": fid, "p": p, "n": n, column: num, "w_n": w_n,
                             "ratio": ratio, "flag": flags[degenerate], **fixed})
                if not degenerate:
                    ratios.append(ratio)
            if ratios:
                windows[f"{fid}|p={p}"] = _window(ratios)
                pooled[p] += ratios
    pooled = {str(p): _window(ratios) for p, ratios in pooled.items() if ratios}
    passed = all(window["min"] > 0 and window["ratio"] <= RATIO_WINDOW
                 for window in [*windows.values(), *pooled.values()])
    return sorted(rows, key=lambda r: (r["function_id"], r["p"], r["n"])), windows, pooled, passed


def _modulus_grid_check(f, t, p):
    """Refinement self-check: omega(f, t)_p on a doubled theta grid may move
    the grid max by a grid-resolution amount (MODULUS_GRID_RTOL) only."""
    w1 = modulus(f, t, p)
    w2 = modulus(f, t, p, theta_grid_size=2 * THETA_GRID_SIZE)
    return abs(w1 - w2) <= MODULUS_GRID_RTOL * max(abs(w2), DEGENERATE_FLOOR)


# powers m of the chain bound ||f - V_n^m f||_p <= m ||f - V_n f||_p, and the
# rounding slack it is checked with
CHAIN_POWERS, CHAIN_SLACK = (2, 7), 1e-8


def run_converse_suite(corpus, p_list, n_list, d, seed=42):
    """Operator error against the modulus at the matched scale: for each
    corpus function and p, r_n = ||V_n f - f||_p / omega(f, n^(-1/2))_p must
    stay positive with max r / min r <= RATIO_WINDOW over n_list.  Functions whose
    modulus is numerically zero (constants) are flagged degenerate and
    excluded.  The chain bound ||f - V_n^m f||_p <= m ||f - V_n f||_p is
    checked along the way."""
    n_list = sorted(n_list)
    functions = prepare_corpus(corpus, d, n_list[-1], seed, p_list, [n ** -0.5 for n in n_list])

    def operator_errors(f, ps):     # ||V_n f - f||_p, the columns built once for every p
        means = means_columns(f, n_list)
        return [lp_norms_batch(means, f.lam, p, reference=f.coeffs).tolist() for p in ps]
    rows, ratio_windows, pooled, passed = _ratio_sweep(
        corpus, functions, p_list, n_list, operator_errors, "e_n", ("ok", "degenerate"))
    # chain bound at the median degree
    chain_worst = -math.inf
    n_mid = n_list[len(n_list) // 2]
    for f in functions:
        iterates = means_columns(f, [n_mid], (1,) + CHAIN_POWERS)
        for p in p_list:
            base, *lhs = lp_norms_batch(iterates, f.lam, p, reference=f.coeffs)
            for m, lhs_m in zip(CHAIN_POWERS, lhs):
                excess = float(lhs_m - m * base)
                chain_worst = max(chain_worst, excess)
                passed = passed and excess <= CHAIN_SLACK
    # refinement self-check on the largest-ratio cell
    refine_ok = True
    if ratio_windows:
        worst_key = max(ratio_windows, key=lambda k: ratio_windows[k]["ratio"])
        fid, p_part = worst_key.split("|p=")
        refine_ok = _modulus_grid_check(functions[corpus.index(fid)], n_list[-1] ** -0.5,
                                        float(p_part))
        passed = passed and refine_ok
    return ExperimentReport(
        suite="converse",
        columns=["function_id", "p", "n", "e_n", "w_n", "ratio", "flag"],
        rows=rows, passed=passed,
        measured={"ratio_windows": ratio_windows, "pooled_windows": pooled,
                  "window_bound": RATIO_WINDOW, "chain_excess": chain_worst,
                  "refinement_check": refine_ok},
    )


def run_delayed_max_suite(corpus, p_list, n_list, d, seed=42):
    """Truncated delayed-maximum comparison: max over k in [n, k_cap] of
    ||V_k f - f||_p against omega(f, n^(-1/2))_p, with k_cap = 2 max(n_list).
    The untruncated statement maximizes over all k >= n, so every row is
    flagged TRUNCATED.  Only the degrees that can attain the max of their
    segment [n_i, n_(i+1)) are synthesised (`_delayed_maxima`)."""
    n_list = sorted(n_list)
    k_cap = 2 * n_list[-1]
    # the means of any degree act exactly on a band-limited representation,
    # so the band limit tracks the modulus scales, not k_cap
    functions = prepare_corpus(corpus, d, n_list[-1], seed, p_list, [n ** -0.5 for n in n_list])
    rows, windows, pooled, passed = _ratio_sweep(
        corpus, functions, p_list, n_list,
        lambda f, ps: _delayed_maxima(f, n_list, k_cap, ps),
        "max_err", ("TRUNCATED", "TRUNCATED;degenerate"), k_cap=k_cap)
    # refinement self-check: the modulus of the last cell on a doubled grid
    refine_ok = _modulus_grid_check(functions[-1], n_list[-1] ** -0.5, p_list[-1])
    passed = passed and refine_ok
    return ExperimentReport(
        suite="delayed-max",
        columns=["function_id", "p", "n", "k_cap", "max_err", "w_n", "ratio", "flag"],
        rows=rows, passed=passed,
        measured={"ratio_windows": windows, "pooled_windows": pooled,
                  "window_bound": RATIO_WINDOW, "refinement_check": refine_ok},
    )


def run_modulus_suite(corpus, p_list, n_list, d, seed=42):
    """Modulus versus K-functional estimate at the scales t = n^(-1/2):
    their ratio must stay inside [1/EQUIVALENCE_WINDOW, EQUIVALENCE_WINDOW]
    wherever both are nonzero."""
    rows = []
    passed = True
    worst = {"low": math.inf, "high": -math.inf}
    n_list = sorted(n_list)
    scales = [n ** -0.5 for n in n_list]
    functions = prepare_corpus(corpus, d, n_list[-1], seed, p_list, scales)
    for fid, f in zip(corpus, functions):
        moduli_per_p = modulus_many(f, scales, p_list)
        estimates_per_p = k_functional_estimate(f, scales, p_list)
        for p, moduli, estimates in zip(p_list, moduli_per_p, estimates_per_p):
            for t, om, kf in zip(scales, moduli, estimates):
                degenerate = kf <= DEGENERATE_FLOOR and om <= DEGENERATE_FLOOR
                ratio = float("nan") if degenerate else om / max(kf, DEGENERATE_FLOOR)
                rows.append({"function_id": fid, "p": p, "t": t, "omega": om,
                             "k_estimate": kf, "ratio": ratio,
                             "flag": "degenerate" if degenerate else "ok"})
                if not degenerate:
                    worst["low"] = min(worst["low"], ratio)
                    worst["high"] = max(worst["high"], ratio)
                    passed = passed and 1.0 / EQUIVALENCE_WINDOW <= ratio <= EQUIVALENCE_WINDOW
    # refinement self-check: the modulus grid is doubled at the last cell
    refine_ok = _modulus_grid_check(functions[-1], n_list[0] ** -0.5, 2.0)
    passed = passed and refine_ok
    return ExperimentReport(
        suite="modulus",
        columns=["function_id", "p", "t", "omega", "k_estimate", "ratio", "flag"],
        rows=sorted(rows, key=lambda r: (r["function_id"], r["p"], -r["t"])),
        passed=passed,
        measured={"ratio_range": worst, "window_bound": EQUIVALENCE_WINDOW,
                  "refinement_check": refine_ok},
    )


# ---------------------------------------------------------------------------
# selftest battery


def measure_envelope_constant(d_list=(3, 4, 5), k_max=512, grid_size=2048):
    """Empirical envelope constant: the largest |Q_k(cos theta)| /
    min((k theta)^(-lam), 1) over k <= k_max and theta on a grid of
    (0, pi/2].  The envelope fails beyond pi/2 (|Q_k(-1)| = 1), matching
    where the bound is actually used."""
    worst = 0.0
    for d in d_list:
        lam = (d - 2) / 2.0
        theta = np.linspace(np.pi / 2.0 / grid_size, np.pi / 2.0, grid_size)
        envelope = q_envelope(np.arange(1, k_max + 1), lam, theta[:, None])
        ratio = np.divide(np.abs(q_table(k_max, lam, theta)[:, 1:]), envelope, out=envelope)
        worst = max(worst, float(ratio.max()))
    return worst


def run_selftest_suite(seed=42):
    """Quick battery over the structural invariants of every module: rule
    exactness, orthogonality, kernel normalization, the closed-form collapse
    of alpha at d = 3, operator laws, the two-pathway oracles at d = 3, and
    the envelope constant."""
    checks = []

    def record(name, value, bound):
        checks.append({"check": name, "value": value, "bound": bound,
                       "passed": bool(value <= bound)})

    # quadrature exactness on an odd/even pair
    rule = gauss_legendre(8)
    ex = float(np.dot(rule.weights, rule.nodes ** 14))
    record("gauss_monomial_14", abs(ex - 2.0 / 15.0), 1e-13)
    record("gauss_weight_sum", abs(float(rule.weights.sum()) - 2.0), 1e-12)

    # Gegenbauer orthogonality through the weighted polar integral
    lam = 1.0
    val = integrate_theta(lambda t: q_table(7, lam, t)[:, 3] * q_table(7, lam, t)[:, 5],
                          lam, 32)
    record("gegenbauer_orthogonality", abs(val), 1e-10)

    # kernel normalization at a representative pair
    for d, n in ((3, 64), (5, 128)):
        norm = integrate_theta(lambda t: vpm_kernel_eval(n, d, t), (d - 2) / 2.0, n + 64)
        record(f"kernel_normalization_d{d}_n{n}", abs(norm - 1.0), 1e-10)

    # multiplier identity spot check
    diff = abs(multiplier_weight(8, 3, 1.5) - multiplier_via_quadrature(8, 3, 5))
    record("multiplier_identity_spot", diff, 1e-9)

    # alpha collapse at d = 3, on the nested oracle's own ladder
    a = _refine(lambda o: _alpha_nested(32, 3, o), default_order(32) + 32, 1e-9,
                32, 3, "alpha_nested")
    record("alpha_closed_form_d3", abs(a * 33.0 - 1.0), 1e-8)

    # operator laws on a small random function
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, 13)
    w = multiplier_sequence(6, 0.5, 12)
    semigroup = float(np.max(np.abs(w ** 5 - w ** 2 * w ** 3)))
    record("semigroup_coefficients", semigroup, 1e-15)
    base = lp_norms_batch(coeffs * (1.0 - w), 0.5, 2.0)[0]
    chain = lp_norms_batch(coeffs * (1.0 - w ** 4), 0.5, 2.0)[0]
    record("chain_bound_m4", float(chain - 4 * base), 1e-8)
    f = ZonalSpectral(lam=0.5, coeffs=coeffs)
    norm_f = lp_norms_batch(coeffs, 0.5, 1.0)[0]
    norm_t = lp_norms_batch(translate_spectral(f, 0.3).coeffs, 0.5, 1.0)[0]
    record("translation_contraction", float(norm_t - norm_f), 1e-8)

    # two-pathway oracles at d = 3 (small scale)
    grid = sphere_grid(24)
    gf = sample_zonal_on_grid(
        lambda th: zonal_synthesis(coeffs, 0.5, np.cos(np.asarray(th, dtype=float))), grid)
    direct = vpm_grid(gf, 8)
    fn = zonal_point_function(vpm_means(f, 8), np.array([0.0, 0.0, 1.0]))
    sup = float(np.max(np.abs(direct.values - fn(grid.points))))
    record("vpm_two_pathway", sup, 1e-7)
    point = grid.points[len(grid.points) // 3]
    direct_t = translate_direct(zonal_point_function(f, np.array([0.0, 0.0, 1.0])), 0.7,
                                point, 64)
    spec_t = translate_spectral(f, 0.7)
    spec_val = float(zonal_point_function(spec_t, np.array([0.0, 0.0, 1.0]))(point[None, :])[0])
    record("translation_two_pathway", abs(direct_t - spec_val), 1e-8)

    # envelope constant (quick variant)
    c5 = measure_envelope_constant(d_list=(3, 4, 5), k_max=128, grid_size=512)
    record("envelope_constant", c5, 10.0)

    passed = all(c["passed"] for c in checks)
    return ExperimentReport(
        suite="selftest",
        columns=["check", "value", "bound", "passed"],
        rows=checks, passed=passed,
        measured={"envelope_constant": c5,
                  "alpha_route_gap": abs(alpha_voronovskaya(32, 3) - a) / a},
    )
