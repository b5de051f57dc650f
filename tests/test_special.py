import math

import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from vpmeans.special import q_envelope, q_table


def test_harmonic_dim_d3_is_2k_plus_1(harmonic_dim):
    assert harmonic_dim(0, 3) == 1
    for k in range(1, 65):
        assert harmonic_dim(k, 3) == 2 * k + 1


def test_harmonic_dim_known_values(harmonic_dim):
    # d=3, k=2: (2*2+1)/(2+1) * C(3,2) = 5; d=4, k=1: four linear harmonics
    assert harmonic_dim(2, 3) == 5
    assert harmonic_dim(1, 4) == 4


def test_harmonic_dim_difference_of_binomials(harmonic_dim):
    # independent route: dim = C(k+d-1, d-1) - C(k+d-3, d-1), counting degree-k
    # polynomials minus the divisible-by-|x|^2 ones
    for d in (3, 4, 5, 7):
        for k in range(0, 30):
            ref = math.comb(k + d - 1, d - 1) - math.comb(k + d - 3, d - 1)
            assert harmonic_dim(k, d) == ref


def test_gegenbauer_seeds_and_values():
    theta = np.array([0.0, 0.4, np.pi / 2, np.pi])
    # seeds: Q_0 = 1 and Q_1(x) = 2 lam x / (2 lam) = x
    tab = q_table(1, 0.7, theta)
    assert np.all(tab[:, 0] == 1.0)
    assert np.allclose(tab[:, 1], np.cos(theta), atol=1e-15)
    # lam = 1/2 gives Legendre; P_2(0) = -1/2 from the recurrence by hand
    assert q_table(2, 0.5, np.pi / 2)[0, 2] == pytest.approx(-0.5, abs=1e-15)
    # P_3^1(x) = 8x^3 - 4x and P_3^1(1) = 4, so Q_3^1(1/2) = (1 - 2) / 4
    assert q_table(3, 1.0, np.pi / 3)[0, 3] == pytest.approx(-0.25, abs=1e-15)


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.5])
def test_gegenbauer_matches_scipy(lam):
    theta = np.linspace(0.0, np.pi, 41)
    tab = q_table(40, lam, theta)
    for k in range(0, 41, 4):
        ref = sps.eval_gegenbauer(k, lam, np.cos(theta))
        ours = tab[:, k] * sps.eval_gegenbauer(k, lam, 1.0)
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(ours - ref) / scale) < 1e-11


def test_gegenbauer_domain():
    with pytest.raises(ValueError):
        q_table(-1, 0.5, 0.3)
    with pytest.raises(ValueError):
        q_table(3, 0.3, 0.3)


@pytest.mark.parametrize("lam", [0.5, 1.5])
@pytest.mark.parametrize("r", [0.1, 0.3, 0.5])
def test_generating_function(lam, r):
    theta = np.linspace(0.1, 3.0, 7)
    x = np.cos(theta)
    closed = (1.0 - 2.0 * r * x + r * r) ** (-lam)
    errs = []
    for kmax in (10, 20, 40):
        # P_k(x) = Q_k(x) P_k(1), with P_k(1) from scipy
        at_one = sps.eval_gegenbauer(np.arange(kmax + 1), lam, 1.0)
        partial = q_table(kmax, lam, theta) @ (at_one * r ** np.arange(kmax + 1))
        errs.append(np.max(np.abs(partial - closed)))
    # geometric decay until the rounding floor
    assert errs[1] < errs[0]
    assert errs[2] < errs[1] or errs[2] <= 1e-14
    assert errs[2] < 1e-8


def test_q_normalized_values():
    for lam in (0.5, 1.0, 1.5):
        for k in (0, 1, 7, 30):
            assert q_table(k, lam, 0.0)[0, k] == 1.0
    theta = np.linspace(0.0, np.pi, 33)
    assert np.allclose(q_table(1, 1.2, theta)[:, 1], np.cos(theta), atol=1e-14)
    assert q_table(2, 0.5, np.pi / 2)[0, 2] == pytest.approx(-0.5, abs=1e-15)


def test_q_normalized_bounded_by_one():
    theta = np.linspace(0.0, np.pi, 257)
    for lam in (0.5, 1.0, 1.5):
        tab = q_table(64, lam, theta)
        assert np.max(np.abs(tab)) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None, database=None)
@given(k_max=st.integers(0, 500), d=st.integers(3, 12),
       theta=st.lists(st.floats(0.0, math.pi), min_size=1, max_size=40))
def test_q_table_bounded_by_one_property(k_max, d, theta):
    tab = q_table(k_max, (d - 2) / 2.0, np.array(theta))
    assert np.max(np.abs(tab)) <= 1.0 + 1e-12


def test_q_table_matches_scalar_route():
    theta = np.linspace(0.0, np.pi, 17)
    tab = q_table(12, 1.0, theta)
    for k in (0, 3, 12):
        assert np.allclose(tab[:, k], q_table(k, 1.0, theta)[:, k], atol=1e-14)


def _two_stream_q_table(k_max, lam, theta):
    # the separate numerator and value-at-1 loops that q_table ran before the
    # recurrence moved into one generator; the stored benchmark outputs hold
    # rounding-level cells, so the merged form must match it bit for bit
    x = np.cos(theta)
    out = np.empty((x.size, k_max + 1))
    out[:, 0] = 1.0
    p, p_prev, one, one_prev = 2.0 * lam * x, np.ones_like(x), 2.0 * lam, 1.0
    out[:, 1] = p / one
    for j in range(1, k_max):
        p, p_prev = (2.0 * (lam + j) * x * p - (2.0 * lam + j - 1.0) * p_prev) / (j + 1.0), p
        one, one_prev = (2.0 * (lam + j) * one - (2.0 * lam + j - 1.0) * one_prev) / (j + 1.0), one
        out[:, j + 1] = p / one
    return out


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.5])
def test_q_table_bit_identical_to_two_stream_loop(lam):
    theta = np.linspace(0.0, np.pi, 129)
    assert np.array_equal(q_table(300, lam, theta), _two_stream_q_table(300, lam, theta))


def test_q_envelope_branches():
    assert q_envelope(4, 0.5, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert q_envelope(100, 1.0, 0.5) == pytest.approx(0.02, rel=1e-15)
    # k*theta <= 1 saturates the min at 1
    assert q_envelope(3, 1.5, 0.1) == 1.0
    assert q_envelope(2, 0.5, 0.5) == 1.0


def test_q_envelope_domain():
    with pytest.raises(ValueError):
        q_envelope(4, 0.5, 0.0)
    with pytest.raises(ValueError):
        q_envelope(0, 0.5, 0.3)
    with pytest.raises(ValueError):
        q_envelope(np.arange(4), 0.5, 0.3)


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
def test_q_envelope_of_an_array_of_degrees_stacks_the_scalar_calls(lam):
    theta = np.linspace(np.pi / 2 / 512, np.pi / 2, 512)
    stacked = np.column_stack([q_envelope(k, lam, theta) for k in range(1, 129)])
    assert np.array_equal(q_envelope(np.arange(1, 129), lam, theta[:, None]), stacked)


def test_envelope_domination_first_quadrant():
    # |Q_k(cos theta)| <= C * min((k theta)^-lam, 1) holds on (0, pi/2] with a
    # modest constant; it cannot hold near pi where |Q_k(-1)| = 1.
    grid = np.linspace(np.pi / 2 / 2048, np.pi / 2, 2048)
    worst = 0.0
    for d in (3, 4, 5):
        lam = (d - 2) / 2.0
        tab = np.abs(q_table(512, lam, grid))
        for k in range(1, 513):
            ratio = tab[:, k] / q_envelope(k, lam, grid)
            worst = max(worst, float(ratio.max()))
    assert worst <= 10.0
