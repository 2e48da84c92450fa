"""Airy functions and the soft-edge density."""

import math

import numpy as np
import pytest

from nearextreme import airy


def test_values_at_zero_from_gamma():
    ai, aip = airy.ai_pair(0.0)
    assert ai == pytest.approx(3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0),
                               rel=1e-12)
    assert aip == pytest.approx(
        -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0), rel=1e-12)
    assert ai == pytest.approx(0.3550280539, abs=1e-9)
    assert aip == pytest.approx(-0.2588194038, abs=1e-9)


def test_large_x_asymptotic_form():
    x = 10.0
    asym = math.exp(-2.0 / 3.0 * x**1.5) / (2.0 * math.sqrt(math.pi)
                                            * x**0.25)
    assert airy.ai_pair(x)[0] == pytest.approx(asym, rel=0.01)


def test_wronskian_is_one_over_pi():
    # Ai and Ai' from the package, Bi and Bi' from scipy
    from scipy.special import airy as scipy_airy

    for x in (-10.0, -5.0, 0.0, 5.0, 10.0):
        ai, aip = airy.ai_pair(x)
        _, _, bi, bi_prime = scipy_airy(x)
        assert ai * bi_prime - aip * bi == pytest.approx(
            1.0 / math.pi, abs=1e-12)


def test_matches_40_digit_reference():
    # the series region (x < 1) against the envelope sqrt(Ai^2 + Bi^2), and
    # its derivative's; the trapezoid region relative, to within the
    # rounding of exp(-zeta)
    mpmath = pytest.importorskip("mpmath")
    x = np.concatenate((np.linspace(-40.0, 60.0, 97), [0.999, 8.32]))
    ai, aip = airy.ai_pair(x)
    with mpmath.workdps(40):
        for xi, v, d in zip(x, ai, aip):
            u = mpmath.mpf(float(xi))
            ref, ref_d = mpmath.airyai(u), mpmath.airyai(u, derivative=1)
            if xi < 1.0:
                scale = mpmath.sqrt(ref**2 + mpmath.airybi(u) ** 2)
                scale_d = mpmath.sqrt(ref_d**2
                                      + mpmath.airybi(u, derivative=1) ** 2)
            else:
                zeta = max(1.0, 2.0 / 3.0 * xi**1.5)
                scale, scale_d = zeta * abs(ref), zeta * abs(ref_d)
            assert abs(v - ref) <= 1e-13 * scale, xi
            assert abs(d - ref_d) <= 1e-13 * scale_d, xi


def test_raises_below_the_anchor_table():
    assert math.isfinite(airy.ai_pair(airy.X_MIN)[0])  # the lowest anchor
    for x in (airy.X_MIN - 0.5, math.nan):
        with pytest.raises(ValueError, match="covers x >= -60"):
            airy.ai_pair(np.array([0.0, x]))


def test_airy_equation_finite_difference():
    h = 1e-4
    for x in (-6.0, -1.5, 0.0, 2.0, 7.0):
        v = airy.ai_pair(np.array([x - h, x, x + h]))[0]
        second = (v[0] - 2.0 * v[1] + v[2]) / h**2
        assert second == pytest.approx(x * v[1], abs=1e-6 * (1 + abs(v[1])))


def test_vectorized_consistency():
    # an array in gives the same values as one scalar call per element
    x = np.linspace(-8.0, 8.0, 33)
    ai, aip = airy.ai_pair(x)
    for i, xi in enumerate(x):
        a, d = airy.ai_pair(float(xi))
        assert ai[i] == a and aip[i] == d


def test_edge_density_values():
    assert airy.edge_density(0.0) == pytest.approx(
        airy.ai_pair(0.0)[1] ** 2, rel=1e-12)
    assert airy.edge_density(0.0) == pytest.approx(0.0669875, abs=1e-6)


def test_edge_density_left_tail():
    x = -25.0
    assert airy.edge_density(x) * math.pi / math.sqrt(-x) == pytest.approx(
        1.0, abs=0.02)


def test_edge_density_right_tail():
    x = 8.0
    tail = math.exp(-4.0 / 3.0 * x**1.5) / (8.0 * math.pi * x)
    assert airy.edge_density(x) == pytest.approx(tail, rel=0.05)


def test_edge_density_positive():
    x = np.linspace(-30.0, 10.0, 401)
    assert np.all(airy.edge_density(x) > 0.0)


def test_edge_density_left_ratio_monotone():
    # the pointwise ratio carries an O(|x|^(-3/2)) oscillation, so the
    # approach to 1 is monotone after averaging over one oscillation period
    devs = []
    for c in (-12.0, -16.0, -20.0, -25.0, -30.0, -35.0):
        x = np.linspace(c - 0.5, c + 0.5, 501)
        ratio = airy.edge_density(x) * math.pi / np.sqrt(-x)
        devs.append(float(np.mean(np.abs(ratio - 1.0))))
    assert np.all(np.diff(devs) < 0.0)


def test_bulk_edge_matching_at_large_n():
    n = 10**6
    s = math.sqrt(2.0) * n ** (1.0 / 6.0)
    dist = np.linspace(5.0 * n ** (-1.0 / 6.0), 20.0 * n ** (-1.0 / 6.0), 25)
    lam = math.sqrt(2.0 * n) - dist
    edge_form = (math.sqrt(2.0) * n ** (-5.0 / 6.0)
                 * airy.edge_density(s * (lam - math.sqrt(2.0 * n))))
    bulk_form = 2.0 ** 0.75 / math.pi * n ** (-0.75) * np.sqrt(dist)
    assert np.max(np.abs(edge_form / bulk_form - 1.0)) < 0.03
