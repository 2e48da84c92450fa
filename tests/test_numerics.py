"""Infrastructure tests: grids, Hermite interpolation, five-point
derivatives, right-anchored integration with closed-form tail remainders,
composite Gauss-Legendre sums, the RK45 integrator and zeta'(-1)."""

import math

import numpy as np
import pytest

from nearextreme.numerics import (AiryProductTail, Grid, ZETA_PRIME_MINUS_ONE,
                                  derivative, gauss_legendre, hermite,
                                  integral_from_right, integrate_ode)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def glaisher_log_oracle(n: int) -> float:
    """ln A from the Euler-Maclaurin expansion of sum k ln k, so that
    zeta'(-1) = 1/12 - ln A.  With the 1/(720 n^2) and 1/(5040 n^4)
    corrections the truncation error is O(n^-6); n stays moderate so the
    large-term cancellation does not eat the accuracy in float64."""
    k = np.arange(1, n + 1, dtype=float)
    s = float(np.sum(k * np.log(k)))
    return (s - (n * n / 2.0 + n / 2.0 + 1.0 / 12.0) * math.log(n)
            + n * n / 4.0 - 1.0 / (720.0 * n * n)
            + 1.0 / (5040.0 * n**4))


def test_zeta_prime_minus_one_against_glaisher():
    ln_a = glaisher_log_oracle(80)
    assert abs(ZETA_PRIME_MINUS_ONE - (1.0 / 12.0 - ln_a)) < 1e-12


# ---------------------------------------------------------------------------
# Grid, and functions on it: arrays of node values
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)
    g = Grid(0.0, 1.0, 11)
    assert g.h == pytest.approx(0.1)
    assert len(g.nodes()) == 11


def test_gridfunction_interpolation_accuracy():
    g = Grid(0.0, 2.0 * math.pi, 401)
    nodes = g.nodes()
    x = np.linspace(0.1, 6.0, 57)
    got = hermite(g, np.sin(nodes), np.cos(nodes), x)
    assert np.max(np.abs(got - np.sin(x))) < 1e-7
    assert np.max(np.abs(derivative(nodes, np.sin(nodes))
                         - np.cos(nodes))) < 1e-5


def test_gridfunction_domain_errors():
    g = Grid(0.0, 1.0, 11)
    ones, zeros = np.ones(11), np.zeros(11)
    assert hermite(g, ones, zeros, 1.0) == 1.0
    with pytest.raises(ValueError):
        hermite(g, ones, zeros, -0.1)
    with pytest.raises(ValueError):
        hermite(g, ones, zeros, 1.5)
    with pytest.raises(ValueError):
        hermite(g, ones, zeros, np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        hermite(g, ones, zeros, math.nan)


def test_gridfunction_rejects_nonfinite():
    g = Grid(0.0, 1.0, 3)
    g.check(values=[0.0, -1.0, 1.0])  # any finite sign passes
    with pytest.raises(ValueError, match="finite"):
        g.check(values=[0.0, math.nan, 1.0])
    with pytest.raises(ValueError, match="n_points"):
        g.check(values=[0.0, 1.0])


def test_hermite_exact_on_cubics():
    g = Grid(-1.0, 2.0, 7)
    nodes = g.nodes()
    x = np.random.default_rng(3).uniform(-1.0, 2.0, 200)
    got = hermite(g, nodes**3 - 2.0 * nodes, 3.0 * nodes**2 - 2.0, x)
    assert np.max(np.abs(got - (x**3 - 2.0 * x))) < 1e-13
    assert isinstance(hermite(g, nodes**3, 3.0 * nodes**2, 0.3), float)


def test_hermite_fourth_order():
    # halving h divides the interpolation error of sin by about 2^4
    x = np.linspace(0.0, 3.0, 301)

    def error(n):
        g = Grid(0.0, 3.0, n)
        nodes = g.nodes()
        got = hermite(g, np.sin(nodes), np.cos(nodes), x)
        return np.max(np.abs(got - np.sin(x)))

    for n in (11, 21, 41):
        assert 14.0 < error(n) / error(2 * n - 1) < 18.0


def test_derivative_exact_on_quartics():
    # central and one-sided five-point differences are exact up to degree 4;
    # each column is one function
    x = np.linspace(-1.0, 2.0, 13)
    g = np.stack([x**4 - 3.0 * x**2 + x, 2.0 * x**3 - 1.0], axis=-1)
    exact = np.stack([4.0 * x**3 - 6.0 * x + 1.0, 6.0 * x**2], axis=-1)
    assert np.max(np.abs(derivative(x, g) - exact)) < 1e-11


# ---------------------------------------------------------------------------
# the right-anchored cumulative integral and tail remainders
# ---------------------------------------------------------------------------


def test_integral_from_right_polynomial_exact():
    # the end-corrected trapezoid is exact for cubics: five-point differences
    # are exact for them, and the next Euler-Maclaurin term is a difference
    # of third derivatives
    x = np.linspace(0.0, 2.0, 21)
    whole = integral_from_right(x, x**3 - x)[0]
    assert whole == pytest.approx(4.0 - 2.0, abs=1e-12)


def test_integral_from_right_fourth_order():
    # halving h divides the cumulative error by about 2^4
    def antiderivative(x):
        return np.exp(-x) * (2.0 * np.sin(2.0 * x) - np.cos(2.0 * x)) / 5.0

    def error(n):
        x = np.linspace(0.0, 3.0, n)
        got = integral_from_right(x, np.exp(-x) * np.cos(2.0 * x))
        return np.max(np.abs(got - (antiderivative(3.0) - antiderivative(x))))

    for n in (31, 61, 121):
        assert 12.0 < error(n) / error(2 * n - 1) < 20.0


def test_cumulative_tail_exponential():
    # beyond the grid, the exponential remainder g(x_max) / rate
    x = Grid(0.0, 30.0, 3001).nodes()
    g, rate = np.exp(-x), 1.0
    G = integral_from_right(x, g) + g[-1] / rate
    # relative accuracy must hold even where the integral is ~1e-13
    rel = np.abs(G - np.exp(-x)) / np.exp(-x)
    assert np.max(rel) < 1e-9


def test_cumulative_tail_airy_squared():
    from nearextreme import airy

    x = Grid(-2.0, 6.0, 801).nodes()
    g = airy.ai_pair(x)[0] ** 2
    G = integral_from_right(x, g) + AiryProductTail().remainder(x[-1], g[-1])
    # closed form: int_a^inf Ai^2 = Ai'(a)^2 - a Ai(a)^2, at the nodes a
    for i in (0, 200, 500):
        a = x[i]
        ai, aip = airy.ai_pair(a)
        exact = aip**2 - a * ai**2
        assert G[i] == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("r", (-8.0, -1.0, 0.0, 1.0, 8.0))
def test_airy_product_tail_closed_form(r):
    # Wronskian closed form against adaptive quadrature of the model
    from scipy.integrate import quad
    from scipy.special import airy as sp_airy

    x_max, v_max = 10.0, 0.3
    m0 = sp_airy(x_max)[0] * sp_airy(x_max - r)[0]
    ref, _ = quad(lambda u: v_max * sp_airy(u)[0] * sp_airy(u - r)[0] / m0,
                  x_max, x_max + 30.0, epsabs=1e-300, epsrel=1e-13,
                  limit=200)
    got = AiryProductTail(r).remainder(x_max, v_max)
    assert got == pytest.approx(ref, rel=1e-10)


def test_airy_product_tail_of_a_zero_value():
    # a model matched to 0 at x_max has no tail, even where Ai(x_max)
    # underflows and the closed form would be 0/0
    for r in (-8.0, 0.0, 8.0):
        for x_max in (10.0, 200.0):
            assert AiryProductTail(r).remainder(x_max, 0.0) == 0.0


def test_gauss_legendre_exact_per_cell():
    # n nodes per cell integrate degree 2n - 1 exactly on uneven cells, and
    # so a piecewise polynomial with its breaks at the cell ends
    ends = (-1.5, -0.2, 0.0, 2.5)
    got = gauss_legendre(lambda u: u**7 - 3.0 * u**2, ends, 4)
    assert got == pytest.approx((2.5**8 - 1.5**8) / 8 - (2.5**3 + 1.5**3),
                                rel=1e-14)
    assert gauss_legendre(np.abs, ends, 1) == pytest.approx(
        (1.5**2 + 2.5**2) / 2, rel=1e-14)


# ---------------------------------------------------------------------------
# ODE driver
# ---------------------------------------------------------------------------


def test_integrate_ode_exponential():
    _, y = integrate_ode(lambda x, v: [v[0]], 0.0, 1.0, [1.0],
                         rel_tol=1e-12, abs_tol=1e-14,
                         t_eval=np.array([0.0, 1.0]))
    assert y[0][-1] == pytest.approx(math.e, rel=1e-10)


def test_integrate_ode_downward_airy():
    # Airy equation integrated downward from x = 8 reproduces the
    # Maclaurin value Ai(0) = 3^(-2/3)/Gamma(2/3)
    from nearextreme import airy

    seed = airy.ai_pair(8.0)
    _, y = integrate_ode(lambda x, v: [v[1], x * v[0]], 8.0, 0.0,
                         [float(v) for v in seed], rel_tol=1e-12,
                         abs_tol=1e-300, t_eval=np.array([8.0, 0.0]))
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert y[0][-1] == pytest.approx(ai0, rel=1e-9)


def test_integrate_ode_rejects_empty_span():
    with pytest.raises(ValueError):
        integrate_ode(lambda x, v: [v[0]], 1.0, 1.0, [1.0])


def test_integrate_ode_divergence_reports_position():
    # y' = y^2 from y(0) = 1 blows up at x = 1
    with pytest.raises(RuntimeError, match="failed at x = 1: "):
        integrate_ode(lambda x, v: [v[0] ** 2], 0.0, 2.0, [1.0])
