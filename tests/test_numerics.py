"""Infrastructure tests: grids, tail-aware integration, ODE driver,
quadrature, and the zeta'(-1) constant."""

import math

import numpy as np
import pytest

from nearextreme.numerics import (AccuracyError, AiryProductTail,
                                  AirySquaredTail,
                                  DivergedSolutionError, ExponentialTail,
                                  Grid, GridFunction, PowerTail,
                                  TruncationError, ZETA_PRIME_MINUS_ONE,
                                  cumulative_tail_integral, erf,
                                  integrate_ode, quad_adaptive,
                                  segment_integrals)


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
# Grid / GridFunction
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
    f = GridFunction(g, np.sin(g.nodes()))
    x = np.linspace(0.1, 6.0, 57)
    assert np.max(np.abs(f(x) - np.sin(x))) < 1e-7
    assert np.max(np.abs(f.derivative()(x) - np.cos(x))) < 1e-5


def test_gridfunction_domain_errors():
    g = Grid(0.0, 1.0, 11)
    f = GridFunction(g, np.ones(11))
    with pytest.raises(ValueError):
        f(-0.1)
    with pytest.raises(ValueError):
        f(1.5)  # no tail attached
    ft = f.with_tail(ExponentialTail(rate=1.0))
    assert ft(2.0) == pytest.approx(math.exp(-1.0))


def test_gridfunction_rejects_nonfinite():
    g = Grid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        GridFunction(g, [0.0, math.nan, 1.0])


# ---------------------------------------------------------------------------
# tail models and the right-anchored cumulative integral
# ---------------------------------------------------------------------------


def test_segment_integrals_polynomial_exact():
    x = np.linspace(0.0, 2.0, 21)
    seg = segment_integrals(x, x**3 - x)
    assert float(np.sum(seg)) == pytest.approx(4.0 - 2.0, abs=1e-12)


def test_cumulative_tail_exponential():
    g = Grid(0.0, 30.0, 3001)
    f = GridFunction(g, np.exp(-g.nodes()), tail=ExponentialTail(rate=1.0))
    G = cumulative_tail_integral(f)
    x = g.nodes()
    # relative accuracy must hold even where the integral is ~1e-13
    rel = np.abs(G.values - np.exp(-x)) / np.exp(-x)
    assert np.max(rel) < 1e-9


def test_cumulative_tail_airy_squared():
    from nearextreme import airy

    g = Grid(-2.0, 6.0, 801)
    q2 = GridFunction(g, airy.ai_values(g.nodes()) ** 2,
                      tail=AirySquaredTail())
    G = cumulative_tail_integral(q2)
    # closed form: int_a^inf Ai^2 = Ai'(a)^2 - a Ai(a)^2
    for a in (-2.0, 0.0, 3.0):
        v = airy.airy(a)
        exact = v.ai_prime**2 - a * v.ai**2
        assert G(a) == pytest.approx(exact, rel=1e-9)


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
    got = AiryProductTail(0.0, r).remainder(x_max, v_max)
    assert got == pytest.approx(ref, rel=1e-10)


def test_cumulative_tail_requires_tail_model():
    g = Grid(0.0, 1.0, 11)
    f = GridFunction(g, np.ones(11))
    with pytest.raises(TruncationError):
        cumulative_tail_integral(f)


def test_power_tail_remainder():
    g = Grid(1.0, 50.0, 4901)
    f = GridFunction(g, g.nodes() ** -3.0, tail=PowerTail(exponent=3.0))
    G = cumulative_tail_integral(f)
    assert G(1.0) == pytest.approx(0.5, rel=1e-8)
    with pytest.raises(TruncationError):
        PowerTail(exponent=0.5).remainder(1.0, 1.0)


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

    seed = airy.airy(8.0)
    _, y = integrate_ode(lambda x, v: [v[1], x * v[0]], 8.0, 0.0,
                         [seed.ai, seed.ai_prime], rel_tol=1e-12,
                         abs_tol=1e-300, t_eval=np.array([8.0, 0.0]))
    ai0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert y[0][-1] == pytest.approx(ai0, rel=1e-9)


def test_integrate_ode_rejects_empty_span():
    with pytest.raises(ValueError):
        integrate_ode(lambda x, v: [v[0]], 1.0, 1.0, [1.0])


def test_integrate_ode_divergence_reports_position():
    # y' = y^2 from y(0) = 1 blows up at x = 1
    with pytest.raises((DivergedSolutionError, OverflowError)):
        _, y = integrate_ode(lambda x, v: [v[0] ** 2], 0.0, 2.0, [1.0])
        assert not np.all(np.isfinite(y))


# ---------------------------------------------------------------------------
# quadrature / erf
# ---------------------------------------------------------------------------


def test_quad_adaptive_gaussian():
    v = quad_adaptive(lambda x: math.exp(-x * x), 0.0, 8.0, tol=1e-12)
    assert v == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def test_quad_adaptive_bad_interval():
    with pytest.raises(ValueError):
        quad_adaptive(lambda x: x, 1.0, 0.0)


def test_erf_against_maclaurin():
    # erf(x) = (2/sqrt(pi)) sum (-1)^k x^(2k+1) / (k! (2k+1))
    for x in (0.0, 0.3, 1.0, 1.7):
        s = sum((-1) ** k * x ** (2 * k + 1)
                / (math.factorial(k) * (2 * k + 1)) for k in range(40))
        assert erf(x) == pytest.approx(2.0 / math.sqrt(math.pi) * s,
                                       abs=1e-14)
    assert erf(-1.0) == -erf(1.0)
    assert 1.0 - erf(6.0) < 1e-15
