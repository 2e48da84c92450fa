"""Hastings-McLeod table, Tracy-Widom F2, and the alpha = 1/2 transcendent."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_bvp

from nearextreme import airy, painleve
from nearextreme.numerics import (AiryProductTail, ExponentialTail, Grid,
                                  GridFunction, cumulative_tail_integral,
                                  segment_integrals)


def bvp_reference(domain):
    """(q, q', R, F2) on ``domain`` by scipy's collocation BVP solver at
    tol = 1e-10, with the boundary values and tanh-blend guess the table
    solver used before it moved to Newton on Numerov's scheme.  R and F2
    are built from q exactly as the table builds them."""
    x_min, x_max = domain.x_min, domain.x_max
    x0 = np.linspace(x_min, x_max, 1601)
    w = 0.5 * (1.0 + np.tanh(-x0 / 2.0))
    left = painleve._left_asymptote(np.where(x0 < 0, x0, -1.0))
    guess = w * np.where(x0 < 0, left, 0.0) + (1.0 - w) * airy.ai_values(x0)
    sol = solve_bvp(
        lambda x, y: np.vstack([y[1], 2.0 * y[0] ** 3 + x * y[0]]),
        lambda ya, yb: np.array([ya[0] - painleve._left_asymptote(x_min),
                                 yb[0] - airy.airy(x_max).ai]),
        x0, np.vstack([guess, np.gradient(guess, x0)]), tol=1e-10,
        max_nodes=500000)
    assert sol.status == 0, sol.message
    q, qp = sol.sol(domain.nodes())
    R = cumulative_tail_integral(GridFunction(domain, q * q),
                                 AiryProductTail())
    logf2 = cumulative_tail_integral(
        R, ExponentialTail(rate=2.0 * math.sqrt(x_max)))
    return q, qp, R.values, np.exp(-logf2.values)


# ---------------------------------------------------------------------------
# table invariants
# ---------------------------------------------------------------------------


def test_table_matches_bvp_reference(table):
    # the collocation BVP the Newton-Numerov solver replaced, on the same
    # grid: measured q 3.2e-13, q' 7.0e-13, R 4.9e-13, F2 2.9e-14
    q, qp, R, f2 = bvp_reference(table.grid)
    assert np.max(np.abs(table.q.values - q)) <= 2e-12
    assert np.max(np.abs(table.q_prime.values - qp)) <= 2e-12
    assert np.max(np.abs(table.R.values - R)) <= 2e-12
    assert np.max(np.abs(table.f2.values - f2)) <= 2e-13


def test_unconverged_newton_raises(monkeypatch):
    # a Newton update that is never usable leaves the Numerov residual
    # large (here NaN); the solver must refuse it, not tabulate it
    monkeypatch.setattr(painleve, "solve_banded",
                        lambda l_and_u, ab, b: np.full_like(b, np.nan))
    with pytest.raises(RuntimeError, match="did not converge"):
        painleve.solve_hastings_mcleod(Grid(-10.0, 8.0, 1801))


def test_q_positive(table):
    assert np.all(table.q.values > 0.0)


def test_painleve_ii_residual(table):
    g = table.grid.nodes()
    q = table.q.values
    h = table.grid.h
    qdd = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / h**2
    res = qdd - 2.0 * q[1:-1] ** 3 - g[1:-1] * q[1:-1]
    assert np.max(np.abs(res)) < 1e-6


def test_r_identity(table):
    g = table.grid.nodes()
    q, qp = table.q.values, table.q_prime.values
    res = table.R.values - (qp**2 - q**4 - g * q**2)
    assert np.max(np.abs(res)) < 1e-8


def test_f2_monotone_with_limits(table):
    f2 = table.f2.values
    assert np.all(np.diff(f2) >= 0.0)
    assert abs(f2[-1] - 1.0) < 1e-10
    assert np.all(f2 > 0.0)
    assert np.all(f2 <= 1.0)
    assert f2[0] < 1e-15  # deep left tail genuinely small


def test_r_equals_f2_log_derivative(table):
    # spline-derivative check where f2 retains relative accuracy in
    # float64 (below ~1e-8 the derivative of the stored values cannot
    # support a 1e-6 comparison); the deep tail is covered by the
    # independent-quadrature check that follows
    keep = table.f2.values[1:-1] > 1e-8
    df2 = table.f2.derivative().values[1:-1]
    res = df2 / table.f2.values[1:-1] - table.R.values[1:-1]
    assert np.max(np.abs(res[keep])) < 1e-6


def test_r_is_log_derivative_of_independent_f2(table):
    # centered difference of log F2 from the direct quadrature route,
    # including deep-tail points the spline check cannot reach
    d = 1e-4
    for x in (-8.0, -4.0, 0.0, 3.0):
        num = (math.log(painleve.tracy_widom_f2(table, x + d))
               - math.log(painleve.tracy_widom_f2(table, x - d))) / (2.0 * d)
        assert num == pytest.approx(table.R(x), rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------------------
# boundary / asymptotic values of q
# ---------------------------------------------------------------------------


def test_q_matches_airy_on_the_right(table):
    assert table.q(6.0) == pytest.approx(airy.airy(6.0).ai, abs=1e-9)
    assert airy.airy(6.0).ai == pytest.approx(9.9477e-6, abs=1e-9)
    # q = Ai(x) (1 + O(Ai^2)), so on [6, x_max - 0.1] the relative gap to
    # Ai is the solver's error alone (the collocation BVP left 1.9e-6)
    x = table.grid.nodes()
    x = x[(x >= 6.0) & (x <= table.grid.x_max - 0.1)]
    assert np.max(np.abs(table.q(x) / airy.ai_values(x) - 1.0)) <= 1e-10


def test_q_above_table_raises(table):
    # a GridFunction carries no tail model: beyond x_max it raises rather
    # than extrapolate (q ~ Ai(x) there, not the Ai(x)^2 of R's integrand)
    with pytest.raises(ValueError):
        table.q(table.grid.x_max + 2.0)
    with pytest.raises(ValueError):
        table.R(np.array([0.0, table.grid.x_max + 2.0]))


def test_q_left_asymptote(table):
    # sqrt(-x/2)(1 + 1/(8 x^3)) at x = -8
    expect = 2.0 * (1.0 - 1.0 / 4096.0)
    assert table.q(-8.0) == pytest.approx(expect, abs=1e-4)


def test_q_zero_domain_independence(table):
    # self-consistency oracle: other domain choices reproduce q(0), and
    # each Newton solve reaches roundoff and says so
    assert table.residual <= 1e-13 and 0 < table.newton_steps <= 40
    for domain in (Grid(-10.0, 8.0, 3601), Grid(-12.0, 14.0, 5201)):
        other = painleve.solve_hastings_mcleod(domain)
        assert abs(table.q(0.0) - other.q(0.0)) < 1e-8
        assert other.residual <= 1e-13 and 0 < other.newton_steps <= 40
    # literature sanity log only (not an oracle)
    print(f"q(0) = {table.q(0.0):.10f} (expected near 0.3670615)")


def test_newton_takes_no_steps_in_roundoff(table):
    # Newton converges quadratically: 4 updates on h (4e-2, 7e-4, 7.5e-7,
    # 8e-13) and 2 on h/2 reach roundoff.  Stepping on until an update
    # stopped shrinking took 14, and the table is the same to 1.4e-15 in q
    assert table.newton_steps <= 8
    other = painleve.solve_hastings_mcleod(Grid(-10.0, 8.0, 1801))
    assert other.newton_steps <= 8 and other.residual <= 1e-13


def test_grid_refinement_stability(table):
    # same domain, twice the spacing: each grid is its own Newton solve,
    # and R and F2 agree at the shared nodes (measured 2.5e-12, 6.4e-12)
    coarse = painleve.solve_hastings_mcleod(Grid(-12.0, 20.0, 3201))
    fine_r = table.R.values[::2]
    fine_f2 = table.f2.values[::2]
    assert np.max(np.abs(coarse.R.values - fine_r)) < 1e-10
    assert np.max(np.abs(coarse.f2.values - fine_f2)) < 1e-10


def test_domain_precondition():
    with pytest.raises(ValueError):
        painleve.solve_hastings_mcleod(Grid(-5.0, 8.0, 1001))


# ---------------------------------------------------------------------------
# Tracy-Widom F2
# ---------------------------------------------------------------------------


def test_f2_at_xmax(table):
    assert painleve.tracy_widom_f2(table, table.grid.x_max) == pytest.approx(
        1.0, abs=1e-10)


def test_f2_left_tail_asymptote(table):
    # tau2 |x|^(-1/8) e^(-|x|^3/12) with the 3/(64|x|^3) correction
    val = painleve.tracy_widom_f2(table, -8.0)
    asym = painleve.tracy_widom_f2_asymptote(-8.0)
    assert val == pytest.approx(asym, rel=0.01)


def test_f2_asymptote_array_equals_scalar_calls():
    x = -np.linspace(0.5, 12.0, 47)
    stacked = np.array([painleve.tracy_widom_f2_asymptote(xi) for xi in x])
    got = painleve.tracy_widom_f2_asymptote(x)
    assert isinstance(painleve.tracy_widom_f2_asymptote(-8.0), float)
    assert np.max(np.abs(got - stacked) / stacked) <= 1e-13


def test_f2_quadrature_matches_table_field(table):
    for x in (-6.0, -3.0, -1.0, 0.0, 2.0, 5.0):
        assert painleve.tracy_widom_f2(table, x) == pytest.approx(
            table.f2(x), rel=1e-8, abs=1e-12)


def test_f2_mean(table):
    # int x dF2 = int x R F2 dx; the reference value -1.771 was frozen from
    # a 1e5-sample n = 1000 Monte Carlo run of the scaled largest eigenvalue
    g = table.grid.nodes()
    mean = float(np.sum(segment_integrals(
        g, g * table.R.values * table.f2.values)))
    assert mean == pytest.approx(-1.771, abs=0.01)


# ---------------------------------------------------------------------------
# alpha = 1/2 transcendent and its identities
# ---------------------------------------------------------------------------


def test_q_half_right_tail(table):
    assert painleve.q_half(table, 8.0) == pytest.approx(1.0 / 16.0, abs=5e-3)


@pytest.mark.xfail(
    strict=True,
    reason="the subleading term of -q'/q in the Airy regime contributes "
           "1/(4x)/2^(1/3) = 0.031 at s = -8, so the bare sqrt(-s/2) value "
           "is missed by 3e-2; the corrected form is asserted below")
def test_q_half_left_tail_bare(table):
    assert painleve.q_half(table, -8.0) == pytest.approx(2.0, abs=1e-2)


def test_q_half_left_tail_with_subleading(table):
    s = -8.0
    x = -s / 2.0 ** (1.0 / 3.0)
    expect = (math.sqrt(x) + 1.0 / (4.0 * x)) / 2.0 ** (1.0 / 3.0)
    assert painleve.q_half(table, s) == pytest.approx(expect, abs=2e-3)


def test_q_half_first_identity_pointwise(table):
    cbrt2 = 2.0 ** (1.0 / 3.0)
    for s in (-2.0, 0.0, 2.0):
        x = -s / cbrt2
        lhs = (painleve.q_half(table, s) ** 2
               + painleve.q_half_prime(table, s) + s / 2.0)
        assert lhs == pytest.approx(cbrt2 * table.q(x) ** 2, abs=1e-6)


def test_q_half_domain_violation(table):
    with pytest.raises(ValueError):
        painleve.q_half(table, 100.0)


def test_appendix_identities_residuals(table):
    rep = painleve.check_appendix_a_identities(table)
    assert rep["max_residual_1"] < 1e-5
    assert rep["max_residual_2"] < 1e-5


def test_appendix_identities_sensitivity(table):
    # perturbing q by +1e-3 must blow the residuals past 1e-4
    from dataclasses import replace
    from nearextreme.numerics import GridFunction

    bad_q = GridFunction(table.grid, table.q.values + 1e-3)
    bad = replace(table, q=bad_q)
    rep = painleve.check_appendix_a_identities(bad)
    assert max(rep["max_residual_1"], rep["max_residual_2"]) > 1e-4


def test_appendix_identities_empty_overlap(table):
    with pytest.raises(ValueError):
        painleve.check_appendix_a_identities(table,
                                             s_values=np.array([500.0]))


# ---------------------------------------------------------------------------
# a2 integral
# ---------------------------------------------------------------------------


def test_a2_is_one_half(table):
    assert painleve.a2_integral(table) == pytest.approx(0.5, abs=1e-4)
