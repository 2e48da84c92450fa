"""Hastings-McLeod table, Tracy-Widom F2, and the alpha = 1/2 transcendent."""

import math

import numpy as np
import pytest

from nearextreme import airy, painleve
from nearextreme.numerics import Grid, segment_integrals


# ---------------------------------------------------------------------------
# table invariants
# ---------------------------------------------------------------------------


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


def test_q_left_asymptote(table):
    # sqrt(-x/2)(1 + 1/(8 x^3)) at x = -8
    expect = 2.0 * (1.0 - 1.0 / 4096.0)
    assert table.q(-8.0) == pytest.approx(expect, abs=1e-4)


def test_q_zero_domain_independence(table):
    # self-consistency oracle: a disjoint domain choice reproduces q(0)
    other = painleve.solve_hastings_mcleod(Grid(-10.0, 8.0, 3601))
    assert abs(table.q(0.0) - other.q(0.0)) < 1e-8
    # the canonical table converges at the requested tol = 1e-10; this
    # domain only at the relaxed second attempt, and the table says so
    assert (table.bvp_nodes, table.bvp_tol) == (60395, 1e-10)
    assert (other.bvp_nodes, other.bvp_tol) == (489837, 1e-9)
    # literature sanity log only (not an oracle)
    print(f"q(0) = {table.q(0.0):.10f} (expected near 0.3670615)")


def test_grid_refinement_stability():
    coarse = painleve.solve_hastings_mcleod(Grid(-12.0, 10.0, 2201))
    fine = painleve.default_table()
    assert abs(coarse.q(0.0) - fine.q(0.0)) < 1e-9


def test_domain_precondition():
    with pytest.raises(ValueError):
        painleve.solve_hastings_mcleod(Grid(-5.0, 8.0, 1001))
    with pytest.raises(ValueError):
        painleve.solve_hastings_mcleod(Grid(-12.0, 10.0, 1001), tol=1e-15)


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
