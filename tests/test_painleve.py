"""Hastings-McLeod table, Tracy-Widom F2, and the alpha = 1/2 transcendent."""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_bvp

from nearextreme import airy, painleve
from nearextreme.numerics import (AiryProductTail, Grid, hermite,
                                  integral_from_right)


def bvp_reference(domain):
    """(q, q', R, F2) on ``domain`` by scipy's collocation BVP solver at
    tol = 1e-10, with the boundary values and tanh-blend guess the table
    solver used before it moved to Newton on Numerov's scheme.  R and F2
    are built from q exactly as the table builds them."""
    x_min, x_max = domain.x_min, domain.x_max
    x0 = np.linspace(x_min, x_max, 1601)
    w = 0.5 * (1.0 + np.tanh(-x0 / 2.0))
    left = painleve._left_asymptote(np.where(x0 < 0, x0, -1.0))
    guess = w * np.where(x0 < 0, left, 0.0) + (1.0 - w) * airy.ai_pair(x0)[0]
    sol = solve_bvp(
        lambda x, y: np.vstack([y[1], 2.0 * y[0] ** 3 + x * y[0]]),
        lambda ya, yb: np.array([ya[0] - painleve._left_asymptote(x_min),
                                 yb[0] - airy.ai_pair(x_max)[0]]),
        x0, np.vstack([guess, np.gradient(guess, x0)]), tol=1e-10,
        max_nodes=500000)
    assert sol.status == 0, sol.message
    x = domain.nodes()
    q, qp = sol.sol(x)
    q2 = q * q
    R = (integral_from_right(x, q2)
         + AiryProductTail().remainder(x_max, q2[-1]))
    logf2 = (integral_from_right(x, R)
             + R[-1] / (2.0 * math.sqrt(x_max)))
    return q, qp, R, np.exp(-logf2)


# ---------------------------------------------------------------------------
# table invariants
# ---------------------------------------------------------------------------


def test_table_matches_bvp_reference(table):
    # the collocation BVP the Newton-Numerov solver replaced, on the same
    # grid: measured q 3.2e-13, q' 7.0e-13, R 4.9e-13, F2 2.9e-14
    q, qp, R, f2 = bvp_reference(table.grid)
    assert np.max(np.abs(table.q - q)) <= 2e-12
    assert np.max(np.abs(table.q_prime - qp)) <= 2e-12
    assert np.max(np.abs(table.R - R)) <= 2e-12
    assert np.max(np.abs(table.f2 - f2)) <= 2e-13


def test_unconverged_newton_raises(monkeypatch):
    # a Newton update that is never usable leaves the Numerov residual
    # large (here NaN); the solver must refuse it, not tabulate it
    monkeypatch.setattr(painleve, "_cyclic_reduction",
                        lambda a, b, c, d: np.full_like(d, np.nan))
    with pytest.raises(RuntimeError, match="did not converge"):
        painleve.solve_hastings_mcleod(Grid(-10.0, 8.0, 1801))


def test_numerov_residual_above_bound_raises(monkeypatch):
    # Newton stopped at its guess leaves a finite Numerov residual far
    # above 1e-12; the solver must refuse it, not tabulate it
    monkeypatch.setattr(painleve, "_LAST_UPDATE", math.inf)
    with pytest.raises(RuntimeError, match="Numerov residual"):
        painleve.solve_hastings_mcleod(Grid(-10.0, 8.0, 1801))


def test_non_finite_newton_iterate_raises():
    # a NaN in the guess (or an iterate that diverges) must raise the
    # documented RuntimeError naming the domain, not propagate into the
    # Newton update
    x = np.linspace(-10.0, 8.0, 1801)
    guess = np.maximum(airy.ai_pair(x)[0],
                       np.sqrt(np.maximum(-x, 0.0) / 2.0))
    guess[900] = math.nan
    with pytest.raises(RuntimeError,
                       match=r"\[-10, 8\] with 1801 nodes.*step 0"):
        painleve._newton_numerov(x, guess)


@pytest.mark.parametrize("n", [1, 2, 3, 1801])
def test_tridiagonal_solve_matches_dense(n):
    # diagonally dominant (|diagonal| >= 2 >= |sub| + |super|); the
    # corners sub[0] and sup[-1] lie outside the matrix and are 0
    rng = np.random.default_rng(n)
    sub, diagonal, sup = rng.uniform(-1.0, 1.0, (3, n))
    diagonal += 2.0 * np.sign(diagonal)
    sub[0] = sup[-1] = 0.0
    a = np.diag(diagonal) + np.diag(sup[:-1], 1) + np.diag(sub[1:], -1)
    b = rng.normal(size=n)
    x = painleve._cyclic_reduction(sub, diagonal, sup, b)
    ref = np.linalg.solve(a, b)
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_tridiagonal_solve_on_the_numerov_jacobian(table):
    # the first Newton system on the canonical grid (the Jacobian and the
    # Numerov residual at the guess), against LAPACK's banded solver
    from scipy.linalg import solve_banded

    x, c = table.grid.nodes(), table.grid.h**2 / 12.0
    q = np.maximum(airy.ai_pair(x)[0], np.sqrt(np.maximum(-x, 0.0) / 2.0))
    q[0], q[-1] = painleve._left_asymptote(x[0]), airy.ai_pair(x[-1])[0]
    force = (2.0 * q * q + x) * q
    res = (q[2:] - 2.0 * q[1:-1] + q[:-2]
           - c * (force[2:] + 10.0 * force[1:-1] + force[:-2]))
    off = 1.0 - c * (6.0 * q * q + x)
    ab = np.zeros((3, x.size - 2))
    ab[0, 1:], ab[2, :-1] = off[2:-1], off[1:-2]
    ab[1] = 10.0 * off[1:-1] - 12.0
    ref = solve_banded((1, 1), ab, res)
    sub, sup = off[:-2].copy(), off[2:].copy()
    sub[0] = sup[-1] = 0.0
    dq = painleve._cyclic_reduction(sub, ab[1], sup, res)
    assert np.max(np.abs(dq - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_table_rejects_nonfinite_and_missized(table):
    from dataclasses import replace

    with pytest.raises(ValueError, match="q must hold n_points = 6401 finite"):
        replace(table, q=np.where(table.grid.nodes() == 0.0, math.nan,
                                  table.q))
    with pytest.raises(ValueError, match="R must hold n_points = 6401 finite"):
        replace(table, R=table.R[:-1])
    # a negative f2 is finite and passes: corruption tests build one
    assert replace(table, f2=-table.f2).f2[-1] == -table.f2[-1]


def test_q_positive(table):
    assert painleve.table_residuals(table)["q_min"] > 0.0


def test_painleve_ii_residual(table):
    assert painleve.table_residuals(table)["painleve_ii"] < 1e-6


def test_r_identity(table):
    assert painleve.table_residuals(table)["r_identity"] < 1e-8


def test_f2_monotone_with_limits(table):
    assert painleve.table_residuals(table)["f2_monotone"]
    assert table.f2[0] < 1e-15  # deep left tail genuinely small


def test_r_equals_f2_log_derivative(table):
    # five-point derivative of log f2 at every interior node (measured
    # 5.6e-12); log f2 keeps its relative accuracy down to the deep tail
    assert painleve.table_residuals(table)["r_log_derivative"] < 1e-6


def test_table_residuals_detect_corruption(table):
    # each invariant reacts to the corruption it is meant to catch
    from dataclasses import replace

    rep = painleve.table_residuals(replace(table, q=table.q + 1e-3))
    assert rep["painleve_ii"] > 1e-4 and rep["r_identity"] > 1e-4
    assert painleve.table_residuals(replace(table, R=table.R * 1.001))[
        "r_log_derivative"] > 1e-4
    f2 = table.f2.copy()
    f2[100] = f2[101] * 1.01
    assert not painleve.table_residuals(replace(table, f2=f2))["f2_monotone"]
    assert painleve.table_residuals(replace(table, q=-table.q))["q_min"] < 0


def test_r_is_log_derivative_of_independent_f2(table):
    # centered difference of log F2 from the direct quadrature route,
    # against R interpolated between the nodes
    d = 1e-4
    for x in (-8.0, -4.0, 0.0, 3.0):
        num = (math.log(painleve.tracy_widom_f2(table, x + d))
               - math.log(painleve.tracy_widom_f2(table, x - d))) / (2.0 * d)
        assert num == pytest.approx(table.at(x)[2], rel=1e-5, abs=1e-7)


# ---------------------------------------------------------------------------
# boundary / asymptotic values of q
# ---------------------------------------------------------------------------


def test_q_matches_airy_on_the_right(table):
    ai_6 = airy.ai_pair(6.0)[0]
    assert table.at(6.0)[0] == pytest.approx(ai_6, abs=1e-9)
    assert ai_6 == pytest.approx(9.9477e-6, abs=1e-9)
    # q = Ai(x) (1 + O(Ai^2)), so on [6, x_max - 0.1] the relative gap to
    # Ai is the solver's error alone (the collocation BVP left 1.9e-6)
    x = table.grid.nodes()
    keep = (x >= 6.0) & (x <= table.grid.x_max - 0.1)
    assert np.max(np.abs(table.q[keep] / airy.ai_pair(x[keep])[0] - 1.0)) \
        <= 1e-10


def test_q_above_table_raises(table):
    # the table carries no tail model: beyond x_max it raises rather than
    # extrapolate (q ~ Ai(x) there, not the Ai(x)^2 of R's integrand)
    with pytest.raises(ValueError):
        table.at(table.grid.x_max + 2.0)
    with pytest.raises(ValueError):
        table.at(np.array([0.0, table.grid.x_max + 2.0]))


def test_q_left_asymptote(table):
    # sqrt(-x/2)(1 + 1/(8 x^3)) at x = -8
    expect = 2.0 * (1.0 - 1.0 / 4096.0)
    assert table.at(-8.0)[0] == pytest.approx(expect, abs=1e-4)


def test_q_zero_domain_independence(table):
    # self-consistency oracle: other domain choices reproduce q(0), and
    # each Newton solve reaches roundoff and says so
    assert table.residual <= 1e-13 and 0 < table.newton_steps <= 40
    for domain in (Grid(-10.0, 8.0, 3601), Grid(-12.0, 14.0, 5201)):
        other = painleve.solve_hastings_mcleod(domain)
        assert abs(table.at(0.0)[0] - other.at(0.0)[0]) < 1e-8
        assert other.residual <= 1e-13 and 0 < other.newton_steps <= 40
    # literature sanity log only (not an oracle)
    print(f"q(0) = {table.at(0.0)[0]:.10f} (expected near 0.3670615)")


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
    assert np.max(np.abs(coarse.R - table.R[::2])) < 1e-10
    assert np.max(np.abs(coarse.f2 - table.f2[::2])) < 1e-10


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


def test_f2_left_of_the_table_is_the_asymptote(table):
    x = table.grid.x_min - 0.5
    assert painleve.tracy_widom_f2(table, x) == \
        painleve.tracy_widom_f2_asymptote(x)


def test_f2_asymptote_array_equals_scalar_calls():
    x = -np.linspace(0.5, 12.0, 47)
    stacked = np.array([painleve.tracy_widom_f2_asymptote(xi) for xi in x])
    got = painleve.tracy_widom_f2_asymptote(x)
    assert isinstance(painleve.tracy_widom_f2_asymptote(-8.0), float)
    assert np.max(np.abs(got - stacked) / stacked) <= 1e-13


def test_f2_matches_adaptive_quadrature(table):
    # the per-cell Gauss-Legendre sums and the closed-form Airy tail
    # against adaptive quadrature of the same Hermite interpolant and of
    # the Airy model for q beyond x_max; -1.7710868 (the TW2 mean) lies
    # between two nodes, so there the first cell is cut at x
    grid, q, qp = table.grid, table.q, table.q_prime
    x_max = grid.x_max
    scale = (q[-1] / airy.ai_pair(x_max)[0]) ** 2
    for x in (-11.9, -8.0, -6.0, -3.0, -1.77, -1.7710868, -1.0, 0.0, 2.0,
              5.0):
        val, _ = quad(lambda u: (u - x) * hermite(grid, q, qp, u) ** 2,
                      x, x_max, epsabs=1e-13, epsrel=1e-12, limit=300)
        rem, _ = quad(lambda u: (u - x) * airy.ai_pair(u)[0] ** 2 * scale,
                      x_max, x_max + 20.0, epsabs=1e-300, epsrel=1e-10)
        assert painleve.tracy_widom_f2(table, x) == pytest.approx(
            math.exp(-(val + rem)), rel=1e-11), x


def test_f2_of_an_airy_table_in_closed_form():
    # with q = Ai, int_x^inf (u - x) Ai^2 = (2 x^2 Ai^2 - 2 x Ai'^2 - Ai Ai')/3
    # at x; on [-4, 2] the part beyond x_max is most of it near x = 2, so
    # this checks the closed-form tail as well as the per-cell sums (the
    # Hermite interpolant of Ai is off by 3e-12 relative in F2 at x = -4)
    grid = Grid(-4.0, 2.0, 1201)
    ai, aip = airy.ai_pair(grid.nodes())
    t = painleve.PainleveTable(grid, ai, aip, ai, ai, 0, 0.0)
    for x in (-4.0, -1.3, 0.0, 1.0, 1.99):
        a, ap = airy.ai_pair(x)
        exponent = (2.0 * x * x * a * a - 2.0 * x * ap * ap - a * ap) / 3.0
        got = painleve.tracy_widom_f2(t, x)
        assert got == pytest.approx(math.exp(-exponent), rel=1e-11), x


def test_f2_quadrature_matches_table_field(table):
    for x in (-6.0, -3.0, -1.0, 0.0, 2.0, 5.0):
        assert painleve.tracy_widom_f2(table, x) == pytest.approx(
            table.at(x)[3], rel=1e-8, abs=1e-12)


def test_f2_mean(table):
    # int x dF2 = int x R F2 dx; the reference value -1.771 was frozen from
    # a 1e5-sample n = 1000 Monte Carlo run of the scaled largest eigenvalue
    g = table.grid.nodes()
    mean = integral_from_right(g, g * table.R * table.f2)[0]
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
        assert lhs == pytest.approx(cbrt2 * table.at(x)[0] ** 2, abs=1e-6)


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

    bad = replace(table, q=table.q + 1e-3)
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
