"""Lax-pair psi functions: residual diagnostics, small-r expansion,
asymptotic envelopes, branch behavior."""

import math

import numpy as np
import pytest

from nearextreme import airy, laxpair, painleve, scaling
from nearextreme.laxpair import SEED_AMPLITUDE
from nearextreme.numerics import (AiryProductTail, Grid, hermite,
                                  integral_from_right, integrate_ode)


def f_at(psi, x):
    """f between the nodes: the cubic Hermite interpolant on f and f'."""
    return hermite(psi.table.grid, psi.f, psi.f_prime, x)


@pytest.fixture(scope="module")
def table_short():
    """A second domain, [-12, 12] at the same h = 0.005, solved on its own
    grid."""
    return painleve.solve_hastings_mcleod(Grid(-12.0, 12.0, 4801))


RESIDUAL_PARAMS = (0.5, 2.0, 5.0, -0.5, -2.0, -5.0)


@pytest.mark.parametrize("r", RESIDUAL_PARAMS)
def test_psi_invariants(table, r):
    psi = laxpair.solve_psi(r, table)
    res = laxpair.psi_residuals(psi)
    assert res["schrod"] < 1e-5
    assert res["conserved"] < 1e-4


def test_r_zero_reduces_to_q(table):
    psi = laxpair.solve_psi(0.0, table)
    diff = psi.f - SEED_AMPLITUDE * table.q
    assert np.max(np.abs(diff)) < 1e-6
    assert np.max(np.abs(psi.g)) < 1e-10


def test_oscillatory_envelope_large_r(table):
    # for r well inside the oscillatory window the amplitude at x = 0 is
    # 2^(-1/6) r^(-1/4); sample a quarter period around x = 0 to catch a
    # crest regardless of phase
    r = 16.0
    psi = laxpair.solve_psi(r, table)
    period = 2.0 * math.pi / math.sqrt(r)
    x = np.linspace(-period / 4.0, period / 4.0, 101)
    peak = float(np.max(np.abs(f_at(psi, x))))
    envelope = 2.0 ** (-1.0 / 6.0) * r ** (-0.25)
    assert peak == pytest.approx(envelope, rel=0.10)


def test_gap_branch_decay_value(table):
    # f(-9, 0) ~ 2^(-7/6) 9^(-1/4) e^(-2/3 * 27)
    psi = laxpair.solve_psi(-9.0, table)
    expect = 2.0 ** (-7.0 / 6.0) * 9.0 ** (-0.25) * math.exp(-18.0)
    assert abs(f_at(psi, 0.0)) == pytest.approx(expect, rel=0.15)


def test_admissible_window(table):
    with pytest.raises(ValueError):
        laxpair.solve_psi(81.0, table)  # Airy seed below airy.X_MIN
    # the seed's lowest point is the last node but one, x_max - h
    with pytest.raises(ValueError, match="reaches r_tilde = 79.995, not 80"):
        laxpair.solve_psi(80.0, table)
    with pytest.raises(ValueError):
        laxpair.solve_psi(-40.0, table)  # underflow regime


def test_backward_integration_stability(table, table_short):
    # stretching the decay runway above x = 0 from 12 to 20 must leave f(0)
    # unchanged: the Ai branch dominates in the decreasing-x direction
    for r in (2.0, -3.0):
        f_a = f_at(laxpair.solve_psi(r, table_short), 0.0)
        f_b = f_at(laxpair.solve_psi(r, table), 0.0)
        assert abs(f_a - f_b) < 1e-6


# ---------------------------------------------------------------------------
# batched Numerov solver against an independent RK45 reference
# ---------------------------------------------------------------------------


REFERENCE_PARAMS = (-5.0, -2.0, 0.5, 2.0, 5.0, 16.0)


def rk45_reference(r, table):
    """f by adaptive RK45 through the cubic Hermite q from the Airy seed at
    x_max, the edge integral from it by the right-anchored quadrature plus
    the seed's part beyond x_max, SEED_AMPLITUDE^2 int_b^inf Ai^2 with
    b = x_max - r."""
    grid, q = table.grid, table.q
    x = grid.nodes()
    ai, aip = airy.ai_pair(grid.x_max - r)

    def q2(u):
        return hermite(grid, q, table.q_prime, u) ** 2

    _, y = integrate_ode(lambda u, v: [v[1], (u + 2.0 * q2(u) - r) * v[0]],
                         table.grid.x_max, table.grid.x_min,
                         [SEED_AMPLITUDE * ai, SEED_AMPLITUDE * aip],
                         rel_tol=1e-12, abs_tol=1e-300, t_eval=x[::-1])
    f = y[0][::-1]
    qf = q * f
    big_i = (integral_from_right(x, qf)
             + AiryProductTail(r).remainder(grid.x_max, qf[-1]))
    integral = integral_from_right(x, (f**2 - big_i**2) * table.f2)[0]
    b = grid.x_max - r
    integral += SEED_AMPLITUDE**2 * (aip * aip - b * ai * ai)
    return f, 2.0 ** (1.0 / 3.0) / math.pi * float(integral)


def test_batched_solver_matches_rk45(table):
    f, _ = stacked(laxpair.psi_blocks(REFERENCE_PARAMS, table),
                   table.grid.n_points, len(REFERENCE_PARAMS))
    edge = scaling.edge_integral(REFERENCE_PARAMS, table)
    for k, r in enumerate(REFERENCE_PARAMS):
        f_ref, edge_ref = rk45_reference(r, table)
        assert np.max(np.abs(f[:, k] - f_ref)) < 1e-8 * np.max(np.abs(f_ref))
        assert edge[k] == pytest.approx(edge_ref, rel=1e-7)


def whole_array_march(x, q2, r):
    """Numerov downward on every node at once, A and 12/A - 10 built on the
    whole grid: the recurrence that _numerov_down runs in blocks."""
    h = x[1] - x[0]
    a = 1.0 - h * h / 12.0 * ((x + 2.0 * q2)[:, None] - r)
    c = 12.0 / a - 10.0
    u = np.empty_like(a)
    u[-2:] = SEED_AMPLITUDE * airy.ai_pair(x[-2:, None] - r)[0] * a[-2:]
    for i in range(x.size - 2, 0, -1):
        u[i - 1] = c[i] * u[i] - u[i + 1]
    return u / a


def half_grid(table):
    """The table grid's halving and q^2 on it, as psi_blocks builds them."""
    grid = table.grid
    x = np.linspace(grid.x_min, grid.x_max, 2 * grid.n_points - 1)
    q = hermite(grid, table.q, table.q_prime, x)
    return x, q * q


def stacked(blocks, n_rows, n_cols):
    """The (rows, *arrays) items of a march stacked into one array per
    position, (n_arrays, n_rows, n_cols); each row is written once, and the
    blocks run from the top down."""
    out, top = None, n_rows
    for rows, *parts in blocks:
        if out is None:
            out = np.full((len(parts), n_rows, n_cols), np.nan)
        assert rows.stop == top and np.all(np.isnan(out[:, rows]))
        out[:, rows] = parts
        top = rows.start
    assert top == 0
    return out


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_strided_march_keeps_even_rows_exactly(table, sign):
    # the march builds its coefficients block by block, and on the half grid
    # keeps only its even rows; neither may change a float, whatever the
    # block size and however the blocks fall on the even rows
    x, q2 = half_grid(table)
    r = sign * np.array([0.0, 0.5, 3.0, 7.5, 12.0])
    whole = whole_array_march(x, q2, r)
    for rows in (2 * laxpair._BLOCK, 999):
        (full,) = stacked(laxpair._numerov_down(x, q2, r, rows), x.size,
                          r.size)
        assert np.array_equal(full, whole)
        (half,) = stacked(laxpair._numerov_down(x, q2, r, rows, stride=2),
                          table.grid.n_points, r.size)
        assert np.array_equal(half, full[::2])


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_folded_march_is_the_richardson_combination(table, sign):
    # the two marches run in lockstep and each pair of blocks folds at once;
    # that must be the same float as Richardson on two whole-grid marches,
    # and I, summed a block behind the march, the same float as the
    # whole-array rule plus the Airy-product tail
    x_half, q2_half = half_grid(table)
    x, q = table.grid.nodes(), table.q
    r = sign * np.array([0.0, 0.5, 3.0, 7.5, 12.0])
    f_half = whole_array_march(x_half, q2_half, r)
    f_h = whole_array_march(x, q * q, r)
    want = (16.0 / 15.0) * f_half[::2] - f_h / 15.0
    qf = q[:, None] * want
    want_i = (integral_from_right(x, qf)
              + AiryProductTail(r).remainder(table.grid.x_max, qf[-1]))
    f, big_i = stacked(laxpair.psi_blocks(r, table), x.size, r.size)
    assert np.array_equal(f, want)
    assert np.array_equal(big_i, want_i)


def test_psi_blocks_hands_over_its_arrays(table):
    # each yielded f and I is the caller's to overwrite: NaN written over
    # every block as it arrives must leave the values of a clean run
    r = np.array([-7.5, -0.5, 0.0, 3.0, 12.0])
    n = table.grid.n_points
    clean = stacked(laxpair.psi_blocks(r, table), n, r.size)

    def overwritten():
        for rows, f, big_i in laxpair.psi_blocks(r, table):
            yield rows, f.copy(), big_i.copy()
            f[:] = np.nan
            big_i[:] = np.nan

    assert np.array_equal(stacked(overwritten(), n, r.size), clean)


def test_error_budget_grid_halving(table):
    # the table solved on h/2 (its own Newton solve, psi on h/2 and h/4)
    # moves both curves by far less than 1e-7 (measured 1.7e-10, 1.9e-10)
    fine = painleve.solve_hastings_mcleod(Grid(-12.0, 20.0, 12801))
    for curve, r_max in ((scaling.rho_edge_scaling, 12.0),
                         (scaling.p_typ, 8.0)):
        r = np.linspace(0.0, r_max, 49)[1:]
        a, b = curve(r, table), curve(r, fine)
        assert np.max(np.abs(a - b) / b) < 1e-7


# ---------------------------------------------------------------------------
# small-r expansion
# ---------------------------------------------------------------------------


def test_small_r_f0_matches_solve(table):
    f0, _, _ = laxpair.small_r_expansion(table)
    psi0 = laxpair.solve_psi(0.0, table)
    assert np.max(np.abs(f0 - psi0.f)) < 1e-6


def test_small_r_f1_first_difference(table):
    eps = 1e-3
    f0, f1, _ = laxpair.small_r_expansion(table)
    fp = laxpair.solve_psi(eps, table).f
    diff = (fp - f0) / eps
    scale = np.maximum(np.abs(f1), 1.0)
    assert np.max(np.abs(diff - f1) / scale) < 10.0 * eps


def test_small_r_f2_second_difference(table):
    eps = 1e-3
    f0, _, f2 = laxpair.small_r_expansion(table)
    fp = laxpair.solve_psi(eps, table).f
    fm = laxpair.solve_psi(-eps, table).f
    second = (fp - 2.0 * f0 + fm) / (2.0 * eps**2)
    scale = np.maximum(np.abs(f2), 1.0)
    assert np.max(np.abs(second - f2) / scale) < 10.0 * eps


# ---------------------------------------------------------------------------
# Lax residuals (B exact, A by centered finite difference)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", (2.0, -3.0))
def test_lax_residuals(table, r):
    res = laxpair.lax_residuals(laxpair.solve_psi(r, table))
    assert res["b_residual"] < 1e-5
    assert res["a_residual"] < 1e-3


def test_lax_residuals_detect_corruption(table):
    from dataclasses import replace

    psi = laxpair.solve_psi(2.0, table)
    bad = replace(psi, g=np.zeros(table.grid.n_points))
    res = laxpair.lax_residuals(bad)
    assert res["b_residual"] > 0.1


def test_psi_pair_rejects_missized_and_nonfinite(table, table_short):
    from dataclasses import replace

    psi = laxpair.solve_psi(2.0, table)
    with pytest.raises(ValueError, match="f_prime must hold n_points"):
        replace(psi, f_prime=psi.f_prime[::2])
    g = psi.g.copy()
    g[10] = math.inf
    with pytest.raises(ValueError, match="g must hold n_points = 6401 finite"):
        replace(psi, g=g)
    with pytest.raises(ValueError, match="n_points"):
        replace(psi, table=table_short)


def test_lax_residuals_reject_r_zero(table):
    psi = laxpair.solve_psi(0.0, table)
    with pytest.raises(ValueError):
        laxpair.lax_residuals(psi)


# ---------------------------------------------------------------------------
# gap-branch large-r correction function
# ---------------------------------------------------------------------------


def test_gap_branch_correction_function(table):
    # [f(-r, x) 2^(7/6) r^(1/4) e^((2/3) r^(3/2) + x sqrt(r)) - 1] sqrt(r)
    # tends to F1(x) = -(1/2) int_{-inf}^x (u + 2 q^2) du, which behaves
    # like -1/(8x) far to the left
    r = 25.0
    psi = laxpair.solve_psi(-r, table)
    g = table.grid.nodes()
    q = table.q
    from_right = integral_from_right(g, g + 2.0 * q * q)
    # remainder below x_min: integrand ~ -1/(4u^2), integral = 1/(4 x_min)
    below = 1.0 / (4.0 * table.grid.x_min)
    f1_vals = -0.5 * (below + from_right[0] - from_right)
    for x_probe in (-6.0, -4.0, -2.0):
        i = int(np.argmin(np.abs(g - x_probe)))
        scaled = (psi.f[i] * 2.0 ** (7.0 / 6.0) * r**0.25
                  * math.exp(2.0 / 3.0 * r**1.5 + g[i] * math.sqrt(r)))
        correction = (scaled - 1.0) * math.sqrt(r)
        assert correction == pytest.approx(f1_vals[i], rel=0.10)
    # far-left behavior of F1 itself
    assert f1_vals[0] == pytest.approx(-1.0 / (8.0 * g[0]), rel=0.05)
