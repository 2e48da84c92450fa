"""Hastings-McLeod solution of Painleve II and the Tracy-Widom F2 CDF.

The table produced by :func:`solve_hastings_mcleod` carries q, q', the tail
integral R(x) = int_x^inf q^2, and F2 on a common grid.  It is the backbone
for the Lax-pair solves and every scaling-function integral downstream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_bvp

from . import airy as _airy
from .numerics import (AirySquaredTail, ExponentialTail, Grid, GridFunction,
                       ZETA_PRIME_MINUS_ONE, cumulative_tail_integral)

# Left tail amplitude of F2: tau2 = 2^(1/24) exp(zeta'(-1))
TAU_2 = 2.0 ** (1.0 / 24.0) * math.exp(ZETA_PRIME_MINUS_ONE)

#: the one table domain: x_max = 20 leaves DOS_MARGIN of Airy decay above
#: every r_tilde <= 16 of the density-of-states branch, and on it the BVP
#: converges at tol = 1e-10 with a ~60k-node mesh (on [-12, 10] it needs
#: ~424k nodes)
DEFAULT_DOMAIN = Grid(-12.0, 20.0, 6401)


@dataclass(frozen=True)
class PainleveTable:
    """Jointly tabulated (q, q', R, F2) on one grid.

    Invariants: q > 0; q'' = 2q^3 + x q; R = q'^2 - q^4 - x q^2;
    f2 non-decreasing with f2(x_max) = 1; R = f2'/f2.

    ``bvp_nodes`` is the size of the converged collocation mesh and
    ``bvp_tol`` the tolerance it converged at, which may be looser than the
    one requested (see :func:`solve_hastings_mcleod`).
    """

    grid: Grid
    q: GridFunction
    q_prime: GridFunction
    R: GridFunction
    f2: GridFunction
    bvp_nodes: int
    bvp_tol: float


def _left_asymptote(x):
    """q(x) for x -> -inf: sqrt(-x/2) (1 + 1/(8x^3))."""
    return np.sqrt(-x / 2.0) * (1.0 + 1.0 / (8.0 * x**3))


def solve_hastings_mcleod(domain: Grid = DEFAULT_DOMAIN,
                          tol: float = 1e-10) -> PainleveTable:
    """Solve q'' = 2q^3 + x q with q ~ Ai on the right and the
    sqrt(-x/2) branch on the left, by boundary-value collocation.

    Forward integration from x = +inf is exponentially unstable, so the
    problem is posed as a two-point BVP with the asymptotic forms as
    boundary values and a tanh blend of the two asymptotics as the
    initial guess.
    """
    x_min, x_max = domain.x_min, domain.x_max
    if x_min > -10.0 or x_max < 8.0:
        raise ValueError("domain must cover at least [-10, 8]")
    if tol < 1e-12:
        raise ValueError("tol below double-precision resolution")

    def rhs(x, y):
        return np.vstack([y[1], 2.0 * y[0] ** 3 + x * y[0]])

    def bc(ya, yb):
        return np.array([ya[0] - _left_asymptote(x_min),
                         yb[0] - _airy.airy(x_max).ai])

    x0 = np.linspace(x_min, x_max, 1601)
    w = 0.5 * (1.0 + np.tanh(-x0 / 2.0))
    left = _left_asymptote(np.where(x0 < 0, x0, -1.0))
    guess = w * np.where(x0 < 0, left, 0.0) + (1.0 - w) * _airy.ai_values(x0)
    y_guess = np.vstack([guess, np.gradient(guess, x0)])

    # mesh refinement at very tight tolerances can stall on roundoff while
    # the solution itself is converged; relax in decades before giving up
    sol = None
    for bvp_tol in (tol, 10.0 * tol, 100.0 * tol):
        sol = solve_bvp(rhs, bc, x0, y_guess, tol=bvp_tol,
                        max_nodes=500000)
        if sol.status == 0:
            break
    if sol.status != 0 or np.max(sol.rms_residuals) > 1e-8:
        raise RuntimeError(
            f"Hastings-McLeod BVP did not converge: {sol.message} "
            f"(max residual {np.max(sol.rms_residuals):.3e})")

    g = domain.nodes()
    q, qp = sol.sol(g)
    q_gf = GridFunction(domain, q, tail=AirySquaredTail())

    # R(x) = int_x^inf q^2 with the exact Airy-squared remainder
    q2 = GridFunction(domain, q * q, tail=AirySquaredTail())
    R = cumulative_tail_integral(q2)

    # log F2(x) = -int_x^inf R(u) du; R decays like Ai(x)^2, for which a
    # local exponential rate 2 sqrt(x_max) is accurate at the boundary.
    R_gf = GridFunction(domain, R.values,
                        tail=ExponentialTail(rate=2.0 * math.sqrt(x_max)))
    logf2 = cumulative_tail_integral(R_gf)
    f2 = np.exp(-logf2.values)

    return PainleveTable(grid=domain,
                         q=q_gf,
                         q_prime=GridFunction(domain, qp),
                         R=R,
                         f2=GridFunction(domain, f2),
                         bvp_nodes=int(sol.x.size),
                         bvp_tol=bvp_tol)


@functools.cache
def default_table() -> PainleveTable:
    """The canonical table on DEFAULT_DOMAIN, solved once per process
    (~1 s)."""
    return solve_hastings_mcleod(DEFAULT_DOMAIN)


def tracy_widom_f2_asymptote(x: float) -> float:
    """Left-tail closed form tau2 |x|^(-1/8) e^(-|x|^3/12) (1 + 3/(64|x|^3))."""
    ax = abs(x)
    return TAU_2 * ax ** (-0.125) * math.exp(-(ax**3) / 12.0) \
        * (1.0 + 3.0 / (64.0 * ax**3))


def tracy_widom_f2(table: PainleveTable, x: float) -> float:
    """F2(x) = exp(-int_x^inf (u - x) q(u)^2 du).

    Evaluated by direct tail-aware quadrature (independently of the
    tabulated f2 field, which integrates R instead).  Left of the table
    domain the asymptotic closed form takes over.
    """
    x_max = table.grid.x_max
    if x < table.grid.x_min:
        return tracy_widom_f2_asymptote(x)
    if x >= x_max:
        return 1.0
    qs = table.q.spline()
    val, _ = quad(lambda u: (u - x) * qs(u) ** 2, x, x_max,
                  epsabs=1e-13, epsrel=1e-12, limit=300)
    # remainder beyond x_max with the Airy model for q
    rem, _ = quad(lambda u: (u - x) * _airy.ai_values(np.array(u)) ** 2
                  * (table.q.values[-1] / _airy.airy(x_max).ai) ** 2,
                  x_max, x_max + 20.0, epsabs=1e-300, epsrel=1e-10)
    return math.exp(-(val + rem))


_CBRT2 = 2.0 ** (1.0 / 3.0)


def q_half(table: PainleveTable, s: float) -> float:
    """Painleve II alpha = 1/2 transcendent via the quotient formula
    q_half(s) = -2^(-1/3) q'(x)/q(x) at x = -2^(-1/3) s."""
    x = -s / _CBRT2
    if not table.grid.x_min <= x <= table.grid.x_max:
        raise ValueError("argument maps outside the table domain")
    return -table.q_prime(x) / (_CBRT2 * table.q(x))


def q_half_prime(table: PainleveTable, s: float) -> float:
    """d q_half / ds, obtained by differentiating the quotient formula and
    eliminating q'' through the Painleve II equation:
    q_half'(s) = 2^(-2/3) (2 q^2 + x - (q'/q)^2) at x = -2^(-1/3) s."""
    x = -s / _CBRT2
    q = table.q(x)
    qp = table.q_prime(x)
    return (2.0 * q * q + x - (qp / q) ** 2) / _CBRT2**2


def check_appendix_a_identities(table: PainleveTable,
                                s_values=None) -> dict:
    """Residuals of the two quadratic identities tying q_half to q and R:

      q_half^2 + q_half' + s/2 = 2^(1/3) q(x)^2
     -q_half^2 + q_half' - s/2 = -2^(1/3) R(x)/q(x)^2,    x = -2^(-1/3) s.

    Returns max-norm residuals over the sampled overlap domain.
    """
    if s_values is None:
        s_values = np.linspace(-6.0, 6.0, 241)
    s_values = np.asarray(s_values, dtype=float)
    lo, hi = -_CBRT2 * table.grid.x_max, -_CBRT2 * table.grid.x_min
    s_values = s_values[(s_values >= lo) & (s_values <= hi)]
    if s_values.size == 0:
        raise ValueError("no overlap between s range and table domain")
    res1 = np.empty(s_values.size)
    res2 = np.empty(s_values.size)
    for i, s in enumerate(s_values):
        x = -s / _CBRT2
        qh = q_half(table, s)
        qhp = q_half_prime(table, s)
        q = table.q(x)
        res1[i] = qh * qh + qhp + s / 2.0 - _CBRT2 * q * q
        res2[i] = -qh * qh + qhp - s / 2.0 + _CBRT2 * table.R(x) / (q * q)
    return {
        "s_values": s_values,
        "residual_1": res1,
        "residual_2": res2,
        "max_residual_1": float(np.max(np.abs(res1))),
        "max_residual_2": float(np.max(np.abs(res2))),
    }


def a2_integral(table: PainleveTable) -> float:
    """int [ (q' + qR)^2 - (q^2 - R^2)^2 / 4 ] F2 dx, identically 1/2.

    This is the quadratic coefficient of the edge density of states at
    small scaled distance (before the overall 1/2 from symmetrization),
    and a sharp end-to-end check of the whole table.
    """
    g = table.grid.nodes()
    q, qp, R, f2 = (table.q.values, table.q_prime.values,
                    table.R.values, table.f2.values)
    integrand = ((qp + q * R) ** 2 - 0.25 * (q * q - R * R) ** 2) * f2
    from .numerics import segment_integrals
    return float(np.sum(segment_integrals(g, integrand)))
