"""Psi-functions (f, g) of the Painleve XXXIV Lax pair at spectral
parameter r_tilde.

f solves the Schrodinger-type equation d^2f/dx^2 = (x + 2q^2 - r) f with
f ~ 2^(-1/6) sqrt(pi) Ai(x - r) for x -> +inf; g follows from the integral
relation q g = -r int_x^inf q f.  Positive r is the density-of-states
branch (f oscillates for x < r), negative r the first-gap branch (f decays
everywhere).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airy import ai_pair
from .numerics import (AiryProductTail, derivative, hermite,
                       integral_from_right)
# not called here: perfbench/tracing.py looks up `laxpair.integrate_ode` by
# name at start-up, so the name stays importable from this module
from .numerics import integrate_ode  # noqa: F401
from .painleve import PainleveTable

#: amplitude of the Airy seed, 2^(-1/6) sqrt(pi)
SEED_AMPLITUDE = 2.0 ** (-1.0 / 6.0) * math.sqrt(math.pi)

#: gap-branch r below which f underflows double precision
GAP_R_MAX = 30.0

#: minimal Airy-decay margin x_max - r for the oscillatory branch
DOS_MARGIN = 4.0

#: how f is computed, recorded in the CSV headers
PSI_SCHEME = ("Numerov downward from x_max on h and h/2, "
              "Richardson-extrapolated (16 f_h/2 - f_h)/15; "
              "q at the h/2 midpoints by cubic Hermite from q, q'")

# nodes where q has decayed below this are excluded from ratio-type
# residual diagnostics (q'/q, R/q^2 are roundoff-dominated there)
_Q_FLOOR = 1e-4


@dataclass(frozen=True)
class PsiPair:
    """Lax-pair solution at one spectral parameter: one array each, one
    value per node of the table grid.

    ``qf_integral`` tabulates I(x) = int_x^inf q f, from which
    g = -r_tilde * I / q.
    """

    r_tilde: float
    f: np.ndarray
    g: np.ndarray
    table: PainleveTable
    f_prime: np.ndarray
    qf_integral: np.ndarray

    def __post_init__(self):
        self.table.grid.check(f=self.f, g=self.g, f_prime=self.f_prime,
                              qf_integral=self.qf_integral)


def _numerov_down(x: np.ndarray, q2: np.ndarray,
                  r: np.ndarray) -> np.ndarray:
    """f'' = (x + 2q^2 - r) f on the uniform nodes x, one column per r,
    marched downward from the Airy seed at the top two nodes.

    With A = 1 - h^2 V / 12 and u = A f, Numerov's recurrence reads
    u[i-1] = (12 / A[i] - 10) u[i] - u[i+1].
    """
    h = x[1] - x[0]
    a = 1.0 - h * h / 12.0 * ((x + 2.0 * q2)[:, None] - r)
    c = 12.0 / a - 10.0
    u = np.empty_like(a)
    u[-2:] = SEED_AMPLITUDE * ai_pair(x[-2:, None] - r)[0] * a[-2:]
    for i in range(x.size - 2, 0, -1):
        np.multiply(c[i], u[i], out=u[i - 1])
        u[i - 1] -= u[i + 1]
    u /= a
    return u


def solve_psi_batch(r_values, table: PainleveTable):
    """f and I(x) = int_x^inf q f on the table grid at every spectral
    parameter in ``r_values``; each is an (n_points, len(r_values)) array
    with one column per r.

    f is marched downward from x_max, the stable direction: the Bi-type
    admixture of the Airy seed decays relative to the Ai-type branch as x
    decreases.  The seed 2^(-1/6) sqrt(pi) Ai(x - r) is exact at the top
    nodes to 2q(x_max)^2 (~1e-52 on the canonical table).  Numerov is run on
    the table grid (step h) and on its halving, and the two are
    Richardson-combined: plain Numerov at h = 0.005 misses
    f(r = 0) = 2^(-1/6) sqrt(pi) q by 4.5e-8, the combination by ~4e-9.
    q at the half-grid midpoints is the cubic Hermite interpolant of the
    table's q and q'.
    """
    r = np.atleast_1d(np.asarray(r_values, dtype=float))
    grid = table.grid
    x_max = grid.x_max
    if np.any(r > x_max - DOS_MARGIN):
        raise ValueError(
            f"r_tilde={r.max()} leaves less than {DOS_MARGIN} of Airy decay "
            f"below x_max={x_max}")
    if np.any(r < -GAP_R_MAX):
        raise ValueError(
            f"gap branch limited to r_tilde >= -{GAP_R_MAX}: f underflows "
            "double precision; use the asymptotic formulas instead")

    x = grid.nodes()
    q = table.q
    x_half = np.linspace(grid.x_min, x_max, 2 * grid.n_points - 1)
    q_half = hermite(grid, q, table.q_prime, x_half)
    f_h = _numerov_down(x, q * q, r)
    f = _numerov_down(x_half, q_half * q_half, r)[::2]
    f *= 16.0 / 15.0
    f -= f_h / 15.0

    qf = q[:, None] * f
    remainder = [AiryProductTail(ri).remainder(x_max, v)
                 for ri, v in zip(r, qf[-1])]
    qf_integral = integral_from_right(x, qf) + np.array(remainder)
    return f, qf_integral


def solve_psi(r_tilde: float, table: PainleveTable) -> PsiPair:
    """The pair (f, g) at one spectral parameter: f from
    :func:`solve_psi_batch`, g from the integral relation, and
    f' = f'(x_max) - int_x^{x_max} (u + 2q^2 - r) f du."""
    f, qf_integral = (v[:, 0] for v in solve_psi_batch([r_tilde], table))
    grid = table.grid
    x, q = grid.nodes(), table.q
    fp = (SEED_AMPLITUDE * ai_pair(grid.x_max - r_tilde)[1]
          - integral_from_right(x, (x + 2.0 * q * q - r_tilde) * f))
    g_vals = -r_tilde * qf_integral / q
    # zero-tail convention: g vanishes at the right end of the table
    g_vals[-1] = 0.0

    return PsiPair(r_tilde=r_tilde, f=f, g=g_vals, table=table, f_prime=fp,
                   qf_integral=qf_integral)


def _diagnostic_window(table: PainleveTable) -> np.ndarray:
    q = table.q
    ok = q > _Q_FLOOR * np.max(q)
    ok[0] = ok[-1] = False
    return ok


def psi_residuals(psi: PsiPair) -> dict:
    """Per-node residual diagnostics for one PsiPair:

    - ``schrod``: f'' - (x + 2q^2 - r) f  (second-difference form)
    - ``conserved``: d/dx [ (r + R/q^2) f^2 - 2 (q'/q) f g
      + (1 + q^2/r) g^2 ] + f^2  (the conserved combination; r != 0)

    Ratio-type quantities are evaluated only where q is comfortably above
    underflow; residuals are max-norms over that window.
    """
    table = psi.table
    x, h = table.grid.nodes(), table.grid.h
    q, qp, R = table.q, table.q_prime, table.R
    f, gv, r = psi.f, psi.g, psi.r_tilde

    # fourth-order five-point second derivative so the stencil truncation
    # error stays well below the 1e-5 residual scale
    fdd = (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2] + 16.0 * f[1:-3]
           - f[:-4]) / (12.0 * h**2)
    schrod = fdd - (x[2:-2] + 2.0 * q[2:-2] ** 2 - r) * f[2:-2]
    scale = max(1.0, float(np.max(np.abs(f))))
    out = {"schrod": float(np.max(np.abs(schrod))) / scale}

    if r != 0.0:
        ok = _diagnostic_window(table)
        combo = ((r + R / q**2) * f**2 - 2.0 * (qp / q) * f * gv
                 + (1.0 + q**2 / r) * gv**2)
        res = derivative(x, combo) + f * f
        out["conserved"] = float(np.max(np.abs(res[ok]))) / scale**2
    return out


def small_r_expansion(table: PainleveTable):
    """Coefficient functions of f(r, x) = f0(x) + r f1(x) + r^2 f2(x) + ...

    f0 = 2^(-1/6) sqrt(pi) q
    f1 = -2^(-1/6) sqrt(pi) (q' + q R)
    f2 = 2^(-7/6) sqrt(pi) (q'^2/q + q' R - R/q - q^3/2 + q R^2 / 2)
    """
    q, qp, R = table.q, table.q_prime, table.R
    c = SEED_AMPLITUDE
    f0 = c * q
    f1 = -c * (qp + q * R)
    f2 = 0.5 * c * (qp**2 / q + qp * R - R / q - q**3 / 2.0 + q * R**2 / 2.0)
    return f0, f1, f2


def lax_residuals(psi: PsiPair, psi_shifted: PsiPair) -> dict:
    """Max-norm residuals of the two linear systems the pair satisfies.

    x-system (checked exactly, node by node):
        df/dx = (q'/q) f - g
        dg/dx = r f - (q'/q) g
    r-system (d/dr via finite difference between the two solves):
        df/dr = -(q'/q) f + (1 + q^2/r) g
        dg/dr = (-r - R/q^2) f + (q'/q) g
    """
    if psi.table is not psi_shifted.table:
        raise ValueError("both pairs must live on the same table")
    r = psi.r_tilde
    delta = psi_shifted.r_tilde - r
    if r == 0.0:
        raise ValueError("r-system coefficients are singular at r = 0")

    table = psi.table
    ok = _diagnostic_window(table)
    q, qp, R = table.q, table.q_prime, table.R
    f, gv, fp = psi.f, psi.g, psi.f_prime
    gp = derivative(table.grid.nodes(), gv)
    scale = max(1.0, float(np.max(np.abs(f))))

    res_bf = fp - (qp / q) * f + gv
    res_bg = gp - r * f + (qp / q) * gv
    b_res = max(np.max(np.abs(res_bf[ok])), np.max(np.abs(res_bg[ok])))

    # centered difference: the mirror pair at r - delta is solved here
    psi_minus = solve_psi(r - delta, table)
    dfdr = (psi_shifted.f - psi_minus.f) / (2.0 * delta)
    dgdr = (psi_shifted.g - psi_minus.g) / (2.0 * delta)
    res_af = dfdr + (qp / q) * f - (1.0 + q**2 / r) * gv
    res_ag = dgdr - (-r - R / q**2) * f - (qp / q) * gv
    a_res = max(np.max(np.abs(res_af[ok])), np.max(np.abs(res_ag[ok])))

    return {"b_residual": float(b_res) / scale,
            "a_residual": float(a_res) / scale}
