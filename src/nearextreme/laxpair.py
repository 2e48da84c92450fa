"""Psi-functions (f, g) of the Painleve XXXIV Lax pair at spectral
parameter r_tilde.

f solves the Schrodinger-type equation d^2f/dx^2 = (x + 2q^2 - r) f with
f ~ 2^(-1/6) sqrt(pi) Ai(x - r) for x -> +inf; g follows from the integral
relation q g = -r int_x^inf q f.  Positive r is the density-of-states
branch (f oscillates for x < r), negative r the first-gap branch (f decays
everywhere).  The density-of-states branch is bounded by the seed alone,
x - r >= airy.X_MIN at the top two nodes: r <= 79.995 on the default table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airy import X_MIN, ai_pair
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

#: how f is computed, recorded in the CSV headers
PSI_SCHEME = ("Numerov downward from x_max on h and h/2, "
              "Richardson-extrapolated (16 f_h/2 - f_h)/15; "
              "q at the h/2 midpoints by cubic Hermite from q, q'")

# nodes where q has decayed below this are excluded from ratio-type
# residual diagnostics (q'/q, R/q^2 are roundoff-dominated there)
_Q_FLOOR = 1e-4

#: spectral-parameter step of the centred r-difference in lax_residuals
LAX_DELTA = 1e-4

# rows of Numerov coefficients built at a time
_BLOCK = 512
#: columns (spectral parameters) at a time of the work after the march,
#: which runs over every column at once, since its cost is per node
COLUMN_CHUNK = 4


@dataclass(frozen=True)
class PsiPair:
    """Lax-pair solution at one spectral parameter: one array each, one
    value per node of the table grid."""

    r_tilde: float
    f: np.ndarray
    g: np.ndarray
    table: PainleveTable
    f_prime: np.ndarray

    def __post_init__(self):
        self.table.grid.check(f=self.f, g=self.g, f_prime=self.f_prime)


def _numerov_down(x: np.ndarray, q2: np.ndarray, r: np.ndarray,
                  stride: int = 1) -> np.ndarray:
    """f'' = (x + 2q^2 - r) f on the uniform nodes x, one column per r,
    marched downward from the Airy seed at the top two nodes; f at every
    stride-th node from x[0] (stride 1 or 2).

    With A = 1 - h^2 V / 12 and u = A f, Numerov's recurrence reads
    u[i-1] = (12 / A[i] - 10) u[i] - u[i+1].  u is kept at the returned
    nodes only, the others in two spare rows (each is read in the next two
    steps only), and A is built _BLOCK rows at a time.
    """
    h, n = x[1] - x[0], x.size
    u = np.empty(((n - 1) // stride + 1, r.size))
    spare = np.empty((2, r.size))

    def coefficient(rows: slice) -> np.ndarray:
        return 1.0 - h * h / 12.0 * ((x[rows] + 2.0 * q2[rows])[:, None] - r)

    def row(i: int) -> np.ndarray:
        return u[i // stride] if i % stride == 0 else spare[i // 2 % 2]

    top = slice(n - 2, n)
    seed = SEED_AMPLITUDE * ai_pair(x[top, None] - r)[0] * coefficient(top)
    row(n - 2)[...], row(n - 1)[...] = seed
    # one block writes u at nodes hi - 2 down to lo - 1; rows[j] is node
    # lo - 1 + j, and c[j] belongs to node lo + j
    for hi in range(n - 1, 1, -_BLOCK):
        lo = max(hi - _BLOCK, 1)
        c = 12.0 / coefficient(slice(lo, hi)) - 10.0
        rows = [row(i) for i in range(lo - 1, hi + 1)]
        for j in range(hi - lo - 1, -1, -1):
            np.multiply(c[j], rows[j + 1], out=rows[j])
            rows[j] -= rows[j + 2]
    for k in range(0, u.shape[0], _BLOCK):
        u[k:k + _BLOCK] /= coefficient(
            slice(k * stride, (k + _BLOCK - 1) * stride + 1, stride))
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
    The solve holds two such arrays, f on h and on h/2 (its even rows);
    the rest runs COLUMN_CHUNK columns at a time.
    """
    r = np.atleast_1d(np.asarray(r_values, dtype=float))
    grid = table.grid
    x, x_max = grid.nodes(), grid.x_max
    if np.any(r > x[-2] - X_MIN):  # the seed's lowest point is x[-2] - r
        raise ValueError(
            f"the density of states reaches r_tilde = {x[-2] - X_MIN:g}, not "
            f"{r.max():g}: its Airy seed needs x - r_tilde >= {X_MIN:g}")
    if np.any(r < -GAP_R_MAX):
        raise ValueError(
            f"the gap PDF reaches r_tilde = {GAP_R_MAX:g}, not {-r.min():g}: "
            "f underflows double precision; use gap_tail_asymptotic instead")

    q = table.q
    x_half = np.linspace(grid.x_min, x_max, 2 * grid.n_points - 1)
    q_half = hermite(grid, q, table.q_prime, x_half)
    f_h = _numerov_down(x, q * q, r)
    f = _numerov_down(x_half, q_half * q_half, r, stride=2)
    # once a column chunk of f_h has entered the Richardson combination,
    # its storage takes that chunk of I
    qf_integral = f_h
    for j in range(0, r.size, COLUMN_CHUNK):
        cols = slice(j, j + COLUMN_CHUNK)
        fc = f[:, cols]
        fc *= 16.0 / 15.0
        fc -= f_h[:, cols] / 15.0
        qf = q[:, None] * fc
        remainder = [AiryProductTail(ri).remainder(x_max, v)
                     for ri, v in zip(r[cols], qf[-1])]
        qf_integral[:, cols] = integral_from_right(x, qf) + np.array(remainder)
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

    return PsiPair(r_tilde=r_tilde, f=f, g=g_vals, table=table, f_prime=fp)


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


def lax_residuals(psi: PsiPair) -> dict:
    """Max-norm residuals of the two linear systems the pair satisfies.

    x-system (checked exactly, node by node):
        df/dx = (q'/q) f - g
        dg/dx = r f - (q'/q) g
    r-system (d/dr by a centred difference between the pairs solved here
    at r +- LAX_DELTA):
        df/dr = -(q'/q) f + (1 + q^2/r) g
        dg/dr = (-r - R/q^2) f + (q'/q) g
    """
    r = psi.r_tilde
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

    # the step as rounded, so that r + delta is exactly r + LAX_DELTA
    delta = (r + LAX_DELTA) - r
    plus, minus = (solve_psi(r + s, table) for s in (delta, -delta))
    dfdr = (plus.f - minus.f) / (2.0 * delta)
    dgdr = (plus.g - minus.g) / (2.0 * delta)
    res_af = dfdr + (qp / q) * f - (1.0 + q**2 / r) * gv
    res_ag = dgdr - (-r - R / q**2) * f - (qp / q) * gv
    a_res = max(np.max(np.abs(res_af[ok])), np.max(np.abs(res_ag[ok])))

    return {"b_residual": float(b_res) / scale,
            "a_residual": float(a_res) / scale}
