"""Psi-functions (f, g) of the Painleve XXXIV Lax pair at spectral
parameter r_tilde.

f solves the Schrodinger-type equation d^2f/dx^2 = (x + 2q^2 - r) f with
f ~ 2^(-1/6) sqrt(pi) Ai(x - r) for x -> +inf; g follows from the integral
relation q g = -r int_x^inf q f.  Positive r is the density-of-states
branch (f oscillates for x < r), negative r the first-gap branch (f decays
everywhere).  The density-of-states branch is bounded by the seed alone,
x - r >= airy.X_MIN at the top two nodes: r <= 79.995 on the default table.

:func:`psi_blocks` marches f for many r at once and hands it out, with
I = int_x^inf q f, in row blocks from x_max down, as the edge integral
consumes them, so that no array of the whole grid need exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airy import X_MIN, ai_pair
from .numerics import (AiryProductTail, RightIntegral, derivative, hermite,
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

# lax_residuals leaves out the nodes where q is below _Q_FLOOR max q: its
# ratio-type terms q'/q and R/q^2 are roundoff-dominated there
_Q_FLOOR = 1e-4

#: spectral-parameter step of the centred r-difference in lax_residuals
LAX_DELTA = 1e-4

# table-grid rows per block of the march; the half grid takes twice as many
_BLOCK = 128


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


def _numerov_down(x: np.ndarray, q2: np.ndarray, r: np.ndarray, rows: int,
                  stride: int = 1):
    """f'' = (x + 2q^2 - r) f on the uniform nodes x, one column per r,
    marched downward from the Airy seed at the top two nodes: a generator
    of (nodes, f) for each block of ``rows`` nodes from the top down, f at
    the block's nodes that are multiples of ``stride``, in ascending order,
    and ``nodes`` the slice of node indices divided by stride.

    With A = 1 - h^2 V / 12 and u = A f, Numerov's recurrence reads
    u[i-1] = (12 / A[i] - 10) u[i] - u[i+1].  u runs through a buffer of
    rows + 2 rows, the block's nodes and the two above it, and A is built
    for one block at a time; the block's two lowest rows carry into the
    next.
    """
    h, n = x[1] - x[0], x.size
    buf = np.empty((rows + 2, r.size))
    u, multiply, subtract = list(buf), np.multiply, np.subtract

    def coefficient(nodes: slice) -> np.ndarray:
        return 1.0 - h * h / 12.0 * ((x[nodes] + 2.0 * q2[nodes])[:, None] - r)

    # buf[j] is node lo + j; c[j] belongs to node lo + 1 + j
    for hi in range(n - 1, -1, -rows):
        lo = max(hi - rows + 1, 0)
        m = hi - lo + 1
        if hi == n - 1:
            top = slice(n - 2, n)
            buf[m - 2:m] = (SEED_AMPLITUDE * ai_pair(x[top, None] - r)[0]
                            * coefficient(top))
            start = m - 3
        else:
            buf[m:m + 2] = buf[:2]
            start = m - 1
        c = list(12.0 / coefficient(slice(lo + 1, lo + start + 2)) - 10.0)
        for j in range(start, -1, -1):
            multiply(c[j], u[j + 1], u[j])
            subtract(u[j], u[j + 2], u[j])
        first = lo + -lo % stride
        yield (slice(first // stride, hi // stride + 1),
               buf[first - lo:m:stride]
               / coefficient(slice(first, hi + 1, stride)))


def check_range(r: np.ndarray, table: PainleveTable) -> None:
    """Refuse spectral parameters outside what the psi solve reaches: the
    density of states while its Airy seed is within airy.X_MIN, the gap
    while f stays above double-precision underflow."""
    top = table.grid.nodes()[-2]  # the seed's lowest point is x[-2] - r
    if np.any(r > top - X_MIN):
        raise ValueError(
            f"the density of states reaches r_tilde = {top - X_MIN:g}, not "
            f"{r.max():g}: its Airy seed needs x - r_tilde >= {X_MIN:g}")
    if np.any(r < -GAP_R_MAX):
        raise ValueError(
            f"the gap PDF reaches r_tilde = {GAP_R_MAX:g}, not {-r.min():g}: "
            "f underflows double precision; use gap_tail_asymptotic instead")


def psi_blocks(r_values, table: PainleveTable):
    """f and I = int_x^inf q f on the table grid at every spectral parameter
    in ``r_values``, one column per r: a generator of (rows, f, I) from x_max
    down, f and I at the table nodes ``rows`` (a slice, ascending).  Each
    yielded f and I is a fresh array that the caller may overwrite.

    f is marched downward from x_max, the stable direction: the Bi-type
    admixture of the Airy seed decays relative to the Ai-type branch as x
    decreases.  The seed 2^(-1/6) sqrt(pi) Ai(x - r) is exact at the top
    nodes to 2q(x_max)^2 (~1e-52 on the canonical table).  Numerov is run on
    the table grid (step h) and on its halving, in lockstep, a block of
    2 _BLOCK half-grid nodes with one of _BLOCK table nodes, and each pair
    folds at once into the Richardson combination (16 f_h/2 - f_h) / 15:
    plain Numerov at h = 0.005 misses f(r = 0) = 2^(-1/6) sqrt(pi) q by
    4.5e-8, the combination by ~4e-9.  q at the half-grid midpoints is the
    cubic Hermite interpolant of the table's q and q'.

    I is the right-anchored rule of one :class:`RightIntegral` on q f plus
    the Airy-product tails beyond x_max, all of them from one Airy
    evaluation.  Its end correction needs the rows below a block, so each
    block comes out one march block late.  No array of the whole grid is
    held; ``r_values`` is range checked first.
    """
    r = np.atleast_1d(np.asarray(r_values, dtype=float))
    check_range(r, table)
    grid, q = table.grid, table.q
    x_half = np.linspace(grid.x_min, grid.x_max, 2 * grid.n_points - 1)
    q_half = hermite(grid, q, table.q_prime, x_half)
    half = _numerov_down(x_half, q_half * q_half, r, 2 * _BLOCK, stride=2)
    whole = _numerov_down(grid.nodes(), q * q, r, _BLOCK)
    big_i, held = RightIntegral(grid.nodes()), None
    for (rows, f), (_, f_h) in zip(half, whole, strict=True):
        f *= 16.0 / 15.0
        f -= f_h / 15.0
        qf = q[rows, None] * f
        grid_part = big_i.feed(qf)
        if held is None:
            tail = AiryProductTail(r).remainder(grid.x_max, qf[-1])
        else:
            grid_part += tail
            yield *held, grid_part
        held = rows, f
    grid_part = big_i.close()
    grid_part += tail
    yield *held, grid_part


def solve_psi(r_tilde: float, table: PainleveTable) -> PsiPair:
    """The pair (f, g) at one spectral parameter: f and I from
    :func:`psi_blocks`, g = -r I / q from the integral relation, and
    f' = f'(x_max) - int_x^{x_max} (u + 2q^2 - r) f du."""
    grid = table.grid
    x, q = grid.nodes(), table.q
    f, big_i = np.empty(grid.n_points), np.empty(grid.n_points)
    for rows, f_block, i_block in psi_blocks([r_tilde], table):
        f[rows], big_i[rows] = f_block[:, 0], i_block[:, 0]
    # + 0.0 turns the -0.0 of r_tilde = 0 into 0.0
    g_vals = -r_tilde * big_i / q + 0.0
    # zero-tail convention: g vanishes at the right end of the table
    g_vals[-1] = 0.0
    fp = (SEED_AMPLITUDE * ai_pair(grid.x_max - r_tilde)[1]
          - integral_from_right(x, (x + 2.0 * q * q - r_tilde) * f))

    return PsiPair(r_tilde=r_tilde, f=f, g=g_vals, table=table, f_prime=fp)


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
    """Max-norm residuals of the relations the pair satisfies, each divided
    by max(1, max|f|), ``conserved`` by its square:

    - ``b_residual``, the x-system (checked exactly, node by node):
        df/dx = (q'/q) f - g
        dg/dx = r f - (q'/q) g
    - ``a_residual``, the r-system (d/dr by a centred difference between
      the pairs solved here at r +- LAX_DELTA):
        df/dr = -(q'/q) f + (1 + q^2/r) g
        dg/dr = (-r - R/q^2) f + (q'/q) g
    - ``schrod``, the Schrodinger equation f'' = (x + 2q^2 - r) f, f'' by
      the five-point second difference, on the interior nodes;
    - ``conserved``, the conserved combination:
        d/dx [(r + R/q^2) f^2 - 2 (q'/q) f g + (1 + q^2/r) g^2] + f^2 = 0

    All but ``schrod`` are taken where q > _Q_FLOOR max q, end nodes
    excluded.  The r-system is singular at r = 0, which raises ValueError.
    """
    r = psi.r_tilde
    if r == 0.0:
        raise ValueError("r-system coefficients are singular at r = 0")

    table = psi.table
    x, h = table.grid.nodes(), table.grid.h
    q, qp, R = table.q, table.q_prime, table.R
    f, gv, fp = psi.f, psi.g, psi.f_prime
    ok = q > _Q_FLOOR * np.max(q)
    ok[0] = ok[-1] = False
    scale = max(1.0, float(np.max(np.abs(f))))

    gp = derivative(x, gv)
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

    # fourth-order five-point second derivative so the stencil truncation
    # error stays well below the 1e-5 residual scale
    fdd = (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2] + 16.0 * f[1:-3]
           - f[:-4]) / (12.0 * h**2)
    schrod = fdd - (x[2:-2] + 2.0 * q[2:-2] ** 2 - r) * f[2:-2]

    combo = ((r + R / q**2) * f**2 - 2.0 * (qp / q) * f * gv
             + (1.0 + q**2 / r) * gv**2)
    conserved = derivative(x, combo) + f * f

    return {"b_residual": float(b_res) / scale,
            "a_residual": float(a_res) / scale,
            "schrod": float(np.max(np.abs(schrod))) / scale,
            "conserved": float(np.max(np.abs(conserved[ok]))) / scale**2}
