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

from .airy import ai_pair
from .numerics import (AiryProductTail, Grid, ZETA_PRIME_MINUS_ONE,
                       _airy_tail_moments, derivative, gauss_legendre,
                       hermite, integral_from_right)

# Left tail amplitude of F2: tau2 = 2^(1/24) exp(zeta'(-1))
TAU_2 = 2.0 ** (1.0 / 24.0) * math.exp(ZETA_PRIME_MINUS_ONE)

#: the one table domain: beyond x_max = 20, q is Ai to a relative 2 q^2 ~
#: 1e-53, and the density of states reaches r_tilde = x_max - airy.X_MIN
DEFAULT_DOMAIN = Grid(-12.0, 20.0, 6401)

# Newton converges quadratically here: an update of size d is followed by
# one of about 1.5 d^2 (4e-2, 7e-4, 7.5e-7, 8e-13 on the table grid), so
# after an update below 1e-10 the next would be below roundoff (~1e-14)
_LAST_UPDATE = 1e-10

#: how q is computed, recorded in the CSV headers
TABLE_SCHEME = "Newton-Numerov on h and h/2 with Richardson"


@dataclass(frozen=True)
class PainleveTable:
    """Jointly tabulated (q, q', R, F2): one array each, one value per node
    of ``grid``.  :func:`table_residuals` measures their invariants.

    ``newton_steps`` and ``residual`` are the Newton step count and the
    largest Numerov residual over the two solves (h and h/2).
    """

    grid: Grid
    q: np.ndarray
    q_prime: np.ndarray
    R: np.ndarray
    f2: np.ndarray
    newton_steps: int
    residual: float

    def __post_init__(self):
        self.grid.check(q=self.q, q_prime=self.q_prime, R=self.R, f2=self.f2)

    def at(self, x):
        """(q, q', R, F2) at x, each the cubic Hermite interpolant on its
        exact slope: q', 2q^3 + x q, -q^2 and R F2.  Off the grid it
        raises ValueError."""
        q, qp, R, f2 = self.q, self.q_prime, self.R, self.f2
        slopes = (qp, (2.0 * q * q + self.grid.nodes()) * q, -q * q, R * f2)
        return tuple(hermite(self.grid, v, d, x)
                     for v, d in zip((q, qp, R, f2), slopes))


def _left_asymptote(x):
    """q(x) for x -> -inf: sqrt(-x/2) (1 + 1/(8x^3))."""
    return np.sqrt(-x / 2.0) * (1.0 + 1.0 / (8.0 * x**3))


def _cyclic_reduction(a, b, c, d):
    """x with a[i] x[i-1] + b[i] x[i] + c[i] x[i+1] = d[i] for every i,
    a[0] = c[-1] = 0.  Each level eliminates the odd unknowns from the
    even rows, which leaves a tridiagonal system of half the size."""
    if b.size == 1:
        return d / b
    ae, be, ce, de = a[::2], b[::2].copy(), c[::2], d[::2].copy()
    ao, bo, co, do = a[1::2], b[1::2], c[1::2], d[1::2]
    # even row j couples to odd rows j - 1 (for j >= 1) and j (for j < m)
    m, k = bo.size, be.size - 1
    below, above = -ae[1:] / bo[:k], -ce[:m] / bo
    be[1:] += below * co[:k]
    be[:m] += above * ao
    de[1:] += below * do[:k]
    de[:m] += above * do
    xe = _cyclic_reduction(np.concatenate(([0.0], below * ao[:k])), be,
                           np.concatenate((above * co, [0.0]))[:k + 1], de)
    x = np.empty_like(d)
    x[::2] = xe
    x[1::2] = (do - ao * xe[:m] - co * np.append(xe[1:], 0.0)[:m]) / bo
    return x


def _newton_numerov(x: np.ndarray, q: np.ndarray):
    """Newton on Numerov's scheme for q'' = F = 2q^3 + x q on uniform nodes
    x, q[0] and q[-1] held fixed.  Returns q, the step count and the max
    residual of q[i+1] - 2q[i] + q[i-1] - h^2/12 (F[i+1] + 10F[i] + F[i-1])
    at the returned q.  The Jacobian is tridiagonal and diagonally dominant
    (6q^2 + x > 0 on the table), so cyclic reduction solves it without
    pivoting.  Newton stops after an update below _LAST_UPDATE: the next
    one would be roundoff.  A non-finite iterate raises RuntimeError."""
    c = (x[1] - x[0]) ** 2 / 12.0
    q = q.copy()
    steps, size = 0, math.inf
    while True:
        force = (2.0 * q * q + x) * q
        res = (q[2:] - 2.0 * q[1:-1] + q[:-2]
               - c * (force[2:] + 10.0 * force[1:-1] + force[:-2]))
        if not np.all(np.isfinite(res)):
            raise RuntimeError(
                f"Newton did not converge on [{x[0]:g}, {x[-1]:g}] with "
                f"{x.size} nodes: not finite after step {steps} (last "
                f"update {size:.3e})")
        if size <= _LAST_UPDATE or steps == 100:
            return q, steps, float(np.max(np.abs(res)))
        # row i (node i + 1) takes off[i], 10 off[i + 1] - 12 and
        # off[i + 2] times the updates at nodes i, i + 1 and i + 2; the end
        # nodes are held fixed, so off[0] and off[-1] drop out
        off = 1.0 - c * (6.0 * q * q + x)
        diagonal = 10.0 * off[1:-1] - 12.0
        off[0] = off[-1] = 0.0
        dq = _cyclic_reduction(off[:-2], diagonal, off[2:], res)
        q[1:-1] -= dq
        size = float(np.max(np.abs(dq)))
        steps += 1


def solve_hastings_mcleod(domain: Grid = DEFAULT_DOMAIN) -> PainleveTable:
    """Solve q'' = 2q^3 + x q with q ~ Ai on the right and the
    sqrt(-x/2) branch on the left, by Newton on Numerov's scheme.

    Forward integration from x = +inf is exponentially unstable, so q is
    held at the left asymptote at x_min and at Ai(x_max) at x_max, and the
    whole grid is solved at once from the guess max(Ai(x), sqrt(-x/2)): on
    the table grid (step h), then on its halving, Richardson-combined as in
    :func:`laxpair.psi_blocks`.  A Numerov residual above 1e-12 raises
    RuntimeError.  q' = Ai'(x_max) - int_x^{x_max} (2q^3 + u q) du.
    """
    x_min, x_max = domain.x_min, domain.x_max
    if x_min > -10.0 or x_max < 8.0:
        raise ValueError("domain must cover at least [-10, 8]")

    x = domain.nodes()
    x_fine = np.linspace(x_min, x_max, 2 * domain.n_points - 1)
    guess = np.maximum(ai_pair(x)[0], np.sqrt(np.maximum(-x, 0.0) / 2.0))
    ai_max, aip_max = ai_pair(x_max)
    guess[0], guess[-1] = _left_asymptote(x_min), ai_max
    q_h, steps_h, res_h = _newton_numerov(x, guess)
    q_fine, steps_fine, res_fine = _newton_numerov(
        x_fine, np.interp(x_fine, x, q_h))
    residual = float(np.maximum(res_h, res_fine))  # NaN-propagating
    if not residual <= 1e-12:
        raise RuntimeError(
            f"Hastings-McLeod Newton solve did not converge on {domain} "
            f"(Numerov residual {residual:.3e})")
    q = (16.0 * q_fine[::2] - q_h) / 15.0
    qp = aip_max - integral_from_right(x, (2.0 * q * q + x) * q)

    # R(x) = int_x^inf q^2 with the exact Airy-squared remainder
    q2 = q * q
    R = (integral_from_right(x, q2)
         + AiryProductTail().remainder(x_max, q2[-1]))

    # log F2(x) = -int_x^inf R(u) du; beyond x_max, R(u) = int_u^inf Ai^2,
    # whose integral from x_max is int_{x_max}^inf (u - x_max) Ai^2
    m0, m1 = _airy_tail_moments(x_max)
    f2 = np.exp(-(integral_from_right(x, R) + (m1 - x_max * m0)))

    return PainleveTable(grid=domain, q=q, q_prime=qp, R=R, f2=f2,
                         newton_steps=steps_h + steps_fine, residual=residual)


@functools.cache
def default_table() -> PainleveTable:
    """The canonical table on DEFAULT_DOMAIN, solved once per process
    (~20 ms)."""
    return solve_hastings_mcleod(DEFAULT_DOMAIN)


def table_residuals(table: PainleveTable) -> dict:
    """The table invariants on its nodes: ``q_min`` (q > 0), the max-norm
    residuals ``painleve_ii`` of q'' = 2q^3 + x q (q'' by second
    differences), ``r_identity`` of R = q'^2 - q^4 - x q^2 and
    ``r_log_derivative`` of R = (log f2)' (five-point, interior nodes),
    ``f2_monotone``: f2 non-decreasing in (0, 1] with f2(x_max) = 1, and
    ``appendix_a``, the larger max-norm residual of the Appendix A
    identities q_half^2 + q_half' + s/2 = 2^(1/3) q^2 and -q_half^2 +
    q_half' - s/2 = -2^(1/3) R/q^2 at x = -2^(-1/3) s, for 241 s in [-6, 6]
    (x in [-4.77, 4.77], inside every table solve_hastings_mcleod makes)."""
    x, h = table.grid.nodes(), table.grid.h
    q, qp, R, f2 = table.q, table.q_prime, table.R, table.f2
    qdd = (q[2:] - 2.0 * q[1:-1] + q[:-2]) / h**2
    s = np.linspace(-6.0, 6.0, 241)
    q_s, _, r_s, _ = table.at(-s / _CBRT2)
    qh, qhp = q_half(table, s), q_half_prime(table, s)
    res1 = qh * qh + qhp + s / 2.0 - _CBRT2 * q_s * q_s
    res2 = -qh * qh + qhp - s / 2.0 + _CBRT2 * r_s / (q_s * q_s)
    return {
        "q_min": float(np.min(q)),
        "painleve_ii": float(np.max(np.abs(
            qdd - 2.0 * q[1:-1] ** 3 - x[1:-1] * q[1:-1]))),
        "r_identity": float(np.max(np.abs(R - (qp**2 - q**4 - x * q**2)))),
        "f2_monotone": bool(np.all(np.diff(f2) >= 0.0)
                            and abs(f2[-1] - 1.0) < 1e-10
                            and np.all(f2 > 0.0) and np.all(f2 <= 1.0)),
        "r_log_derivative": float(np.max(np.abs(
            derivative(x, np.log(f2))[1:-1] - R[1:-1]))),
        "appendix_a": max(float(np.max(np.abs(res1))),
                          float(np.max(np.abs(res2)))),
    }


def tracy_widom_f2_asymptote(x):
    """Left-tail closed form tau2 |x|^(-1/8) e^(-|x|^3/12) (1 + 3/(64|x|^3)).
    An array in gives an array out, a scalar a float."""
    ax = np.abs(np.asarray(x, dtype=float))
    out = TAU_2 * ax ** (-0.125) * np.exp(-(ax**3) / 12.0) \
        * (1.0 + 3.0 / (64.0 * ax**3))
    return float(out) if out.ndim == 0 else out


def tracy_widom_f2(table: PainleveTable, x: float) -> float:
    """F2(x) = exp(-int_x^inf (u - x) q(u)^2 du) from q and q' alone (the
    tabulated f2 integrates R instead).  With q the cubic Hermite
    interpolant the integrand is of degree 7 on each cell, so 4-point
    Gauss-Legendre per cell (the first cut at x) is exact.  Beyond x_max,
    q = Ai, and the rest is int_{x_max}^inf (u - x) Ai^2 in closed form.
    Left of the table the asymptote."""
    grid, q, qp = table.grid, table.q, table.q_prime
    if x < grid.x_min:
        return tracy_widom_f2_asymptote(x)
    if x >= grid.x_max:
        return 1.0
    i = min(int((x - grid.x_min) / grid.h), grid.n_points - 2)
    val = gauss_legendre(lambda u: (u - x) * hermite(grid, q, qp, u) ** 2,
                         np.concatenate(([x], grid.nodes()[i + 1:])), 4)
    m0, m1 = _airy_tail_moments(grid.x_max)
    return math.exp(-(val + (m1 - x * m0)))


_CBRT2 = 2.0 ** (1.0 / 3.0)


def q_half(table: PainleveTable, s: float) -> float:
    """Painleve II alpha = 1/2 transcendent via the quotient formula
    q_half(s) = -2^(-1/3) q'(x)/q(x) at x = -2^(-1/3) s."""
    q, qp, _, _ = table.at(-s / _CBRT2)
    return -qp / (_CBRT2 * q)


def q_half_prime(table: PainleveTable, s: float) -> float:
    """d q_half / ds, obtained by differentiating the quotient formula and
    eliminating q'' through the Painleve II equation:
    q_half'(s) = 2^(-2/3) (2 q^2 + x - (q'/q)^2) at x = -2^(-1/3) s."""
    x = -s / _CBRT2
    q, qp, _, _ = table.at(x)
    return (2.0 * q * q + x - (qp / q) ** 2) / _CBRT2**2


def a2_integral(table: PainleveTable) -> float:
    """int [ (q' + qR)^2 - (q^2 - R^2)^2 / 4 ] F2 dx, identically 1/2.

    This is the quadratic coefficient of the edge density of states at
    small scaled distance (before the overall 1/2 from symmetrization),
    and a sharp end-to-end check of the whole table.
    """
    g = table.grid.nodes()
    q, qp, R, f2 = table.q, table.q_prime, table.R, table.f2
    integrand = ((qp + q * R) ** 2 - 0.25 * (q * q - R * R) ** 2) * f2
    return float(integral_from_right(g, integrand)[0])


def __getattr__(name):
    # not called here: perfbench/tracing.py looks up `painleve.solve_bvp` by
    # name at start-up; it resolves on demand so that importing this module
    # does not load scipy.integrate
    if name == "solve_bvp":
        from scipy.integrate import solve_bvp
        return solve_bvp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
