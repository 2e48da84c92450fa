"""Edge scaling functions: near-maximum density of states, first-gap PDF,
shifted bulk semicircle, and their asymptotic expansions.

Both headline curves are values of the same integral

    (2^(1/3)/pi) int [ f(r,x)^2 - (int_x^inf q f)^2 ] F2(x) dx

evaluated at spectral parameter +r (density of states) or -r (gap).
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import (ZETA_PRIME_MINUS_ONE, gauss_legendre,
                       integral_from_right)
# solve_psi is not called here: perfbench/tracing.py wraps `scaling.solve_psi`
from .laxpair import COLUMN_CHUNK, solve_psi, solve_psi_batch  # noqa: F401
from .painleve import PainleveTable

_CBRT2 = 2.0 ** (1.0 / 3.0)

#: amplitude of the gap-PDF stretched-exponential tail,
#: 2^(-91/48) e^(zeta'(-1)) / sqrt(pi)
GAP_TAIL_AMPLITUDE = (2.0 ** (-91.0 / 48.0)
                      * math.exp(ZETA_PRIME_MINUS_ONE) / math.sqrt(math.pi))

#: an edge integral below -NEGATIVE_TOL is a numerical failure, not roundoff
NEGATIVE_TOL = 1e-12


#: most spectral parameters per batched psi solve; each solve holds two
#: n_points x chunk float arrays (f on h and on h/2), so this bounds memory
#: for any grid
R_CHUNK = 64


def edge_integral(r_signed, table: PainleveTable) -> np.ndarray:
    """(2^(1/3)/pi) int (f^2 - I^2) F2 dx over the table grid at every
    signed spectral parameter in ``r_signed``, where I(x) = int_x^inf q f.
    The psi functions are solved R_CHUNK columns at a time, the integrand
    built COLUMN_CHUNK at a time."""
    r = np.atleast_1d(np.asarray(r_signed, dtype=float))
    x = table.grid.nodes()
    f2 = table.f2[:, None]
    total = np.empty(r.size)
    for start in range(0, r.size, R_CHUNK):
        f, qf_integral = solve_psi_batch(r[start:start + R_CHUNK], table)
        for j in range(0, f.shape[1], COLUMN_CHUNK):
            cols = slice(j, j + COLUMN_CHUNK)
            total[start + j:start + j + COLUMN_CHUNK] = integral_from_right(
                x, (f[:, cols]**2 - qf_integral[:, cols]**2) * f2)[0]
        del f, qf_integral  # before the next chunk's solve allocates
    return _CBRT2 / math.pi * total


def _nonnegative_curve(r_tilde, sign: float, table: PainleveTable):
    """The edge integral at sign * r for every r_tilde >= 0, in one batched
    psi solve; an array in gives an array out, a scalar a float.  A value
    below -NEGATIVE_TOL raises RuntimeError."""
    r = np.atleast_1d(np.asarray(r_tilde, dtype=float))
    if np.any(r < 0):
        raise ValueError("r_tilde must be >= 0")
    values = edge_integral(sign * r, table)
    bad = np.flatnonzero(values < -NEGATIVE_TOL)
    if bad.size:
        i = bad[0]
        raise RuntimeError(
            f"edge integral at r_tilde = {r[i]:g} is {values[i]:.3e}, below "
            f"-{NEGATIVE_TOL:g}: a density cannot be negative")
    return float(values[0]) if np.ndim(r_tilde) == 0 else values


def rho_edge_scaling(r_tilde, table: PainleveTable):
    """Scaled mean density of eigenvalues at distance r_tilde below the
    maximum (density-of-states branch), at a scalar or at every r of an
    array."""
    return _nonnegative_curve(r_tilde, 1.0, table)


def p_typ(r_tilde, table: PainleveTable):
    """Scaled PDF of the first gap (gap branch, negative spectral
    parameter), at a scalar or at every r of an array."""
    return _nonnegative_curve(r_tilde, -1.0, table)


def rho_bulk_shifted(x_hat):
    """Shifted Wigner semicircle (1/pi) sqrt(x(2 sqrt 2 - x)) on
    (0, 2 sqrt 2), the bulk limit of the near-maximum density; 0 outside.
    An array in gives an array out, a scalar a float."""
    x = np.asarray(x_hat, dtype=float)
    top = 2.0 * math.sqrt(2.0)
    out = np.sqrt(np.maximum(x * (top - x), 0.0)) / math.pi
    return float(out) if out.ndim == 0 else out


def a4_integral(table: PainleveTable) -> float:
    """Quartic coefficient of the small-r expansion
    rho_edge(r) = r^2/2 + a4 r^4 + O(r^6):

        a4 = (1/2) int [ H + (T^2 - H^2)/2 ] F2 dx,
        H  = -q^2 R / 2 + R^3/6 + int_x^inf (q^4 + u q^2) du,
        T  = H'/q = -q' R - q^3/2 - R^2 q / 2 - x q.
    """
    g = table.grid.nodes()
    H, T = h_t_functions(table)
    integrand = (H + 0.5 * (T * T - H * H)) * table.f2
    return 0.5 * float(integral_from_right(g, integrand)[0])


def h_t_functions(table: PainleveTable):
    """The auxiliary pair (H, T = H'/q) entering the quartic coefficient;
    T is evaluated in the closed form obtained by differentiating H and
    eliminating q'' through the Painleve II equation."""
    g = table.grid.nodes()
    q, qp, R = table.q, table.q_prime, table.R
    # int_x^inf (q^4 + u q^2) du, whose integrand decays like Ai(x)^2: an
    # exponential of rate 2 sqrt(x_max) beyond the grid
    tail = q**4 + g * q * q
    tail_int = (integral_from_right(g, tail)
                + tail[-1] / (2.0 * math.sqrt(table.grid.x_max)))
    H = -0.5 * q * q * R + R**3 / 6.0 + tail_int
    T = -qp * R - q**3 / 2.0 - R * R * q / 2.0 - g * q
    return H, T


def gap_tail_asymptotic(r_tilde):
    """Large-r form of the gap PDF:
    A exp(-(4/3) r^(3/2) + (8/3) sqrt(2) r^(3/4)) r^(-21/32)
      (1 - (1405 sqrt 2 / 1536) r^(-3/4)).
    An array in gives an array out, a scalar a float."""
    r = np.asarray(r_tilde, dtype=float)
    if not np.all(r > 0):
        raise ValueError("r_tilde must be > 0")
    out = (GAP_TAIL_AMPLITUDE
           * np.exp(-4.0 / 3.0 * r**1.5 + 8.0 / 3.0 * math.sqrt(2.0) * r**0.75)
           * r ** (-21.0 / 32.0)
           * (1.0 - 1405.0 * math.sqrt(2.0) / 1536.0 * r ** (-0.75)))
    return float(out) if out.ndim == 0 else out


def gap_normalization(table: PainleveTable) -> float:
    """int_0^inf p_typ: 48-point Gauss-Legendre sums of p_typ over [0, 10]
    and of its asymptotic tail over [10, 60] (beyond, below 1e-230)."""
    return (gauss_legendre(lambda r: p_typ(r, table), (0, 10), 48)
            + gauss_legendre(gap_tail_asymptotic, (10, 60), 48))
