"""Edge scaling functions: near-maximum density of states, first-gap PDF,
shifted bulk semicircle, and their asymptotic expansions.

Both headline curves are values of the same integral

    (2^(1/3)/pi) int [ f(r,x)^2 - (int_x^inf q f)^2 ] F2(x) dx

evaluated at spectral parameter +r (density of states) or -r (gap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (ExponentialTail, GridFunction, ZETA_PRIME_MINUS_ONE,
                       cumulative_tail_integral, segment_integrals)
from .laxpair import solve_psi, solve_psi_batch
from .painleve import PainleveTable

_CBRT2 = 2.0 ** (1.0 / 3.0)

#: amplitude of the gap-PDF stretched-exponential tail,
#: 2^(-91/48) e^(zeta'(-1)) / sqrt(pi)
GAP_TAIL_AMPLITUDE = (2.0 ** (-91.0 / 48.0)
                      * math.exp(ZETA_PRIME_MINUS_ONE) / math.sqrt(math.pi))

CURVE_KINDS = ("dos_edge", "gap_typ", "dos_bulk")


@dataclass(frozen=True)
class ScalingCurve:
    r_values: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"kind must be one of {CURVE_KINDS}")


#: an edge integral below -NEGATIVE_TOL is a numerical failure, not roundoff
NEGATIVE_TOL = 1e-12


def edge_integral(r_signed, table: PainleveTable) -> np.ndarray:
    """(2^(1/3)/pi) int (f^2 - I^2) F2 dx over the table grid at every
    signed spectral parameter in ``r_signed``, where I(x) = int_x^inf q f."""
    f, _, qf_integral = solve_psi_batch(r_signed, table)
    integrand = (f**2 - qf_integral**2) * table.f2.values[:, None]
    seg = segment_integrals(table.grid.nodes(), integrand)
    return _CBRT2 / math.pi * np.sum(seg, axis=0)


def _nonnegative_curve(r_values, sign: float,
                       table: PainleveTable) -> np.ndarray:
    r = np.atleast_1d(np.asarray(r_values, dtype=float))
    if np.any(r < 0):
        raise ValueError("r_tilde must be >= 0")
    values = edge_integral(sign * r, table)
    bad = np.flatnonzero(values < -NEGATIVE_TOL)
    if bad.size:
        i = bad[0]
        raise RuntimeError(
            f"edge integral at r_tilde = {r[i]:g} is {values[i]:.3e}, below "
            f"-{NEGATIVE_TOL:g}: a density cannot be negative")
    return values


def rho_edge_curve(r_values, table: PainleveTable) -> np.ndarray:
    """:func:`rho_edge_scaling` at every r in ``r_values``, in one batched
    psi solve."""
    return _nonnegative_curve(r_values, 1.0, table)


def p_typ_curve(r_values, table: PainleveTable) -> np.ndarray:
    """:func:`p_typ` at every r in ``r_values``, in one batched psi
    solve."""
    return _nonnegative_curve(r_values, -1.0, table)


def rho_edge_scaling(r_tilde: float, table: PainleveTable) -> float:
    """Scaled mean density of eigenvalues at distance r_tilde below the
    maximum (density-of-states branch)."""
    return float(rho_edge_curve(r_tilde, table)[0])


def p_typ(r_tilde: float, table: PainleveTable) -> float:
    """Scaled PDF of the first gap (gap branch, negative spectral
    parameter)."""
    return float(p_typ_curve(r_tilde, table)[0])


def p_typ_g_form(r_tilde: float, table: PainleveTable) -> float:
    """Same gap PDF through the g-function: the (int q f)^2 term is
    replaced by q^2 g^2 / r^2.  Regression cross-check of the integral
    relation between f and g."""
    if r_tilde <= 0:
        raise ValueError("r_tilde must be > 0 for the g form")
    psi = solve_psi(-r_tilde, table)
    g = table.grid.nodes()
    q = table.q.values
    integrand = ((psi.f.values**2
                  - q**2 * psi.g.values**2 / r_tilde**2) * table.f2.values)
    return _CBRT2 / math.pi * float(np.sum(segment_integrals(g, integrand)))


def rho_bulk_shifted(x_hat: float) -> float:
    """Shifted Wigner semicircle (1/pi) sqrt(x(2 sqrt 2 - x)) on
    (0, 2 sqrt 2), the bulk limit of the near-maximum density."""
    top = 2.0 * math.sqrt(2.0)
    if x_hat <= 0.0 or x_hat >= top:
        return 0.0
    return math.sqrt(x_hat * (top - x_hat)) / math.pi


def a4_integral(table: PainleveTable) -> float:
    """Quartic coefficient of the small-r expansion
    rho_edge(r) = r^2/2 + a4 r^4 + O(r^6):

        a4 = (1/2) int [ H + (T^2 - H^2)/2 ] F2 dx,
        H  = -q^2 R / 2 + R^3/6 + int_x^inf (q^4 + u q^2) du,
        T  = H'/q = -q' R - q^3/2 - R^2 q / 2 - x q.
    """
    g = table.grid.nodes()
    H, T = h_t_functions(table)
    integrand = (H + 0.5 * (T * T - H * H)) * table.f2.values
    return 0.5 * float(np.sum(segment_integrals(g, integrand)))


def h_t_functions(table: PainleveTable):
    """The auxiliary pair (H, T = H'/q) entering the quartic coefficient;
    T is evaluated in the closed form obtained by differentiating H and
    eliminating q'' through the Painleve II equation."""
    g = table.grid.nodes()
    q, qp, R = table.q.values, table.q_prime.values, table.R.values
    x_max = table.grid.x_max
    tail_int = cumulative_tail_integral(
        GridFunction(table.grid, q**4 + g * q * q,
                     tail=ExponentialTail(rate=2.0 * math.sqrt(x_max))))
    H = -0.5 * q * q * R + R**3 / 6.0 + tail_int.values
    T = -qp * R - q**3 / 2.0 - R * R * q / 2.0 - g * q
    return H, T


def gap_tail_asymptotic(r_tilde: float) -> float:
    """Large-r form of the gap PDF:
    A exp(-(4/3) r^(3/2) + (8/3) sqrt(2) r^(3/4)) r^(-21/32)
      (1 - (1405 sqrt 2 / 1536) r^(-3/4))."""
    if r_tilde <= 0:
        raise ValueError("r_tilde must be > 0")
    r = r_tilde
    return (GAP_TAIL_AMPLITUDE
            * math.exp(-4.0 / 3.0 * r**1.5 + 8.0 / 3.0 * math.sqrt(2.0) * r**0.75)
            * r ** (-21.0 / 32.0)
            * (1.0 - 1405.0 * math.sqrt(2.0) / 1536.0 * r ** (-0.75)))


def dos_finite_n_edge(r: float, n: int, table: PainleveTable) -> float:
    """Finite-N edge approximation of the density of states:
    sqrt(2) N^(-5/6) rho_edge(sqrt(2) N^(1/6) r)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = math.sqrt(2.0) * n ** (1.0 / 6.0)
    return s / n * rho_edge_scaling(s * r, table)


def gap_finite_n(r: float, n: int, table: PainleveTable) -> float:
    """Finite-N edge approximation of the first-gap PDF:
    sqrt(2) N^(1/6) p_typ(sqrt(2) N^(1/6) r)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = math.sqrt(2.0) * n ** (1.0 / 6.0)
    return s * p_typ(s * r, table)


def gap_normalization(table: PainleveTable, r_switch: float = 10.0,
                      n_nodes: int = 48) -> float:
    """int_0^inf p_typ: Gauss-Legendre over [0, r_switch] plus the
    asymptotic-tail remainder beyond."""
    from scipy.integrate import quad
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    r = 0.5 * r_switch * (x + 1.0)
    main = 0.5 * r_switch * float(np.dot(w, p_typ_curve(r, table)))
    tail, _ = quad(gap_tail_asymptotic, r_switch, 60.0,
                   epsabs=1e-300, epsrel=1e-10, limit=200)
    return main + tail


def tabulate_curve(kind: str, table: PainleveTable, r_max: float = 12.0,
                   step: float = 0.05) -> ScalingCurve:
    """Tabulate one scaling curve on a uniform r grid."""
    r = np.arange(0.0, r_max + 0.5 * step, step)
    if kind == "dos_edge":
        v = rho_edge_curve(r, table)
    elif kind == "gap_typ":
        v = p_typ_curve(r, table)
    elif kind == "dos_bulk":
        v = np.array([rho_bulk_shifted(ri) for ri in r])
    else:
        raise ValueError(f"unknown curve kind {kind!r}")
    return ScalingCurve(r_values=r, values=v, kind=kind)
