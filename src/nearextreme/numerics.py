"""Shared numerical infrastructure: grids, right-anchored integration, the
Airy tail remainder, composite Gauss-Legendre sums, ODE driver.

A function on a uniform :class:`Grid` is a plain array of its node values,
defined on the grid only.  It has three rules: :func:`derivative`, five-point
differences of fourth order; :func:`hermite`, the cubic Hermite interpolant
from values and known slopes, which raises off the grid; and
:func:`integral_from_right`, the end-corrected trapezoid rule accumulated
*from the right end inward* so that small tail values retain full relative
accuracy even when the integrand grows by many orders of magnitude toward the
left; a global antiderivative difference would lose them to cancellation.
The part beyond x_max is a closed-form remainder that the caller adds:
``AiryProductTail(shift).remainder(x_max, g[-1])`` for an integrand that
follows Ai(x) Ai(x - shift) there, ``g[-1] / rate`` for one that decays
like exp(-rate x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .airy import ai_pair

# Riemann zeta'(-1), cross-checked once against the Glaisher-Kinkelin
# constant: zeta'(-1) = 1/12 - ln A.
ZETA_PRIME_MINUS_ONE = -0.16542114370045092

#: how every integral is computed, recorded in the CSV headers
QUADRATURE_SCHEME = ("trapezoid from x_max down, end correction h^2/12 "
                     "(g'(x) - g'(x_max)), g' by five-point differences")


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [x_min, x_max] with n_points nodes."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("Grid requires x_min < x_max")
        if self.n_points < 2:
            raise ValueError("Grid requires n_points >= 2")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def check(self, **arrays) -> None:
        """Raise ValueError unless each array has one finite value per node."""
        for name, v in arrays.items():
            if np.shape(v) != (self.n_points,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must hold n_points = "
                                 f"{self.n_points} finite values")


@dataclass(frozen=True)
class AiryProductTail:
    """f(x) ~ c * Ai(x) * Ai(x - shift) beyond the grid, c matched at x_max.

    :meth:`remainder` is int_{x_max}^inf f, in the closed form the Airy
    Wronskian gives: with a = x_max and d = shift,
    int_a^inf Ai(u) Ai(u - d) du = (Ai(a) Ai'(a - d) - Ai'(a) Ai(a - d)) / d,
    which is Ai'(a)^2 - a Ai(a)^2 at d = 0 (the default, f ~ c Ai(x)^2).
    """

    shift: float = 0.0

    def remainder(self, x_max: float, v_max: float) -> float:
        if v_max == 0.0:
            return 0.0
        a, d = x_max, self.shift
        (ai_a, ai_b), (aip_a, aip_b) = ai_pair([a, a - d])
        if d == 0.0:
            integral = aip_a**2 - a * ai_a**2
        else:
            integral = (ai_a * aip_b - aip_a * ai_b) / d
        return float(v_max * integral / (ai_a * ai_b))


def hermite(grid: Grid, values: np.ndarray, slopes: np.ndarray, x):
    """Cubic Hermite interpolant of ``values`` with derivatives ``slopes`` at
    the nodes of ``grid``, evaluated at x (a float for a scalar x, else an
    array).  Evaluation outside the grid raises ValueError."""
    x, lo, hi, h = np.asarray(x, dtype=float), grid.x_min, grid.x_max, grid.h
    if not np.all((x >= lo) & (x <= hi)):
        raise ValueError(f"evaluation outside grid domain [{lo}, {hi}]")
    u = (x - lo) / h
    i = np.minimum(u.astype(int), grid.n_points - 2)
    t = u - i
    s = 1.0 - t
    out = (s * s * ((1.0 + 2.0 * t) * values[i] + t * h * slopes[i])
           + t * t * ((3.0 - 2.0 * t) * values[i + 1] - s * h * slopes[i + 1]))
    return float(out) if out.ndim == 0 else out


# g' at the first two of five nodes, to fourth order like the central stencil;
# mirrored and negated, the same rows give g' at the last two
_ONE_SIDED = np.array([[-25.0, 48.0, -36.0, 16.0, -3.0],
                       [-3.0, -10.0, 18.0, -6.0, 1.0]]) / 12.0


def derivative(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """g' at every node of the uniform grid x (5 or more nodes), g =
    ``values`` with one function per trailing column: five-point differences
    of fourth order, one-sided at the two end nodes on each side."""
    g = np.asarray(values, dtype=float)
    h = x[1] - x[0]
    dg = np.empty_like(g)
    dg[2:-2] = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * h)
    dg[:2] = np.tensordot(_ONE_SIDED, g[:5], axes=1) / h
    dg[-2:] = -np.tensordot(_ONE_SIDED[::-1, ::-1], g[-5:], axes=1) / h
    return dg


def integral_from_right(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """int_x^{x_max} g at every node of the uniform grid x (5 or more nodes),
    g = ``values``, whose trailing axes hold one integrand per column; a
    whole-grid integral is its value at the first node.  The trapezoid rule
    is summed from x_max downward, so that it keeps relative accuracy where
    it is small, plus the Euler-Maclaurin end correction
    h^2/12 (g'(x) - g'(x_max)) with five-point g', which makes it O(h^4)."""
    g = np.asarray(values, dtype=float)
    h = x[1] - x[0]
    cum = np.zeros_like(g)
    cum[:-1] = np.cumsum(0.5 * h * (g[-1:0:-1] + g[-2::-1]), axis=0)[::-1]
    dg = derivative(x, g)
    cum += h * h / 12.0 * (dg - dg[-1])
    return cum


def gauss_legendre(f: Callable, ends, n_nodes: int) -> float:
    """int f by the n_nodes-point Gauss-Legendre rule on each cell [ends[j],
    ends[j + 1]] (exact for degree < 2 n_nodes); f takes a 1-D array."""
    t, w = np.polynomial.legendre.leggauss(n_nodes)
    half, lo = 0.5 * np.diff(ends), np.asarray(ends[:-1], dtype=float)
    u = np.outer(half, t + 1.0) + lo[:, None]
    return float(half @ (f(u.ravel()).reshape(u.shape) @ w))


def integrate_ode(rhs: Callable, x_start: float, x_end: float,
                  y_start: Sequence[float], rel_tol: float = 1e-10,
                  abs_tol: float = 1e-12,
                  t_eval: Optional[np.ndarray] = None):
    """Adaptive embedded Runge-Kutta 5(4) integration with dense output.

    Returns (x_nodes, y_matrix) with y_matrix of shape (len(y_start), n).
    Direction may be decreasing (x_end < x_start).
    """
    from scipy.integrate import solve_ivp

    if x_start == x_end:
        raise ValueError("x_start must differ from x_end")
    sol = solve_ivp(rhs, (x_start, x_end), np.asarray(y_start, dtype=float),
                    method="RK45", rtol=rel_tol, atol=abs_tol, t_eval=t_eval,
                    dense_output=t_eval is None)
    if not sol.success:
        last = sol.t[-1] if sol.t.size else x_start
        raise RuntimeError(
            f"ODE integration failed at x = {last:g}: {sol.message}")
    return sol.t, sol.y


def __getattr__(name):
    # not called here: perfbench/tracing.py looks up `numerics.solve_ivp` by
    # name at start-up; it resolves on demand so that importing this module
    # does not load scipy.integrate
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
