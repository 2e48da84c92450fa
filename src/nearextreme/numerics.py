"""Shared numerical infrastructure: grids, tail-aware integration, ODE driver.

The central object is :class:`GridFunction`, a function tabulated on a uniform
grid with cubic interpolation; it is defined on its grid only.  Tail-sensitive
quantities (integrals of the form ``G(x) = int_x^inf``) are computed by
:func:`cumulative_tail_integral`, which accumulates piecewise spline integrals
*from the right end inward* so that small tail values retain full relative
accuracy even when the integrand grows by many orders of magnitude toward the
left.  A global antiderivative difference would lose them to cancellation.
The part beyond x_max is a tail model's closed-form remainder, passed to the
integral by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

# Riemann zeta'(-1), cross-checked once against the Glaisher-Kinkelin
# constant: zeta'(-1) = 1/12 - ln A.
ZETA_PRIME_MINUS_ONE = -0.16542114370045092


class DivergedSolutionError(RuntimeError):
    """ODE integration blew up; carries the last x reached."""

    def __init__(self, message: str, last_x: float):
        super().__init__(message)
        self.last_x = last_x


class TruncationError(ValueError):
    """Tail integral requested without a tail model on a non-negligible tail."""


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


# ---------------------------------------------------------------------------
# Tail models: the analytic remainder int_{x_max}^inf of an integrand whose
# behaviour beyond the grid is known.  They are passed to
# cumulative_tail_integral; a GridFunction carries none.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialTail:
    """f(x) ~ f(x_max) * exp(-rate * (x - x_max)) beyond the grid."""

    rate: float

    def remainder(self, x_max: float, v_max: float) -> float:
        return v_max / self.rate


@dataclass(frozen=True)
class AiryProductTail:
    """f(x) ~ c * Ai(x - shift_a) * Ai(x - shift_b), c matched at x_max.

    The remainder uses the closed form the Airy Wronskian gives: with
    a = x_max - shift_a and d = shift_b - shift_a,
    int_a^inf Ai(u) Ai(u - d) du = (Ai(a) Ai'(a - d) - Ai'(a) Ai(a - d)) / d,
    which is Ai'(a)^2 - a Ai(a)^2 at d = 0 (the default, f ~ c Ai(x)^2).
    """

    shift_a: float = 0.0
    shift_b: float = 0.0

    def remainder(self, x_max: float, v_max: float) -> float:
        from scipy.special import airy as _airy

        if v_max == 0.0:
            return 0.0
        a = x_max - self.shift_a
        d = self.shift_b - self.shift_a
        ai_a, aip_a, _, _ = _airy(a)
        ai_b, aip_b, _, _ = _airy(a - d)
        if d == 0.0:
            integral = aip_a**2 - a * ai_a**2
        else:
            integral = (ai_a * aip_b - aip_a * ai_b) / d
        return float(v_max * integral / (ai_a * ai_b))


class GridFunction:
    """Real function sampled on a uniform grid, cubic interpolation between
    nodes.  Evaluation outside the grid raises."""

    def __init__(self, grid: Grid, values: Sequence[float]):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_points,):
            raise ValueError("values length must match grid.n_points")
        if not np.all(np.isfinite(values)):
            raise ValueError("GridFunction values must be finite")
        self.grid = grid
        self.values = values
        self._spline: Optional[CubicSpline] = None

    def spline(self) -> CubicSpline:
        if self._spline is None:
            self._spline = CubicSpline(self.grid.nodes(), self.values)
        return self._spline

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.grid.x_min, self.grid.x_max
        if np.any((x < lo) | (x > hi)):
            raise ValueError(f"evaluation outside grid domain [{lo}, {hi}]")
        out = self.spline()(x)
        return float(out) if x.ndim == 0 else out

    def derivative(self) -> "GridFunction":
        d = self.spline().derivative()(self.grid.nodes())
        return GridFunction(self.grid, d)


def segment_integrals(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Integral of the cubic spline through (x, values) over each interval,
    computed from local spline coefficients (no global antiderivative).
    ``values`` may carry trailing axes, one spline per column."""
    cs = CubicSpline(x, values)
    h = np.diff(x).reshape((-1,) + (1,) * (np.ndim(values) - 1))
    c = cs.c  # shape (4, n-1, ...), highest power first, local t = x - x_i
    return h * (c[3] + h * (c[2] / 2 + h * (c[1] / 3 + h * c[0] / 4)))


def integral_from_right(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """int_x^{x_max} of the cubic spline through (x, values) at every node,
    summed from x_max downward so that it keeps relative accuracy where it
    is small.  ``values`` may carry trailing axes, one spline per column."""
    seg = segment_integrals(x, values)
    cum = np.zeros(np.shape(values))
    cum[:-1] = np.cumsum(seg[::-1], axis=0)[::-1]
    return cum


def cumulative_tail_integral(gf: GridFunction, tail=None) -> GridFunction:
    """G(x) = int_x^{x_max} gf(u) du + ``tail``'s remainder beyond x_max.

    The cumulative sum runs from x_max downward so that G keeps relative
    accuracy where it is small, independent of how large gf gets near x_min.
    Without a tail the integrand must have decayed at x_max.
    """
    cum = integral_from_right(gf.grid.nodes(), gf.values)
    if tail is None:
        scale = np.max(np.abs(gf.values)) if gf.values.size else 0.0
        if scale > 0.0 and abs(gf.values[-1]) > 1e-13 * scale:
            raise TruncationError(
                "integrand has not decayed at x_max and no tail model was "
                "given; attach an explicit tail descriptor")
        remainder = 0.0
    else:
        remainder = tail.remainder(gf.grid.x_max, gf.values[-1])
    return GridFunction(gf.grid, cum + remainder)


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
        raise DivergedSolutionError(
            f"ODE integration failed: {sol.message}", last_x=float(last))
    return sol.t, sol.y


def __getattr__(name):
    # not called here: perfbench/tracing.py looks up `numerics.solve_ivp` by
    # name at start-up; it resolves on demand so that importing this module
    # does not load scipy.integrate
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
