"""Shared numerical infrastructure: grids, tail-aware integration, ODE driver.

The central object is :class:`GridFunction`, a function tabulated on a uniform
grid with cubic interpolation.  Tail-sensitive quantities (integrals of the
form ``G(x) = int_x^inf``) are computed by :func:`cumulative_tail_integral`,
which accumulates piecewise spline integrals *from the right end inward* so
that small tail values retain full relative accuracy even when the integrand
grows by many orders of magnitude toward the left.  A global antiderivative
difference would lose them to cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline

# Riemann zeta'(-1), cross-checked once against the Glaisher-Kinkelin
# constant: zeta'(-1) = 1/12 - ln A.
ZETA_PRIME_MINUS_ONE = -0.16542114370045092


class DivergedSolutionError(RuntimeError):
    """ODE integration blew up; carries the last x reached."""

    def __init__(self, message: str, last_x: float):
        super().__init__(message)
        self.last_x = last_x


class AccuracyError(RuntimeError):
    """Quadrature failed to meet the requested tolerance."""

    def __init__(self, message: str, estimate: float, achieved: float):
        super().__init__(message)
        self.estimate = estimate
        self.achieved = achieved


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
# Tail models: analytic behaviour of a grid function beyond x_max.  They
# supply both extrapolated values and the remainder int_{x_max}^inf.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentialTail:
    """f(x) ~ f(x_max) * exp(-rate * (x - x_max)) beyond the grid."""

    rate: float

    def value(self, x: float, x_max: float, v_max: float) -> float:
        return v_max * math.exp(-self.rate * (x - x_max))

    def remainder(self, x_max: float, v_max: float) -> float:
        return v_max / self.rate


@dataclass(frozen=True)
class PowerTail:
    """f(x) ~ f(x_max) * (x / x_max)^(-exponent), exponent > 1."""

    exponent: float

    def value(self, x: float, x_max: float, v_max: float) -> float:
        return v_max * (x / x_max) ** (-self.exponent)

    def remainder(self, x_max: float, v_max: float) -> float:
        if self.exponent <= 1.0:
            raise TruncationError("power tail needs exponent > 1 to integrate")
        return v_max * x_max / (self.exponent - 1.0)


@dataclass(frozen=True)
class AirySquaredTail:
    """f(x) ~ c * Ai(x - shift)^2, with c matched at x_max.

    The remainder uses the closed form
    int_a^inf Ai^2 = Ai'(a)^2 - a Ai(a)^2.
    """

    shift: float = 0.0

    def _c(self, x_max: float, v_max: float) -> float:
        from scipy.special import airy as _airy

        ai = _airy(x_max - self.shift)[0]
        return v_max / ai**2

    def value(self, x: float, x_max: float, v_max: float) -> float:
        from scipy.special import airy as _airy

        ai = _airy(x - self.shift)[0]
        return self._c(x_max, v_max) * ai**2

    def remainder(self, x_max: float, v_max: float) -> float:
        from scipy.special import airy as _airy

        a = x_max - self.shift
        ai, aip, _, _ = _airy(a)
        return self._c(x_max, v_max) * (aip**2 - a * ai**2)


@dataclass(frozen=True)
class AiryProductTail:
    """f(x) ~ c * Ai(x - shift_a) * Ai(x - shift_b), c matched at x_max.

    The remainder uses the closed form the Airy Wronskian gives: with
    a = x_max - shift_a and d = shift_b - shift_a,
    int_a^inf Ai(u) Ai(u - d) du = (Ai(a) Ai'(a - d) - Ai'(a) Ai(a - d)) / d,
    which is Ai'(a)^2 - a Ai(a)^2 at d = 0.
    """

    shift_a: float = 0.0
    shift_b: float = 0.0

    def _model(self, x, x_max: float, v_max: float):
        from scipy.special import airy as _airy

        m = _airy(x - self.shift_a)[0] * _airy(x - self.shift_b)[0]
        m0 = _airy(x_max - self.shift_a)[0] * _airy(x_max - self.shift_b)[0]
        return v_max * m / m0

    def value(self, x: float, x_max: float, v_max: float) -> float:
        return float(self._model(x, x_max, v_max))

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
    nodes.  Evaluation outside the grid requires an attached tail model."""

    def __init__(self, grid: Grid, values: Sequence[float], tail=None):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_points,):
            raise ValueError("values length must match grid.n_points")
        if not np.all(np.isfinite(values)):
            raise ValueError("GridFunction values must be finite")
        self.grid = grid
        self.values = values
        self.tail = tail
        self._spline: Optional[CubicSpline] = None

    def spline(self) -> CubicSpline:
        if self._spline is None:
            self._spline = CubicSpline(self.grid.nodes(), self.values)
        return self._spline

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xa = np.atleast_1d(x)
        lo, hi = self.grid.x_min, self.grid.x_max
        out = np.empty_like(xa)
        inside = (xa >= lo) & (xa <= hi)
        out[inside] = self.spline()(xa[inside])
        above = xa > hi
        below = xa < lo
        if np.any(below):
            raise ValueError(f"evaluation below grid domain [{lo}, {hi}]")
        if np.any(above):
            if self.tail is None:
                raise ValueError(
                    f"evaluation above grid domain [{lo}, {hi}] "
                    "without a tail model")
            v_max = self.values[-1]
            out[above] = [self.tail.value(xx, hi, v_max) for xx in xa[above]]
        return float(out[0]) if scalar else out

    def derivative(self) -> "GridFunction":
        d = self.spline().derivative()(self.grid.nodes())
        return GridFunction(self.grid, d)

    def with_tail(self, tail) -> "GridFunction":
        return GridFunction(self.grid, self.values, tail=tail)


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
    """G(x) = int_x^{x_max} gf(u) du + analytic remainder beyond x_max.

    The cumulative sum runs from x_max downward so that G keeps relative
    accuracy where it is small, independent of how large gf gets near x_min.
    """
    cum = integral_from_right(gf.grid.nodes(), gf.values)
    tail = tail if tail is not None else gf.tail
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


def quad_adaptive(f: Callable[[float], float], a: float, b: float,
                  tol: float = 1e-10) -> float:
    """Adaptive quadrature with |error| <= tol * (1 + |result|)."""
    if not a < b:
        raise ValueError("quad_adaptive requires a < b")
    result, err = quad(f, a, b, epsabs=tol, epsrel=tol, limit=300)
    if err > 10.0 * tol * (1.0 + abs(result)):
        raise AccuracyError(
            f"quadrature error estimate {err:.3e} exceeds tolerance",
            estimate=result, achieved=err)
    return result


def erf(x: float) -> float:
    """Standard error function."""
    return math.erf(x)
