"""Shared numerical infrastructure: grids, right-anchored integration, the
Airy tail remainder, the Gauss-Legendre rule and composite sums on it, ODE
driver.

A function on a uniform :class:`Grid` is a plain array of its node values,
defined on the grid only.  It has three rules: :func:`derivative`, five-point
differences of fourth order; :func:`hermite`, the cubic Hermite interpolant
from values and known slopes, which raises off the grid; and
:func:`integral_from_right`, the end-corrected trapezoid rule accumulated
*from the right end inward* so that small tail values retain full relative
accuracy even when the integrand grows by many orders of magnitude toward the
left; a global antiderivative difference would lose them to cancellation.
The rule lives in :class:`RightIntegral`, which takes g in row blocks from
x_max down, so that a long integrand need never exist whole;
:func:`integral_from_right` feeds it the whole array as one block.
The part beyond x_max is a closed-form remainder that the caller adds, by
one tail rule: there q is Ai and f its Airy seed, so each remainder is a
moment of Ai^2 (:func:`_airy_tail_moments`), or for an integrand following
Ai(x) Ai(x - shift), ``AiryProductTail(shift).remainder(x_max, g[-1])``.

:func:`gauss_rule` builds each n-point Gauss-Legendre rule once, by Newton
on the Legendre three-term recurrence, with numpy alone: it serves
:func:`gauss_legendre` and the finite-N inner products and y integrals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .airy import ai_pair

#: Newton steps allowed for a Gauss-Legendre rule (four suffice to n = 2000)
_NEWTON_STEPS = 20

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


def _airy_tail_moments(a):
    """(int_a^inf Ai^2, int_a^inf u Ai^2), each of a's shape: by Ai'' = u Ai,
    Ai^2 = -(Ai'^2 - u Ai^2)' and 3 u Ai^2 = (u^2 Ai^2 - u Ai'^2 + Ai Ai')'."""
    ai, aip = ai_pair(a)
    return (aip**2 - a * ai**2,
            -(a * a * ai * ai - a * aip * aip + ai * aip) / 3.0)


@dataclass(frozen=True)
class AiryProductTail:
    """f(x) ~ c * Ai(x) * Ai(x - shift) beyond the grid, c matched at x_max.

    :meth:`remainder` is int_{x_max}^inf f, in the closed form the Airy
    Wronskian gives: with a = x_max and d = shift,
    int_a^inf Ai(u) Ai(u - d) du = (Ai(a) Ai'(a - d) - Ai'(a) Ai(a - d)) / d,
    and :func:`_airy_tail_moments` at d = 0 (the default, f ~ c Ai(x)^2).
    `shift` may be an array, one model per entry.
    """

    shift: float | np.ndarray = 0.0

    def remainder(self, x_max: float, v_max):
        """The remainder of each model matched to v_max at x_max: a float,
        or an array where shift or v_max is one, with the Airy functions of
        every shift from one :func:`ai_pair` call."""
        d, v = np.broadcast_arrays(np.asarray(self.shift, dtype=float),
                                   np.asarray(v_max, dtype=float))
        ai, aip = ai_pair(np.append(x_max, x_max - d))
        out = np.zeros(d.shape)
        # a model matched to 0 has no tail, even where Ai(x_max) underflows
        for i in np.flatnonzero(v):
            shift = d.flat[i]
            integral = (_airy_tail_moments(x_max)[0] if shift == 0.0
                        else (ai[0] * aip[i + 1] - aip[0] * ai[i + 1]) / shift)
            out.flat[i] = v.flat[i] * integral / (ai[0] * ai[i + 1])
        return float(out) if out.ndim == 0 else out


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


def derivative(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """g' at every node of the uniform grid x (5 or more nodes), g =
    ``values`` with one function per trailing column: five-point differences
    of fourth order, one-sided at the two end nodes on each side."""
    return _five_point(np.asarray(values, dtype=float), x[1] - x[0])


def _five_point(g: np.ndarray, h: float, low: bool = True,
                high: bool = True) -> np.ndarray:
    """:func:`derivative` of the rows of g, spaced h apart; the one-sided
    rows at the low or high end are left unset unless `low` or `high`."""
    dg = np.empty_like(g)
    dg[2:-2] = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * h)
    if low:
        dg[0], dg[1] = _one_sided(*g[:5])
        dg[:2] /= 12.0 * h
    if high:
        dg[-1], dg[-2] = _one_sided(*g[:-6:-1])
        dg[-2:] /= -12.0 * h
    return dg


def _one_sided(g0, g1, g2, g3, g4):
    """12 h g' at the first two of five nodes h apart, to fourth order like
    the central stencil, in element-wise sums, so that each column gets the
    same floats in any batch; on the nodes reversed, -12 h g' at the last
    two."""
    return (-25.0 * g0 + 48.0 * g1 - 36.0 * g2 + 16.0 * g3 - 3.0 * g4,
            -3.0 * g0 - 10.0 * g1 + 18.0 * g2 - 6.0 * g3 + g4)


class RightIntegral:
    """int_x^{x_max} g at every node of the uniform grid x (5 or more nodes),
    from g in row blocks: fed top block first, rows ascending within a
    block, every block but the last of four rows or more.  The trailing axes
    of g hold one integrand per column.  :meth:`feed` returns the integral
    on the rows of the block fed before it (None for the first block), and
    :meth:`close` on the rows of the last.

    The rule is :func:`integral_from_right`'s, float for float: a cumulative
    sum of the trapezoid pair terms from x_max down, each block's carry
    added to its first term, plus h^2/12 (g'(x) - g'(x_max)), with g' by
    five-point differences on a window of the block and up to four rows on
    either side, so that one-sided differences fall on the two rows at
    either end of the grid and nowhere else.
    """

    def __init__(self, x: np.ndarray):
        self._h = x[1] - x[0]
        self._rows_left = x.size
        self._held = None    # g of the block whose integral is unfinished
        self._cum = None     # its trapezoid sums from x_max
        self._above = None   # the lowest four rows of g above it
        self._dg_top = None  # g'(x_max)

    def feed(self, block) -> Optional[np.ndarray]:
        g = np.asarray(block, dtype=float)
        self._rows_left -= len(g)
        if self._rows_left < 0 or (len(g) < 4 and self._rows_left):
            raise ValueError("blocks must fill the grid, and only the last "
                             "may have fewer than four rows")
        # the top block's top row is x_max, where the integral is 0; every
        # other block's top row pairs with the lowest row above it
        top = self._held is None
        pairs = g if top else np.concatenate((g, self._held[:1]))
        pairs = 0.5 * self._h * (pairs[-1:0:-1] + pairs[-2::-1])
        if not top:
            pairs[0] += self._cum[0]
        cum = np.zeros_like(g)
        cum[:len(pairs)] = np.cumsum(pairs, axis=0)[::-1]
        done = None if top else self._finish(g[-4:])
        self._held, self._cum = g, cum
        return done

    def close(self) -> np.ndarray:
        if self._rows_left:
            raise ValueError(f"{self._rows_left} rows of the grid not fed")
        return self._finish(self._held[:0])

    def _finish(self, below: np.ndarray) -> np.ndarray:
        """The held block's integral, given up to four rows below it."""
        g, h = self._held, self._h
        above = g[:0] if self._above is None else self._above
        # one-sided rows only where the grid ends, within two rows of g
        dg = _five_point(np.concatenate((below, g, above)), h,
                         len(below) < 2, len(above) < 2)
        dg = dg[len(below):len(below) + len(g)]
        if self._dg_top is None:
            self._dg_top = dg[-1]
        self._above = np.concatenate((g[:4], above))[:4]
        cum = self._cum
        cum += h * h / 12.0 * (dg - self._dg_top)
        return cum


def integral_from_right(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """int_x^{x_max} g at every node of the uniform grid x (5 or more nodes),
    g = ``values``, whose trailing axes hold one integrand per column; a
    whole-grid integral is its value at the first node.  The trapezoid rule
    is summed from x_max downward, so that it keeps relative accuracy where
    it is small, plus the Euler-Maclaurin end correction
    h^2/12 (g'(x) - g'(x_max)) with five-point g', which makes it O(h^4):
    a :class:`RightIntegral` fed the whole grid as one block."""
    acc = RightIntegral(x)
    acc.feed(values)
    return acc.close()


def _legendre_at(n: int, x: np.ndarray):
    """(P_n(x), (1 - x^2) P_n'(x), 1 - x^2) by the three-term recurrence
    k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}, with
    (1 - x^2) P_n' = n (P_{n-1} - x P_n)."""
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    for k in range(1, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (p_prev - x * p), (1.0 - x) * (1.0 + x)


@functools.cache
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on
    [-1, 1], read-only.  Newton on the three-term recurrence from
    cos(pi (k + 3/4) / (n + 1/2)) until the steps are below 1e-15, then
    w = 2 / ((1 - x^2) P_n'(x)^2), symmetrised as numpy's leggauss does
    (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652).  The weights
    keep relative accuracy at the ends of the rule: 1.8e-13 at n = 160,
    where Golub-Welsch loses 1.5e-11.  Raises RuntimeError if Newton does
    not converge."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))[::-1]
    for _ in range(_NEWTON_STEPS):
        p, dp_scaled, one_minus_x2 = _legendre_at(n, x)
        step = p * one_minus_x2 / dp_scaled
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    else:
        raise RuntimeError(f"Newton for the {n}-point Gauss-Legendre rule "
                           f"did not converge in {_NEWTON_STEPS} steps")
    _, dp_scaled, one_minus_x2 = _legendre_at(n, x)
    w = 2.0 * one_minus_x2 / (dp_scaled * dp_scaled)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(f: Callable, ends, n_nodes: int) -> float:
    """int f by the n_nodes-point Gauss-Legendre rule on each cell [ends[j],
    ends[j + 1]] (exact for degree < 2 n_nodes); f takes a 1-D array.  The
    cell of half-width half_j and right end b_j has the nodes
    half_j t_i + (b_j - half_j), and the sum is sum_j half_j sum_i w_i f_ij,
    element-wise, with no matrix product."""
    t, w = gauss_rule(n_nodes)
    ends = np.asarray(ends, dtype=float)
    half = 0.5 * np.diff(ends)
    u = half[:, None] * t + (ends[1:] - half)[:, None]
    values = f(u.ravel()).reshape(u.shape)
    return float(np.sum(half * np.sum(w * values, axis=-1)))


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
