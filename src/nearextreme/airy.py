"""Airy functions and the soft-edge eigenvalue density.

One numpy evaluator, :func:`ai_pair`, gives Ai and Ai' in two regions:

* x >= 1: Ai(x) = pi^-1 sqrt(x/3) K_{1/3}(zeta) and
  Ai'(x) = -pi^-1 (x/sqrt 3) K_{2/3}(zeta), zeta = (2/3) x^(3/2), with
  K_nu(zeta) = e^-zeta int_0^inf e^(-zeta (cosh t - 1)) cosh(nu t) dt by
  the trapezoidal rule on 64 nodes of step min(1/8, 1/(2 sqrt zeta)).  The
  integrand is entire and decays doubly exponentially, so the rule
  converges exponentially (Trefethen & Weideman, SIAM Rev. 56 (2014) 385):
  both agree with 40-digit references to ~4e-16 relative, times zeta for
  the rounding of e^-zeta.
* -60 <= x < 1: the degree-30 Taylor series of Ai'' = x Ai about the
  nearest anchor of a 1/4 grid.  The anchor values are marched down (and up
  to 1) from the exact Ai(0) and Ai'(0) by the same series, which is stable
  in the oscillatory region: Ai and Ai' agree with 40-digit references to
  ~7e-15 of the envelopes sqrt(Ai^2 + Bi^2) and sqrt(Ai'^2 + Bi'^2).
  Below the anchor table the evaluator raises ValueError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_AI_0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_AI_PRIME_0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)

#: anchors k / 4 for k = _BOTTOM .. _TOP, series of degree _DEGREE about them
_STEP, _BOTTOM, _TOP, _DEGREE = 0.25, -240, 4, 30
#: the lowest x the evaluator accepts
X_MIN = _BOTTOM * _STEP
_POWERS = np.arange(_DEGREE + 1)

#: trapezoid nodes for x >= 1, and the values of x evaluated at a time in
#: either region
_NODES = np.arange(64)
_ROWS = 512


def _coefficients(a, y, y_prime):
    """Taylor coefficients c_0 .. c_DEGREE (last axis) about a of the
    solution of y'' = x y with y(a) = y, y'(a) = y_prime:
    n (n - 1) c_n = a c_(n-2) + c_(n-3)."""
    c = [y, y_prime, a * y / 2.0]
    for n in range(3, _DEGREE + 1):
        c.append((a * c[n - 2] + c[n - 3]) / (n * (n - 1)))
    return np.stack(np.broadcast_arrays(*c), axis=-1)


def _taylor_sum(c, t):
    """(sum c_n t^n, sum n c_n t^(n-1)) over the last axis of c."""
    p = np.empty(np.shape(t) + (_DEGREE + 1,))
    p[..., 0] = 1.0
    p[..., 1:] = np.asarray(t)[..., None]
    np.cumprod(p, axis=-1, out=p)
    return (np.sum(c * p, axis=-1),
            np.sum(c[..., 1:] * _POWERS[1:] * p[..., :-1], axis=-1))


@functools.cache
def _anchor_coefficients() -> np.ndarray:
    """Taylor coefficients of Ai about each anchor, one row per anchor from
    _BOTTOM up; built on first use (~2 ms)."""
    a = np.arange(_BOTTOM, _TOP + 1) * _STEP
    # the two solutions with (y, y') = (1, 0) and (0, 1) at each anchor,
    # carried one step down and one step up
    basis = _coefficients(a, np.array([[1.0], [0.0]]),
                          np.array([[0.0], [1.0]]))
    (dv, dd), (uv, ud) = ([v.tolist() for v in _taylor_sum(basis, s)]
                          for s in (-_STEP, _STEP))
    ai, aip = [0.0] * a.size, [0.0] * a.size
    zero = -_BOTTOM
    ai[zero], aip[zero] = _AI_0, _AI_PRIME_0
    for i in range(zero, 0, -1):
        ai[i - 1] = dv[0][i] * ai[i] + dv[1][i] * aip[i]
        aip[i - 1] = dd[0][i] * ai[i] + dd[1][i] * aip[i]
    for i in range(zero, a.size - 1):
        ai[i + 1] = uv[0][i] * ai[i] + uv[1][i] * aip[i]
        aip[i + 1] = ud[0][i] * ai[i] + ud[1][i] * aip[i]
    return _coefficients(a, np.array(ai), np.array(aip))


def _ai_series(x: np.ndarray):
    """(Ai, Ai') for X_MIN <= x < 1 from the nearest anchor's series."""
    k = np.rint(x / _STEP)
    c = _anchor_coefficients()[k.astype(int) - _BOTTOM]
    return _taylor_sum(c, x - k * _STEP)


def _ai_trapezoid(x: np.ndarray):
    """(Ai, Ai') for x >= 1 from K_{1/3} and K_{2/3} by the trapezoid."""
    zeta = 2.0 / 3.0 * x**1.5
    h = np.minimum(0.125, 0.5 / np.sqrt(zeta))
    t = h[:, None] * _NODES
    # e^(-zeta (cosh t - 1)), with cosh t - 1 = 2 sinh(t/2)^2 free of
    # cancellation at small t
    w = np.exp(-2.0 * zeta[:, None] * np.sinh(0.5 * t) ** 2)
    # the t = 0 node, of value 1, carries trapezoid weight 1/2
    k13 = h * (np.sum(w * np.cosh(t / 3.0), axis=1) - 0.5)
    k23 = h * (np.sum(w * np.cosh(2.0 * t / 3.0), axis=1) - 0.5)
    scale = np.exp(-zeta) / math.pi
    return scale * np.sqrt(x / 3.0) * k13, -scale * x / math.sqrt(3.0) * k23


def ai_pair(x):
    """(Ai(x), Ai'(x)) as two arrays of x's shape.  x below X_MIN (or NaN)
    raises ValueError."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= X_MIN):
        raise ValueError(f"Airy evaluator covers x >= {X_MIN:g}")
    ai, aip = np.empty_like(x), np.empty_like(x)
    right = x >= 1.0
    # _ROWS values at a time, so that the (rows, 64) trapezoid and the
    # (rows, _DEGREE + 1) series work arrays stay small
    for region, evaluate in ((right, _ai_trapezoid), (~right, _ai_series)):
        values = x[region]
        blocks = np.split(values, range(_ROWS, values.size, _ROWS))
        ai[region], aip[region] = np.hstack([evaluate(b) for b in blocks])
    return ai, aip


def edge_density(x) -> float:
    """Mean eigenvalue density at the soft edge in scaled variables:
    Ai'(x)^2 - x Ai(x)^2 (Airy kernel at coinciding points).

    Tends to sqrt(-x)/pi as x -> -inf and decays like
    exp(-(4/3) x^(3/2)) / (8 pi x) as x -> +inf.
    """
    ai, aip = ai_pair(x)
    val = aip**2 - x * ai**2
    return float(val) if np.ndim(x) == 0 else val
