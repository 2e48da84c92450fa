"""Exact finite-N statistics via orthogonal polynomials on (-inf, y].

Monic polynomials pi_k orthogonal for the weight e^(-lambda^2) truncated at
y are built by the discretised Stieltjes procedure (Gautschi 2004, sec. 2.2:
inner products on one fixed Gauss-Legendre rule feed the three-term
recurrence), for a whole array of y at once.  The Hankel-moment route is
catastrophically ill-conditioned; Stieltjes keeps matrix sizes up to 12 at
double precision.  From the recurrence follow the wave functions psi_k, the
Christoffel-Darboux kernel, the CDF of the largest eigenvalue, and the
exact density of states / first-gap PDF.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# not called here: perfbench/tracing.py looks up `finite_n.quad` by name
from scipy.integrate import quad  # noqa: F401
from scipy.special import erfcx

# conditioning cap: matrix size N <= 12 (the kernel needs N+1 polynomials)
MAX_MATRIX_SIZE = 12
MAX_POLYNOMIALS = MAX_MATRIX_SIZE + 1

# one Gauss-Legendre rule serves the inner products and the y integrals
_GL_NODES = 160


def truncation_amplitude(y: float) -> float:
    """a(y) = e^(-y^2) / (sqrt(pi) (1 + erf y)), written through the
    scaled complementary error function for stability at negative y."""
    return 1.0 / (math.sqrt(math.pi) * erfcx(-y))


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_GL_NODES)


@dataclass(frozen=True)
class OrthoSystem:
    """Monic-OP data at truncation point y: norms h_k and recurrence
    coefficients S_k, R_k with
    lambda pi_k = pi_{k+1} + S_k pi_k + R_k pi_{k-1}, R_k = h_k/h_{k-1}.

    For an array y the arrays carry a leading axis over y, so h[i, k]
    belongs to y[i]; for a scalar y they have shape (n,)."""

    y: float | np.ndarray
    n: int
    h: np.ndarray
    s_coef: np.ndarray
    r_coef: np.ndarray  # r_coef[..., 0] is unused (set to 0)


def build_ortho_system(y: float | np.ndarray, n: int) -> OrthoSystem:
    """Discretised Stieltjes procedure for the first n monic polynomials at
    every truncation point in y (scalar or 1-D array)."""
    if not 1 <= n <= MAX_POLYNOMIALS:
        raise ValueError(
            f"n must be in [1, {MAX_POLYNOMIALS}] (double-precision "
            "conditioning bound)")
    y_arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y_arr)):
        raise ValueError("y must be finite")
    # the weight is negligible below -13 (e^(-169)), so the rule starts there
    x, w = _gauss_rule()
    lo = np.minimum(-13.0, y_arr - 2.0)[..., None]
    half = 0.5 * (y_arr[..., None] - lo)
    lam = half * x + (lo + half)
    wt = half * w * np.exp(-lam * lam)
    h = np.zeros(y_arr.shape + (n,))
    s = np.zeros_like(h)
    r = np.zeros_like(h)
    p_prev, p = np.zeros_like(lam), np.ones_like(lam)
    for k in range(n):
        wp2 = wt * p * p
        h[..., k] = wp2.sum(axis=-1)
        if np.any(h[..., k] <= 0.0):
            raise RuntimeError(f"norm h_{k} came out non-positive at y={y}")
        s[..., k] = (wp2 * lam).sum(axis=-1) / h[..., k]
        if k > 0:
            r[..., k] = h[..., k] / h[..., k - 1]
        p_prev, p = p, (lam - s[..., k, None]) * p - r[..., k, None] * p_prev
    return OrthoSystem(y=y, n=n, h=h, s_coef=s, r_coef=r)


def _recurrence(sys: OrthoSystem, k: int, lam):
    """(pi_{k-1}, pi_k, pi_{k-1}', pi_k') at lam by the forward monic
    recurrence and its derivative.  For an array system the last axis of
    lam runs over its systems."""
    p_prev, p = 0.0, 1.0
    d_prev, d = 0.0, 0.0
    for j in range(k):
        s, r = sys.s_coef[..., j], sys.r_coef[..., j]
        d_prev, d = d, p + (lam - s) * d - r * d_prev
        p_prev, p = p, (lam - s) * p - r * p_prev
    return p_prev, p, d_prev, d


def psi_k(sys: OrthoSystem, k: int, lam):
    """Normalized wave function pi_k(lam) e^(-lam^2/2) / sqrt(h_k)."""
    if not 0 <= k < sys.n:
        raise IndexError(f"k must be in [0, {sys.n})")
    _, pk, _, _ = _recurrence(sys, k, lam)
    return pk * np.exp(-np.square(lam) / 2.0) / np.sqrt(sys.h[..., k])


def kernel(sys: OrthoSystem, lam1, lam2):
    """Christoffel-Darboux kernel K_N(lam1, lam2) with N = sys.n - 1
    (the system must carry one polynomial beyond the matrix size):
    e^(-(l1^2 + l2^2)/2) / h_{N-1} times
    (pi_N(l1) pi_{N-1}(l2) - pi_{N-1}(l1) pi_N(l2)) / (l1 - l2), or its
    limit pi_N' pi_{N-1} - pi_{N-1}' pi_N when |l1 - l2| < 1e-7.  For an
    array system the last axis of lam1, lam2 runs over its systems."""
    if sys.n < 2:
        raise ValueError("kernel needs at least two polynomials")
    diff = lam1 - lam2
    close = np.abs(diff) < 1e-7
    p1, p, d1, d = _recurrence(sys, sys.n - 1, 0.5 * (lam1 + lam2))
    a1, b1, _, _ = _recurrence(sys, sys.n - 1, lam1)
    a2, b2, _, _ = _recurrence(sys, sys.n - 1, lam2)
    cd = np.where(close, d * p1 - d1 * p,
                  (b1 * a2 - a1 * b2) / np.where(close, 1.0, diff))
    w = np.exp(-(np.square(lam1) + np.square(lam2)) / 2.0)
    return (cd * w / sys.h[..., sys.n - 2])[()]


def _cdf_from_norms(h: np.ndarray, n: int) -> np.ndarray:
    """(N!/Z_N) prod_{j<N} h_j over the last axis of h, with
    Z_N = 2^(-N^2/2) (2 pi)^(N/2) prod_{j=1}^{N} j!"""
    log_z = (-n * n / 2.0 * math.log(2.0) + n / 2.0 * math.log(2.0 * math.pi)
             + sum(math.lgamma(j + 1) for j in range(1, n + 1)))
    return np.exp(math.lgamma(n + 1) - log_z
                  + np.sum(np.log(h[..., :n]), axis=-1))


def cdf_lambda_max(y: float | np.ndarray, n: int) -> float | np.ndarray:
    """P(lambda_max <= y) = (N!/Z_N) prod_{j=0}^{N-1} h_j(y), for a scalar
    or an array y."""
    if not 1 <= n <= MAX_MATRIX_SIZE:
        raise ValueError(f"n must be in [1, {MAX_MATRIX_SIZE}]")
    sys = build_ortho_system(y, n)
    cdf = np.minimum(_cdf_from_norms(sys.h, n), 1.0)
    return float(cdf) if cdf.ndim == 0 else cdf


@functools.lru_cache(maxsize=32)
def _dos_nodes(n: int, left_extension: int = 0):
    """Window [y_lo, y_hi] over the support of the lambda_max density, and
    on its Gauss-Legendre nodes the weights, the OrthoSystem of n + 1
    polynomials (its y are the nodes), the CDF and K_N(y, y).

    `left_extension` widens the window downward; the kernel factor
    K_N(y - r, y - r) at negative r pushes integrand mass below the
    lambda_max support by about |r|."""
    # bisection for F = 1e-13 and 1 - F = 1e-13, both ends at once
    target = np.array([1e-13, 1.0 - 1e-13])
    a, b = np.full(2, -9.0), np.full(2, 9.0)
    for _ in range(60):
        m = 0.5 * (a + b)
        below = cdf_lambda_max(m, n) < target
        a, b = np.where(below, m, a), np.where(below, b, m)
    y_lo, y_hi = 0.5 * (a + b)
    y_lo -= left_extension
    x, w = _gauss_rule()
    y_nodes = 0.5 * (y_hi - y_lo) * x + 0.5 * (y_hi + y_lo)
    weights = 0.5 * (y_hi - y_lo) * w
    sys = build_ortho_system(y_nodes, n + 1)
    cdf_vals = _cdf_from_norms(sys.h, n)
    kyy = kernel(sys, y_nodes, y_nodes)
    return y_lo, y_hi, weights, sys, cdf_vals, kyy


def _node_set(r: np.ndarray, n: int):
    """The node set whose window covers the most negative r."""
    return _dos_nodes(n, int(math.ceil(max(0.0, -float(np.min(r))) + 1.0)))


def dos_exact(r: float | np.ndarray, n: int) -> float | np.ndarray:
    """Exact mean density of eigenvalues at distance r below the maximum:

    (1/(N-1)) int dy F_N(y) [ K_N(y,y) K_N(y-r, y-r) - K_N(y, y-r)^2 ]

    using F_N'(y) = F_N(y) K_N(y,y).  Negative r is the analytic
    continuation used by the gap identity.  r may be a scalar or an array;
    one node set serves the whole call.
    """
    if not 2 <= n <= MAX_MATRIX_SIZE:
        raise ValueError(f"dos_exact needs n in [2, {MAX_MATRIX_SIZE}]")
    r_arr = np.asarray(r, dtype=float)
    _, _, weights, sys, cdf_vals, kyy = _node_set(r_arr, n)
    lam = sys.y - r_arr[..., None]
    k_rr = kernel(sys, lam, lam)
    k_yr = kernel(sys, sys.y, lam)
    total = np.sum(weights * cdf_vals * (kyy * k_rr - k_yr * k_yr),
                   axis=-1) / (n - 1)
    return float(total) if r_arr.ndim == 0 else total


def rule_header(n: int, r: np.ndarray | None = None) -> str:
    """CSV header line naming the Gauss rule and, for dos_exact at the
    distances r (the gap PDF at s takes r = -s), its node-set window."""
    line = (f"rule: Gauss-Legendre, {_GL_NODES} nodes, inner products on "
            "[min(-13, y - 2), y]")
    if r is not None:
        line += "; y integral on [{:.6g}, {:.6g}]".format(*_node_set(r, n)[:2])
    return line


def gap_pdf_exact(r: float | np.ndarray, n: int) -> float | np.ndarray:
    """PDF of the first gap d = lambda_1 - lambda_2 at matrix size n:
    p_gap(r) = (N - 1) * dos_exact(-r), for a scalar or an array r."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("gap distance must be >= 0")
    return (n - 1) * dos_exact(-r, n)
