"""Exact finite-N statistics via orthogonal polynomials on (-inf, y].

Monic polynomials pi_k orthogonal for the weight e^(-lambda^2) truncated at
y are built by the discretised Stieltjes procedure (Gautschi 2004, sec. 2.2:
inner products on one fixed Gauss-Legendre rule, :func:`numerics.gauss_rule`,
feed the three-term recurrence), for a whole array of y at once.
The Hankel-moment route is catastrophically ill-conditioned; Stieltjes
keeps matrix sizes up to 12 at double precision.  From the recurrence follow
the normalized wave functions psi_k, the kernel K_N = sum_{k<N} psi_k psi_k,
the CDF of the largest eigenvalue, and the exact density of states /
first-gap PDF.  Arrays of y and r are worked in row blocks, each the same
floats as a whole call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import gauss_rule

# conditioning cap: matrix size N <= 12, and as many polynomials
MAX_MATRIX_SIZE = 12

# one Gauss-Legendre rule serves the inner products and the y integrals
_GL_NODES = 160

# rows per block: truncation points y in a Stieltjes pass, distances r in
# a dos_exact sum
_Y_BLOCK = 32
_R_BLOCK = 16


def truncation_amplitude(y: float) -> float:
    """a(y) = e^(-y^2) / (sqrt(pi) erfc(-y)), for y >= -26: below, e^(-y^2)
    underflows, as the weight does in :func:`_stieltjes`."""
    return math.exp(-y * y) / (math.sqrt(math.pi) * math.erfc(-y))


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
    every truncation point in y (scalar or 1-D array); a norm that is not
    positive raises RuntimeError."""
    h, s, r = _stieltjes(y, n)
    if not np.all(h > 0.0):
        raise RuntimeError(f"a norm h_k came out non-positive at y={y}")
    return OrthoSystem(y=y, n=n, h=h, s_coef=s, r_coef=r)


@np.errstate(divide="ignore", invalid="ignore")
def _stieltjes(y, n: int):
    """(h, S, R) at every y, unchecked: where the weight underflows on the
    rule (y below about -26) the norms come out 0 or NaN."""
    if not 1 <= n <= MAX_MATRIX_SIZE:
        raise ValueError(
            f"n must be in [1, {MAX_MATRIX_SIZE}] (double-precision "
            "conditioning bound)")
    y_arr = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y_arr)):
        raise ValueError("y must be finite")
    hsr = np.zeros((3, y_arr.size, n))
    flat = y_arr.reshape(-1)
    for i in range(0, flat.size, _Y_BLOCK):
        _stieltjes_block(flat[i:i + _Y_BLOCK], *hsr[:, i:i + _Y_BLOCK])
    return tuple(hsr.reshape((3,) + y_arr.shape + (n,)))


def _stieltjes_block(y: np.ndarray, h, s, r) -> None:
    """Fill the rows (y, n) of h, S and R for the 1-D y."""
    # the weight is negligible beyond |lambda| = 13 (e^(-169)): the rule ends
    # at min(y, 13) and starts at -13, or 2 below y when y is further out
    x, w = gauss_rule(_GL_NODES)
    lo = np.minimum(-13.0, y - 2.0)[:, None]
    half = 0.5 * (np.minimum(y, 13.0)[:, None] - lo)
    lam = half * x + (lo + half)
    wt = half * w * np.exp(-lam * lam)
    p_prev, p = np.zeros_like(lam), np.ones_like(lam)
    for k in range(h.shape[1]):
        wp2 = wt * p * p
        h[:, k] = wp2.sum(axis=-1)
        s[:, k] = (wp2 * lam).sum(axis=-1) / h[:, k]
        if k > 0:
            r[:, k] = h[:, k] / h[:, k - 1]
        p_prev, p = p, (lam - s[:, k, None]) * p - r[:, k, None] * p_prev


def _psi_terms(sys: OrthoSystem, lam):
    """psi_0(lam), psi_1(lam), ... psi_{n-1}(lam), one at a time, by the
    forward monic recurrence."""
    lam = np.asarray(lam, dtype=float)
    weight = np.exp(-np.square(lam) / 2.0)
    p_prev, p = 0.0, 1.0
    for k in range(sys.n):
        yield p * weight / np.sqrt(sys.h[..., k])
        s, r = sys.s_coef[..., k], sys.r_coef[..., k]
        p_prev, p = p, (lam - s) * p - r * p_prev


def psi(sys: OrthoSystem, lam) -> np.ndarray:
    """Normalized wave functions psi_k(lam) = pi_k(lam) e^(-lam^2/2)/sqrt(h_k)
    for k = 0 .. sys.n - 1, stacked on a leading axis, by the forward monic
    recurrence.  For an array system the last axis of lam runs over its
    systems."""
    return np.stack(np.broadcast_arrays(*_psi_terms(sys, lam)))


def kernel(sys: OrthoSystem, lam1, lam2):
    """Kernel K_N(lam1, lam2) = sum_{k<N} psi_k(lam1) psi_k(lam2) with
    N = sys.n.  For an array system the last axis of lam1, lam2 runs over
    its systems."""
    lam1, lam2 = np.broadcast_arrays(lam1, lam2)
    return np.sum(psi(sys, lam1) * psi(sys, lam2), axis=0)[()]


def _cdf_from_norms(h: np.ndarray) -> np.ndarray:
    """(N!/Z_N) prod_{j<N} h_j over the last axis of h (length N), with
    Z_N = 2^(-N^2/2) (2 pi)^(N/2) prod_{j=1}^{N} j!"""
    n = h.shape[-1]
    log_z = (-n * n / 2.0 * math.log(2.0) + n / 2.0 * math.log(2.0 * math.pi)
             + sum(math.lgamma(j + 1) for j in range(1, n + 1)))
    return np.exp(math.lgamma(n + 1) - log_z
                  + np.sum(np.log(h), axis=-1))


def cdf_lambda_max(y: float | np.ndarray, n: int) -> float | np.ndarray:
    """P(lambda_max <= y) = (N!/Z_N) prod_{j=0}^{N-1} h_j(y), for a scalar
    or an array y.  Where the norms underflow (y below about -26) the CDF
    is 0 to double precision, and 0 is returned."""
    h = _stieltjes(y, n)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf = np.where(np.all(h > 0.0, axis=-1), _cdf_from_norms(h), 0.0)
    return float(cdf) if cdf.ndim == 0 else cdf


@functools.lru_cache(maxsize=32)
def _dos_nodes(n: int, left_extension: int = 0):
    """Window [y_lo, y_hi] over the support of the lambda_max density, and
    on its Gauss-Legendre nodes the weights, the OrthoSystem of n
    polynomials (its y are the nodes), the CDF and psi(y).

    `left_extension` widens the window downward; the kernel factor
    K_N(y - r, y - r) at negative r pushes integrand mass below the
    lambda_max support by about |r|."""
    # bisection, both ends at once, for F = 1e-13 and for a tail of 1e-13:
    # E[#eigenvalues > y] = int_y^13 K_N(lam, lam) on the untruncated
    # system, which bounds 1 - F from above and, formed as a tail, is not
    # lost in the rounding of F.  Its 64-point Gauss-Legendre sum is taken
    # element-wise: the matrix products of numerics.gauss_legendre would
    # load BLAS, 160 kB of peak RSS that no other finite-N step needs
    full = build_ortho_system(13.0, n)
    x, w = gauss_rule(64)
    a, b = np.full(2, -9.0), np.full(2, 9.0)
    for _ in range(60):
        m = 0.5 * (a + b)
        half = 0.5 * (13.0 - m[1])
        lam = half * x + (13.0 - half)
        tail = half * np.sum(w * kernel(full, lam, lam))
        up = [cdf_lambda_max(m[0], n) < 1e-13, tail > 1e-13]
        a, b = np.where(up, m, a), np.where(up, b, m)
    y_lo, y_hi = 0.5 * (a + b)
    y_lo -= left_extension
    x, w = gauss_rule(_GL_NODES)
    y_nodes = 0.5 * (y_hi - y_lo) * x + 0.5 * (y_hi + y_lo)
    weights = 0.5 * (y_hi - y_lo) * w
    sys = build_ortho_system(y_nodes, n)
    return (y_lo, y_hi, weights, sys, _cdf_from_norms(sys.h),
            psi(sys, y_nodes))


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
    _, _, weights, sys, cdf_vals, psi_y = _node_set(r_arr, n)
    k_yy = np.sum(psi_y * psi_y, axis=0)
    flat = r_arr.reshape(-1, 1)
    total = np.empty(flat.size)
    for i in range(0, flat.size, _R_BLOCK):
        # one recurrence at y - r for a block of r (rows) and every node
        # (columns), its terms summed into the kernels as they come, in the
        # order of np.sum
        terms = _psi_terms(sys, sys.y - flat[i:i + _R_BLOCK])
        psi_r = next(terms)
        k_rr, k_yr = psi_r * psi_r, psi_y[0] * psi_r
        for psi_k, psi_r in zip(psi_y[1:], terms):
            k_rr += psi_r * psi_r
            k_yr += psi_k * psi_r
        total[i:i + _R_BLOCK] = np.sum(
            weights * cdf_vals * (k_yy * k_rr - k_yr * k_yr), axis=-1)
    total = total.reshape(r_arr.shape) / (n - 1)
    return float(total) if r_arr.ndim == 0 else total


def rule_header(n: int, quantity: str, r: np.ndarray | None = None) -> str:
    """CSV header line naming the Gauss rule and, for the quantity "dos" or
    "gap" at the distances r, the window of the node set that serves it (the
    gap PDF at r is dos_exact at -r)."""
    line = (f"rule: Gauss-Legendre, {_GL_NODES} nodes, inner products on "
            "[min(-13, y - 2), min(y, 13)]")
    if quantity != "cdf":
        window = _node_set(-r if quantity == "gap" else r, n)[:2]
        line += "; y integral on [{:.6g}, {:.6g}]".format(*window)
    return line


def gap_pdf_exact(r: float | np.ndarray, n: int) -> float | np.ndarray:
    """PDF of the first gap d = lambda_1 - lambda_2 at matrix size n:
    p_gap(r) = (N - 1) * dos_exact(-r), for a scalar or an array r."""
    if not 2 <= n <= MAX_MATRIX_SIZE:
        raise ValueError(f"gap_pdf_exact needs n in [2, {MAX_MATRIX_SIZE}]")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("gap distance must be >= 0")
    return (n - 1) * dos_exact(-r, n)


def __getattr__(name):
    # not called here: perfbench/tracing.py looks up `finite_n.quad` by name
    # at start-up; it resolves on demand so that importing this module does
    # not load scipy.integrate
    if name == "quad":
        from scipy.integrate import quad
        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
