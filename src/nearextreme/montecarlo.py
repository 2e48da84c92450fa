"""Monte Carlo GUE spectra via the tridiagonal beta = 2 model.

For the eigenvalue weight e^(-sum lambda_i^2) the equivalent symmetric
tridiagonal matrix has Normal(0, 1/2) diagonal entries and sub-diagonal
entries sqrt(G_k / 2) with G_k ~ Gamma(n - k, 1).  Spectra cost O(n^2)
instead of the O(n^3) of dense Hermitian sampling, which is what makes the
2e5 x (n = 1000) validation runs feasible.  A dense reference sampler is
kept for cross-checks at small n.

No histogram solves for an eigenvalue but lambda_max: the number of
eigenvalues at or below x is the number of non-positive pivots of the
LDL^T factorisation of T - x I (Sturm counts; Barth, Martin & Wilkinson,
Numer. Math. 9 (1967) 386), an O(m) recurrence that runs vectorised over
draws and bin edges.  :func:`count_histogram` finds lambda_max of each
slab of draws on the counts, from a bracket of the slab's largest
diagonal and sub-diagonal entries, and then counts once at
lambda_max - r_j for every bin edge r_j (the DOS), or finds each draw's
first gap by a binary search over the bin edges, a count at one edge per
step (the gap).  lambda_max is the float that a bisection on the counts
ends on, reached by bisection, Newton steps and a shorter bisection
(:func:`_lambda_max`).
:func:`sample_spectrum` solves for eigenvalues; the tests use it as the
reference.

The top eigenvalues of the tridiagonal model live in its top-left corner,
on a scale of n^(1/3) (the stochastic Airy limit; Dumitriu & Edelman,
J. Math. Phys. 43 (2002) 5830; Edelman & Sutton, J. Stat. Phys. 127 (2007)
1121).  So the gap (top 2) and the edge-scaled DOS are counted on each
draw's top-left block of size min(n, ceil(30 n^(1/3))) only: 300 at
n = 1000, 647 at n = 10^4, the whole matrix up to n = 165.  On the same
draws the top 16 of that block match the full spectrum's to <= 7.3e-12 at
n = 200, 1000 and 10^4, the level at which the two LAPACK solvers
disagree; a block of ceil(20 n^(1/3)) misses the 16th eigenvalue by up to
0.055, one of ceil(15 n^(1/3)) by up to 0.71.  So every eigenvalue that
the edge DOS counts inside its last bin edge r_last must be among the
block's top EDGE_TOP_K: it refuses draws with EDGE_TOP_K or more
eigenvalues above lambda_max - r_last.  The block's entries are
independent, with the law they have in the whole matrix, so only they are
drawn: :meth:`TridiagonalSpectrumSampler.slabs` makes each draw's m normals
and m - 1 gammas, O(n^(1/3)) numbers instead of 2n - 1.  So the draws of
the gap and the edge DOS depend on whether the block or the whole matrix
is drawn (m < n from n = 166 on); at the same m they are the same floats,
whatever the slabs they are made in: the normals come from one spawned
Philox stream and the gammas from another, draw after draw.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

# largest n solved as one batch of dense matrices; per-row tridiagonal
# solves overtake the batch between n = 32 and n = 40
_DENSE_MAX_N = 32
# a top-left block of ceil(_BLOCK_C n^(1/3)) rows holds the top EDGE_TOP_K
# eigenvalues to roundoff; 20 does not (module docstring)
_BLOCK_C = 30
#: most eigenvalues per draw that the top-left block gives to full accuracy
EDGE_TOP_K = 16
# numbers made per call of a stream's generator: the diagonals (or the
# sub-diagonals) of whole draws, or of one draw where they do not fit
_PIECE = 2**14
# slabs hold at most _SLAB_DRAWS draws, fewer where their d and e^2 would
# pass _SLAB_BYTES (past m = 1024, n > 3.9e4), and at least one.  Each sweep
# over a slab makes a numpy call per row, so larger slabs count faster but
# hold more: in slabs of 2,048 / 4,096 / 8,192 draws, 1e5 bulk DOS draws
# at n = 32 count in 1.00 / 0.99 / 0.93 s and trace 2.2 / 3.1 / 5.0 MiB,
# and 5,000 gap draws at n = 1000 in 0.27 / 0.25 / 0.22 s and 8.0 / 11.8 /
# 23.6 MiB
_SLAB_DRAWS = 4096
_SLAB_BYTES = 64 * 2**20
# (draw, bin edge) pairs per tile of a Sturm count, few enough that its
# work arrays stay in cache (1.8 times as fast as a whole slab at n = 32;
# 2**14 and 2**16 are 10-25 % slower there)
_TILE = 2**15


@dataclass(frozen=True)
class TridiagonalSpectrumSampler:
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def slabs(self, count: int, m: int, size: int):
        """Draws 0 .. count - 1 of the top-left m-row block, one per
        column, in the fewest slabs of at most `size` draws, evened: yields
        d (m, draws), the diagonals, and e (m - 1, draws), the
        sub-diagonals.  d comes from one Philox stream and e from another,
        both spawned from SeedSequence(seed) on every call and made draw
        after draw, at most _PIECE numbers a call, so a draw is the same
        float in any slab, piece or count.  With m = n this is the whole
        draw; with m < n a draw of the block's law, not the whole draw's
        first rows.  Every slab is drawn into one buffer, so it holds its
        draws only until the next slab is drawn."""
        if count < 1:
            raise ValueError("count must be >= 1")
        d_rng, e_rng = (np.random.Generator(np.random.Philox(child)) for child
                        in np.random.SeedSequence(self.seed).spawn(2))
        # sub-diagonal k of a draw is sqrt(G / 2), G ~ Gamma(n - 1 - k, 1)
        shape = np.arange(self.n - 1, self.n - m, -1, dtype=float)
        slabs = -(-count // size)
        # every slab but a shorter last one holds ceil(count / slabs) draws
        size, step = -(-count // slabs), max(1, _PIECE // m)
        d_buf, e_buf = np.empty((m, size)), np.empty((m - 1, size))
        for at in range(0, count, size):
            d, e = d_buf[:, :count - at], e_buf[:, :count - at]
            for j in range(0, d.shape[1], step):
                rows = min(step, d.shape[1] - j)
                # Normal(0, 1/2) as Generator.normal forms it, sigma z + 0
                # (the 0 turns a -0.0 into 0.0)
                d[:, j:j + rows] = (d_rng.standard_normal((rows, m)).T
                                    * math.sqrt(0.5) + 0.0)
                e[:, j:j + rows] = np.sqrt(e_rng.standard_gamma(
                    shape, size=(rows, m - 1)).T / 2.0)
            yield d, e

    def draw(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """The first `size` whole draws of :meth:`slabs`, one per row:
        diagonals (size, n) and sub-diagonals (size, n - 1)."""
        d, e = next(self.slabs(size, self.n, size))
        return d.T, e.T


@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray
    total_samples: int

    def density(self) -> np.ndarray:
        """Counts normalized to a probability density (unit weight per
        sample, divided by bin width)."""
        widths = np.diff(self.bin_edges)
        return self.counts / (self.total_samples * widths)

    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[1:] + self.bin_edges[:-1])

    def stderr(self) -> np.ndarray:
        """Poisson standard error on the density."""
        widths = np.diff(self.bin_edges)
        return np.sqrt(np.maximum(self.counts, 1.0)) / (
            self.total_samples * widths)


def block_size(n: int, top_k: Optional[int]) -> int:
    """Size of the top-left block each draw is solved on: n if top_k is
    None or above EDGE_TOP_K, else min(n, ceil(_BLOCK_C n^(1/3))), the same
    block for every top_k <= EDGE_TOP_K."""
    if top_k is None or top_k > EDGE_TOP_K:
        return n
    return min(n, math.ceil(_BLOCK_C * n ** (1.0 / 3.0)))


def count_header(n: int, scaling: str) -> str:
    """CSV header line: the draw layout and the matrix that
    :func:`count_histogram` draws and counts on for (n, scaling); the gap
    counts on the edge block."""
    m = block_size(n, EDGE_TOP_K) if scaling == "edge" else n
    drawn = "top-left block" if m < n else "full"
    on = f"top-left block m = {m} of n = {n}" if m < n else "full matrix"
    return (f"draw: 2 Philox streams, {drawn} d/e draw; eigensolve: "
            f"Sturm counts below bisected lambda_max, {on}")


def _slab_size(m: int) -> int:
    """Draws per slab of an m-row block, by the rule of _SLAB_DRAWS."""
    return max(1, min(_SLAB_DRAWS, _SLAB_BYTES // ((2 * m - 1) * 8)))


def sample_spectrum(sampler: TridiagonalSpectrumSampler, count: int,
                    top_k: Optional[int] = None) -> np.ndarray:
    """Draw `count` spectra, each sorted descending.

    With `top_k` set, only the k largest eigenvalues per draw are kept; the
    result has shape (count, k) instead of (count, n).  Each draw is of the
    top-left :func:`block_size` block, so the draws are fixed by (n, seed)
    and the block size, and the first c are the same for any count >= c:
    every `top_k` up to EDGE_TOP_K solves the same draws, and so do None
    and every larger `top_k`, but the two groups solve different matrices
    where the block is smaller than n.  Up to n = 32 a slab is solved as
    one batch of dense matrices, and holds at most _PIECE matrix entries
    (16 draws at n = 32); above, row by row by scipy's tridiagonal solver
    (scipy is needed there), for the k largest eigenvalues of the block.
    The slabs fill one (count, k) result.
    """
    n = sampler.n
    k = n if top_k is None else min(top_k, n)
    m = block_size(n, top_k)
    dense = n <= _DENSE_MAX_N  # m = n
    out = np.empty((count, k))
    at = 0
    size = max(1, _PIECE // (n * n)) if dense else _slab_size(m)
    for d, e in sampler.slabs(count, m, size):
        size = d.shape[1]
        if dense:
            a = np.zeros((size, n, n))
            idx = np.arange(n)
            a[:, idx, idx] = d.T
            a[:, idx[:-1], idx[1:]] = e.T
            a[:, idx[1:], idx[:-1]] = e.T
            out[at:at + size] = np.linalg.eigvalsh(a)[:, ::-1][:, :k]
        else:
            # looked up on the module, so that a wrapper set there is
            # called; __getattr__ imports it on first use
            solve = sys.modules[__name__].eigvalsh_tridiagonal
            select = "a" if k == m else "i"
            for i in range(size):
                out[at + i] = solve(d[:, i], e[:, i], select=select,
                                    select_range=(m - k, m - 1))[::-1]
        at += size
    return out


def _count_at_or_below(d: np.ndarray, e2: np.ndarray,
                       x: np.ndarray) -> np.ndarray:
    """How many eigenvalues of each draw's tridiagonal matrix lie at or
    below each x: the non-positive pivots of the LDL^T factorisation of
    T - x I.  d (m, B) and e2 (m - 1, B) hold the diagonals and squared
    sub-diagonals of B draws, one per column; x is (K, B), K points per
    draw, so that the rows d[i] and e2[i - 1] broadcast along the
    contiguous rows of x.  The result is (K, B).  The signs are tallied
    in a byte counter, which is flushed into the int32 result every 255
    rows, before it can overflow.

    Inner pivots count by sign bit, with no pivmin guard: IEEE arithmetic
    turns a zero pivot into an infinite next one of the opposite sign,
    which keeps the count right while no sub-diagonal is 0 (Demmel,
    Dhillon & Ren, ETNA 3 (1995) 116).  A zero last pivot means that x is
    an eigenvalue, which counts, as in LAPACK's dstebz.
    """
    q = d[0] - x
    t = np.empty_like(q)
    neg = np.empty(q.shape, bool)
    tally = np.zeros(q.shape, np.uint8)
    count = np.zeros(q.shape, np.int32)
    with np.errstate(divide="ignore"):  # a zero pivot's infinite successor
        for i in range(1, d.shape[0]):
            tally += np.signbit(q, out=neg).view(np.uint8)
            np.divide(e2[i - 1], q, out=t)
            np.subtract(d[i], x, out=q)
            q -= t
            if i % 255 == 0:
                count += tally
                tally.fill(0)
    count += tally
    count += q <= 0.0
    return count


def _bisect(d: np.ndarray, e2: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            isolate: bool = False):
    """Bisect each draw's bracket (lo, hi] (d, e2 as in
    :func:`_count_at_or_below`) on the counts: the midpoint becomes hi
    where all m eigenvalues lie at or below it, lo elsewhere.  This goes on
    until every draw's midpoint equals an end of its bracket or, with
    `isolate`, is isolated: one of its midpoints had a count of m - 1, so
    that lambda_max alone lies in (lo, hi].  Returns lo, hi and which
    draws are isolated."""
    m = d.shape[0]
    isolated = np.zeros(lo.shape, bool)
    while True:
        mid = 0.5 * (lo + hi)
        if np.all(isolated | (mid == lo) | (mid == hi)):
            return lo, hi, isolated
        below = _count_at_or_below(d, e2, mid[None])[0]
        full = below == m
        hi = np.where(full, mid, hi)
        lo = np.where(full, lo, mid)
        if isolate:
            isolated |= below == m - 1


def _newton_bracket(d: np.ndarray, e2: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray, isolated: np.ndarray):
    """(lo, hi) narrowed to [x - 4 ulp, x + 4 ulp] around lambda_max's
    Newton iterate x in every isolated draw where one two-point count
    confirms it: fewer than m eigenvalues at or below the lower end, all m
    at or below the upper; the other draws keep (lo, hi).

    Newton runs from hi on det(T - x I) = prod q_i, the LDL^T pivots: with
    q'_0 = -1 and q'_i = -1 + (e2_(i-1) / q_(i-1)^2) q'_(i-1), the sum
    G = sum q'_i / q_i equals sum_k 1 / (x - lambda_k), and the step 1 / G
    descends monotonically onto lambda_max for a real-rooted polynomial.
    Each step is clamped at lo, and a draw stops once its step is no
    longer more than 2 ulp or no longer lowers x.  The ulp is that of the
    larger of |hi| and the largest |d_i|, the scale of the pivots'
    roundoff, so that a lambda_max near 0 is not held to a finer one."""
    m = d.shape[0]
    ulp = np.spacing(np.maximum(np.abs(hi),
                                np.maximum(d.max(axis=0), -d.min(axis=0))))
    x = hi.copy()
    moving = isolated.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while moving.any():
            q = d[0] - x
            w = -1.0 / q  # q'_i / q_i
            g = w.copy()
            t = np.empty_like(q)
            for i in range(1, m):
                np.divide(e2[i - 1], q, out=t)
                np.subtract(d[i], x, out=q)
                q -= t
                w *= t
                w -= 1.0
                w /= q
                g += w
            step = 1.0 / g
            lower = np.maximum(x - step, lo)
            moving &= (step > 2.0 * ulp) & (lower < x)
            x = np.where(moving, lower, x)
    ends = np.stack([np.maximum(lo, x - 4.0 * ulp),
                     np.minimum(hi, x + 4.0 * ulp)])
    below = _count_at_or_below(d, e2, ends)
    ok = isolated & (below[0] < m) & (below[1] == m)
    return np.where(ok, ends[0], lo), np.where(ok, ends[1], hi)


def _lambda_max(d: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Each draw's largest eigenvalue (d, e2 as in
    :func:`_count_at_or_below`): the smallest float at which the count
    reaches m, bisected from the bracket [max_i d_i, max_i d_i + 2 max_i
    e_i], two reductions over the rows of the slab.  The lower end is a
    Rayleigh quotient; the upper one is at or above the Gershgorin bound
    max_i (d_i + e_(i-1) + e_i), which lambda_max lies below by far more
    than roundoff (by 2 e (1 - cos(pi / (m + 1))) for constant d and e).

    A bisection to the last ulp takes about 52 sweeps over the slab; three
    stages reach the same float in about 20, because the count is
    monotone in x in IEEE arithmetic in this evaluation order (Demmel,
    Dhillon & Ren), so any method that ends on the smallest float with
    count m ends on the bisection's:

    1. :func:`_bisect` with `isolate`, until every draw is isolated or its
       bracket's ends are adjacent floats (a top pair that never
       separates ends there, as in a plain bisection): 7-13 sweeps;
    2. :func:`_newton_bracket` in the isolated draws: 5-8 Newton sweeps
       and one confirming count of an 8-ulp bracket;
    3. :func:`_bisect` until the midpoint equals an end of the bracket in
       every draw: 3-4 sweeps (up to 13 at n = 2, where lambda_max can
       lie near 0 on the pivots' scale), or the rest of the bisection for
       a draw whose Newton bracket was not confirmed.
    """
    lo = d.max(axis=0)
    hi = lo + 2.0 * np.sqrt(e2.max(axis=0))
    lo, hi, isolated = _bisect(d, e2, lo, hi, isolate=True)
    lo, hi = _newton_bracket(d, e2, lo, hi, isolated)
    return _bisect(d, e2, lo, hi)[1]


def _gap_edge(d: np.ndarray, e2: np.ndarray, top: np.ndarray,
              r: np.ndarray) -> np.ndarray:
    """Per draw (d, e2 as in :func:`_count_at_or_below`, top its
    lambda_max), the last j in -1 .. K - 1 with lambda_2 <= top - r_j, for
    K increasing r: the gap lies in [r_j, r_(j+1)).  lambda_2 <= x exactly
    when at least m - 1 eigenvalues lie at or below x.  A binary search
    between the virtual edges r_-1 = -inf (always met) and r_K = +inf
    (never met) counts at one edge per draw and step."""
    m = d.shape[0]
    lo = np.full(top.shape, -1)
    hi = np.full(top.shape, r.size)
    while True:
        open_ = hi - lo > 1
        if not open_.any():
            return lo
        # lo < mid < hi where open; a closed draw's count is discarded
        mid = (lo + hi) // 2
        x = (top - r[mid])[None]
        met = _count_at_or_below(d, e2, x)[0] >= m - 1
        lo = np.where(open_ & met, mid, lo)
        hi = np.where(open_ & ~met, mid, hi)


def count_histogram(sampler: TridiagonalSpectrumSampler, count: int,
                    quantity: str, scaling: str = "edge",
                    bin_edges: Optional[np.ndarray] = None) -> Histogram:
    """The histogram that :func:`empirical_gap` (quantity "gap", in the
    edge variable) or :func:`empirical_dos` (quantity "dos", in bulk or
    edge variables) makes from the spectra of the same draws, from
    eigenvalue counts.

    Slab after slab of :meth:`TridiagonalSpectrumSampler.slabs` (of
    :func:`_slab_size` draws), :func:`_lambda_max` finds lambda_max of
    every draw.  The DOS then counts once at lambda_max - r_j for all bin
    edges r_j; the bins are differences of these counts.  The gap's bin
    comes from :func:`_gap_edge`.  A distance of exactly r_j falls in the
    bin that starts at r_j, as in np.histogram, but for the last edge,
    which np.histogram includes; lambda_max itself is below no edge.  The
    gap and the edge DOS count on the top-left :func:`block_size` block
    and, as :func:`empirical_dos` refuses top-EDGE_TOP_K spectra that do
    not reach the last edge, the edge DOS refuses draws with EDGE_TOP_K or
    more eigenvalues above it.
    """
    n = sampler.n
    if n < 2:
        raise ValueError("need spectra with at least 2 eigenvalues")
    if quantity not in ("gap", "dos"):
        raise ValueError("quantity must be 'gap' or 'dos'")
    if scaling == "bulk" and quantity == "dos":
        r_per_x, default_hi, m = math.sqrt(n), 2.0 * math.sqrt(2.0), n
    elif scaling == "edge":
        r_per_x = 1.0 / (math.sqrt(2.0) * n ** (1.0 / 6.0))
        default_hi = 8.0
        m = block_size(n, EDGE_TOP_K)
    else:
        raise ValueError("scaling must be 'bulk' or 'edge' for the DOS, "
                         "'edge' for the gap")
    if bin_edges is None:
        bin_edges = np.linspace(0.0, default_hi, 81)
    edges = np.asarray(bin_edges, float)
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise ValueError("bin edges must increase strictly")
    r = edges * r_per_x
    tile = max(1, _TILE // edges.size)

    def run_slab(d, e):
        """The tally of a slab of d and e as :meth:`slabs` yields them and,
        for the DOS, the most eigenvalues above the last edge in a draw."""
        size = d.shape[1]
        e2 = np.square(e, out=e)
        top = _lambda_max(d, e2)
        if quantity == "gap":
            # index j + 1: 0 below the first edge, K at or past the last
            j = _gap_edge(d, e2, top, r)
            return np.bincount(j + 1, minlength=edges.size + 1), 0
        below = np.zeros(edges.size, np.int64)
        most_above = 0
        for s in range(0, size, tile):
            cols = slice(s, s + tile)
            k = _count_at_or_below(d[:, cols], e2[:, cols],
                                   top[cols] - r[:, None])
            # lambda_max lies below no edge, though the count at the
            # bisected lambda_max (r = 0) includes it
            np.minimum(k, m - 1, out=k)
            below += k.sum(axis=1)
            most_above = max(most_above, m - int(k[-1].min()))
        return below, most_above

    # one slab after another, each drawn into the buffer of the one before
    tally, most_above = 0, 0
    for d, e in sampler.slabs(count, m, _slab_size(m)):
        part, above = run_slab(d, e)
        tally += part
        most_above = max(most_above, above)
    if quantity == "gap":
        return Histogram(bin_edges=edges, counts=tally[1:-1],
                         total_samples=count)
    # at n <= EDGE_TOP_K every eigenvalue is among the top EDGE_TOP_K
    if scaling == "edge" and n > EDGE_TOP_K and most_above >= EDGE_TOP_K:
        raise ValueError(
            f"{EDGE_TOP_K} or more eigenvalues lie within the last bin edge "
            f"{edges[-1]:g} of lambda_max in some draw; the edge DOS counts "
            f"only the top {EDGE_TOP_K} of the top-left block")
    return Histogram(bin_edges=edges, counts=tally[:-1] - tally[1:],
                     total_samples=count * (n - 1))


def sample_dense_gue(n: int, count: int, seed: int) -> np.ndarray:
    """Reference sampler: dense Hermitian matrices for exp(-Tr H^2)
    (diagonal ~ Normal(0, 1/2); off-diagonal re/im ~ Normal(0, 1/4)).
    Returns spectra sorted descending, shape (count, n)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    s2 = math.sqrt(2.0)
    a = rng.normal(0.0, 0.5, (count, n, n))
    b = rng.normal(0.0, 0.5, (count, n, n))
    h = (a + a.transpose(0, 2, 1)) / s2 + 1j / s2 * (b - b.transpose(0, 2, 1))
    idx = np.arange(n)
    h[:, idx, idx] = rng.normal(0.0, math.sqrt(0.5), (count, n))
    ev = np.linalg.eigvalsh(h)
    return ev[:, ::-1]


def empirical_dos(samples: np.ndarray, scaling: str, n: int,
                  bin_edges: Optional[np.ndarray] = None) -> Histogram:
    """Histogram of distances lambda_max - lambda_i (i past the maximum),
    weight 1/(N-1) per distance, in bulk (r / sqrt N) or edge
    (sqrt 2 N^(1/6) r) variables.

    The bulk-scaled density estimates the shifted semicircle directly;
    the edge-scaled density estimates rho_edge_scaling / N (multiply by N
    to compare with the scaling curve).  Spectra truncated to their top k
    (k < n) are refused unless every draw's k-th distance reaches the last
    bin edge, so that no distance inside the bins is missing."""
    if samples.shape[0] == 0 or samples.shape[1] < 2:
        raise ValueError("need spectra with at least 2 eigenvalues")
    dist = samples[:, :1] - samples[:, 1:]
    if scaling == "bulk":
        x = dist / math.sqrt(n)
        default_hi = 2.0 * math.sqrt(2.0)
    elif scaling == "edge":
        x = math.sqrt(2.0) * n ** (1.0 / 6.0) * dist
        default_hi = 8.0
    elif scaling == "raw":
        x = dist
        default_hi = float(np.percentile(dist, 99.9))
    else:
        raise ValueError("scaling must be 'bulk', 'edge' or 'raw'")
    if bin_edges is None:
        bin_edges = np.linspace(0.0, default_hi, 81)
    # a truncated spectrum counts every distance in the bins only if each
    # draw's last kept distance lies at or beyond the last edge
    if samples.shape[1] < n and np.any(x[:, -1] < bin_edges[-1]):
        raise ValueError(
            f"{samples.shape[1]} of {n} eigenvalues per draw do not reach "
            f"the last bin edge {bin_edges[-1]:g} in every draw; keep more")
    counts, _ = np.histogram(x.ravel(), bins=bin_edges)
    # density convention: each sample contributes total weight
    # (#distances)/(N-1); with the full spectrum that is exactly 1
    hist = Histogram(bin_edges=np.asarray(bin_edges, float),
                     counts=counts,
                     total_samples=samples.shape[0] * (n - 1))
    return hist


def empirical_gap(samples: np.ndarray, n: int,
                  bin_edges: Optional[np.ndarray] = None,
                  scaled: bool = True) -> Histogram:
    """Histogram of the first gap lambda_1 - lambda_2, by default in the
    edge variable sqrt 2 N^(1/6) (lambda_1 - lambda_2)."""
    if samples.shape[0] == 0 or samples.shape[1] < 2:
        raise ValueError("need spectra with at least 2 eigenvalues")
    g = samples[:, 0] - samples[:, 1]
    if scaled:
        g = math.sqrt(2.0) * n ** (1.0 / 6.0) * g
    if bin_edges is None:
        bin_edges = np.linspace(0.0, 8.0, 81)
    counts, _ = np.histogram(g, bins=bin_edges)
    return Histogram(bin_edges=np.asarray(bin_edges, float), counts=counts,
                     total_samples=samples.shape[0])


def __getattr__(name):
    # sample_spectrum's per-row solver, imported on first use so that
    # importing this module, and the counts of count_histogram, load no
    # scipy
    if name == "eigvalsh_tridiagonal":
        from scipy.linalg import eigvalsh_tridiagonal
        return eigvalsh_tridiagonal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
