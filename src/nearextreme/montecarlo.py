"""Monte Carlo GUE spectra via the tridiagonal beta = 2 model.

For the eigenvalue weight e^(-sum lambda_i^2) the equivalent symmetric
tridiagonal matrix has Normal(0, 1/2) diagonal entries and sub-diagonal
entries sqrt(G_k / 2) with G_k ~ Gamma(n - k, 1).  Spectra cost O(n^2)
instead of the O(n^3) of dense Hermitian sampling, which is what makes the
2e5 x (n = 1000) validation runs feasible.  A dense reference sampler is
kept for cross-checks at small n.

The top eigenvalues of the tridiagonal model live in its top-left corner,
on a scale of n^(1/3) (the stochastic Airy limit; Dumitriu & Edelman,
J. Math. Phys. 43 (2002) 5830; Edelman & Sutton, J. Stat. Phys. 127 (2007)
1121).  So when at most EDGE_TOP_K of them are kept, each draw is solved
on its top-left block of size min(n, ceil(30 n^(1/3))) only: 300 at
n = 1000, 647 at n = 10^4, the whole matrix up to n = 165.  On the same
draws the top 16 of that block match the full spectrum's to <= 7.3e-12 at
n = 200, 1000 and 10^4, the level at which the two LAPACK solvers
disagree; a block of ceil(20 n^(1/3)) misses the 16th eigenvalue by up to
0.055, one of ceil(15 n^(1/3)) by up to 0.71.  The whole matrix is still
drawn, so the block changes no draw.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

# fixed logical chunk count: the sample stream is identical for any
# worker count because chunk c always uses spawned stream c
_N_CHUNKS = 64
# largest n solved as one batch of dense matrices; per-row tridiagonal
# solves overtake the batch between n = 32 and n = 40
_DENSE_MAX_N = 32
# a top-left block of ceil(_BLOCK_C n^(1/3)) rows holds the top EDGE_TOP_K
# eigenvalues to roundoff; 20 does not (module docstring)
_BLOCK_C = 30
#: most eigenvalues per draw that the top-left block gives to full accuracy
EDGE_TOP_K = 16


@dataclass(frozen=True)
class TridiagonalSpectrumSampler:
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    def _rng(self, chunk: int):
        children = np.random.SeedSequence(self.seed).spawn(_N_CHUNKS)
        return np.random.Generator(np.random.Philox(children[chunk]))


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


def _chunk_sizes(count: int) -> list[int]:
    base = count // _N_CHUNKS
    sizes = [base] * _N_CHUNKS
    for i in range(count - base * _N_CHUNKS):
        sizes[i] += 1
    return sizes


def block_size(n: int, top_k: Optional[int]) -> int:
    """Size of the top-left block each draw is solved on: n, unless at
    most EDGE_TOP_K eigenvalues are kept."""
    if top_k is None or top_k > EDGE_TOP_K:
        return n
    return min(n, math.ceil(_BLOCK_C * n ** (1.0 / 3.0)))


def solve_header(n: int, top_k: Optional[int]) -> str:
    """CSV header line: the draw layout and the eigensolve branch that
    :func:`sample_spectrum` takes for (n, top_k)."""
    k = n if top_k is None else min(top_k, n)
    m = block_size(n, top_k)
    if n <= _DENSE_MAX_N:
        solve = "dense batch"
    elif m < n:
        solve = f"per-row tridiagonal, top-left block m = {m} of n = {n}"
    else:
        solve = "per-row tridiagonal, full matrix"
    return (f"draw: {_N_CHUNKS} Philox chunks, full d/e draw; "
            f"eigensolve: {solve}; k = {k}")


def sample_spectrum(sampler: TridiagonalSpectrumSampler, count: int,
                    threads: int = 1, top_k: Optional[int] = None
                    ) -> np.ndarray:
    """Draw `count` spectra, each sorted descending.

    With `top_k` set, only the k largest eigenvalues per draw are kept; the
    result has shape (count, k) instead of (count, n).  Each chunk draws
    all its diagonals, then all its sub-diagonals, so the draws are
    deterministic in (n, seed, count) and depend neither on the thread
    count nor on `top_k`.  Up to n = 32 a chunk is solved as one batch of
    dense matrices; above, row by row with the tridiagonal solver, which
    then computes only the k largest eigenvalues of the top-left
    :func:`block_size` block.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = sampler.n
    k = n if top_k is None else min(top_k, n)
    m = block_size(n, top_k)
    shape = np.arange(n - 1, 0, -1, dtype=float)

    def run_chunk(args) -> np.ndarray:
        chunk, size = args
        rng = sampler._rng(chunk)
        d = rng.normal(0.0, math.sqrt(0.5), (size, n))
        e = np.sqrt(rng.gamma(shape, size=(size, n - 1)) / 2.0)
        if n <= _DENSE_MAX_N:
            a = np.zeros((size, n, n))
            idx = np.arange(n)
            a[:, idx, idx] = d
            a[:, idx[:-1], idx[1:]] = e
            a[:, idx[1:], idx[:-1]] = e
            return np.linalg.eigvalsh(a)[:, ::-1][:, :k]
        select = "a" if k == m else "i"
        out = np.empty((size, k))
        for i in range(size):
            out[i] = eigvalsh_tridiagonal(
                d[i, :m], e[i, :m - 1], select=select,
                select_range=(m - k, m - 1))[::-1]
        return out

    jobs = [(c, s) for c, s in enumerate(_chunk_sizes(count)) if s > 0]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            parts = list(ex.map(run_chunk, jobs))
    else:
        parts = [run_chunk(j) for j in jobs]
    return np.vstack(parts)


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
