"""Tridiagonal GUE sampler, its eigensolve branches (dense batch, full
tridiagonal, top-left block), empirical estimators, and the Sturm-count
gap and DOS histograms."""

import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp

from nearextreme import montecarlo as mc


def test_draw_uses_the_spawned_child_streams():
    # the diagonals come from child 0 of SeedSequence(seed) and the
    # sub-diagonals from child 1, spawned anew on every call; every draw
    # restarts both streams
    sampler = mc.TridiagonalSpectrumSampler(n=6, seed=9)
    d_rng, e_rng = (np.random.Generator(np.random.Philox(child))
                    for child in np.random.SeedSequence(9).spawn(2))
    d = d_rng.normal(0.0, math.sqrt(0.5), (4, 6))
    e = np.sqrt(e_rng.gamma(np.arange(5.0, 0.0, -1.0), size=(4, 5)) / 2.0)
    for _ in range(2):
        got_d, got_e = sampler.draw(4)
        assert np.array_equal(got_d, d) and np.array_equal(got_e, e)


def _reference_draw(n, seed, size, m=None):
    """The first `size` draws of the top-left m-row block (m = n by
    default) as one call per stream: all diagonals (size, m), then all
    sub-diagonals (size, m - 1)."""
    m = n if m is None else m
    d_rng, e_rng = (np.random.Generator(np.random.Philox(child))
                    for child in np.random.SeedSequence(seed).spawn(2))
    d = d_rng.normal(0.0, math.sqrt(0.5), (size, m))
    shape = np.arange(n - 1, n - m, -1, dtype=float)
    return d, np.sqrt(e_rng.gamma(shape, size=(size, m - 1)) / 2.0)


class WholeDrawSampler(mc.TridiagonalSpectrumSampler):
    """A sampler whose top-left blocks are the leading entries of each
    whole draw (:meth:`slabs` with m = n, sliced to the block), so that the
    block and the whole matrix are solved or counted on the same draws."""

    def slabs(self, count, m, size):
        for d, e in super().slabs(count, self.n, size):
            yield d[:m], e[:m - 1]


@pytest.mark.parametrize("n", (2, 40, 1000))
def test_fill_in_pieces_is_the_whole_draw(monkeypatch, n):
    # pieces of one draw, pieces of one row where a row does not fit (down
    # to one number), and pieces larger than the slab give the block's m
    # diagonal and m - 1 sub-diagonal entries as one call per stream makes
    # them, float for float, for the block m < n and for the whole draw
    # m = n, in one slab and in slabs of 3 draws and a last one of 1
    count = 7
    sampler = mc.TridiagonalSpectrumSampler(n=n, seed=31)
    d_ref, e_ref = _reference_draw(n, 31, count)
    d_all, e_all = sampler.draw(count)
    assert np.array_equal(d_all, d_ref) and np.array_equal(e_all, e_ref)
    for piece in (n, 1, n // 3 + 1, 10 * count * n):
        monkeypatch.setattr(mc, "_PIECE", piece)
        for m in (max(1, n // 3), n):
            d_ref, e_ref = _reference_draw(n, 31, count, m)
            for size in (count, 3):
                slabs = [(d.copy(), e.copy())
                         for d, e in sampler.slabs(count, m, size)]
                assert [d.shape[1] for d, _ in slabs] == (
                    [7] if size == count else [3, 3, 1])
                d = np.hstack([d for d, _ in slabs])
                e = np.hstack([e for _, e in slabs])
                assert np.array_equal(d, d_ref.T), (piece, m, size)
                assert np.array_equal(e, e_ref.T), (piece, m, size)


#: sha256 of the first slab's d and e bytes at seed 3, by (n, m, draws),
#: as numpy 2.4.6's Philox, normals and gammas make them
DRAW_DIGESTS = {
    (32, 32, 10): (
        "ca60c95c9f8ac78258be343cf31e700a66e090c23418517127087c4a960623b0",
        "fe66f45d6b4fe984fdd2404f9391bed0b5f201bcaad52cf8ef1bf30de0a2f68c"),
    (1000, 300, 5): (
        "ca17cf7f922a1710d26691409230b9b00b6a6d7f33f8a7dd80ad997ce0c07484",
        "a596063cdaa7101e9da53526e3805c1e283094e3ad50680d98f096982407bc03"),
}


@pytest.mark.parametrize("n, m, count", sorted(DRAW_DIGESTS))
def test_draw_stream_is_pinned(n, m, count):
    # the slabs' d and e are these floats, bit for bit, however the pieces
    # are drawn and scaled; the digests hold only for the numpy that made
    # them
    d, e = next(mc.TridiagonalSpectrumSampler(n=n, seed=3).slabs(
        count, m, count))
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (d, e))
    if got != DRAW_DIGESTS[n, m, count] and np.__version__ != "2.4.6":
        pytest.skip(f"draws differ on numpy {np.__version__}; the digests "
                    "were made on 2.4.6")
    assert got == DRAW_DIGESTS[n, m, count]


def test_sampler_validation():
    with pytest.raises(ValueError):
        mc.TridiagonalSpectrumSampler(n=0, seed=1)
    sampler = mc.TridiagonalSpectrumSampler(n=4, seed=1)
    with pytest.raises(ValueError):
        mc.sample_spectrum(sampler, 0)


def test_determinism():
    # n = 20 takes the batched dense eigensolve, n = 40 the per-row one
    for n in (20, 40):
        sampler = mc.TridiagonalSpectrumSampler(n=n, seed=123)
        a = mc.sample_spectrum(sampler, 300)
        b = mc.sample_spectrum(sampler, 300)
        assert np.array_equal(a, b)


def test_spectra_sorted_descending():
    sampler = mc.TridiagonalSpectrumSampler(n=12, seed=5)
    s = mc.sample_spectrum(sampler, 50)
    assert np.all(np.diff(s, axis=1) <= 0.0)


def test_n1_variance():
    sampler = mc.TridiagonalSpectrumSampler(n=1, seed=9)
    s = mc.sample_spectrum(sampler, 10**6)
    assert float(np.var(s)) == pytest.approx(0.5, abs=0.002)


def test_n2_gap_distribution():
    # gap CDF for the e^(-lam^2) weight at n = 2:
    # erf(s/sqrt 2) - sqrt(2/pi) s e^(-s^2/2)
    sampler = mc.TridiagonalSpectrumSampler(n=2, seed=17)
    s = mc.sample_spectrum(sampler, 10**5)
    g = np.sort(s[:, 0] - s[:, 1])
    cdf = np.array([math.erf(x / math.sqrt(2.0))
                    - math.sqrt(2.0 / math.pi) * x * math.exp(-x * x / 2.0)
                    for x in g])
    emp = (np.arange(len(g)) + 1.0) / len(g)
    assert float(np.max(np.abs(emp - cdf))) < 0.005


# ---------------------------------------------------------------------------
# top-k
# ---------------------------------------------------------------------------


def test_sample_spectrum_top_k_consistency():
    # every eigensolve branch keeps the k largest of the same draws: the
    # dense batch (n = 20), the full tridiagonal (n = 40) and, for
    # k <= EDGE_TOP_K and n > 165, the top-left block of the whole draws,
    # whose error budget against the whole matrix this is
    for n, count, ks in ((20, 64, (3,)), (40, 64, (3,)),
                         (200, 400, (2, mc.EDGE_TOP_K)),
                         (1000, 200, (2, mc.EDGE_TOP_K)),
                         (3000, 6, (2, mc.EDGE_TOP_K))):
        sampler = WholeDrawSampler(n=n, seed=11)
        full = mc.sample_spectrum(sampler, count)
        for k in ks:
            top = mc.sample_spectrum(sampler, count, top_k=k)
            assert top.shape == (count, k)
            assert np.max(np.abs(full[:, :k] - top)) < 1e-10


def test_block_size():
    assert mc.block_size(1000, 2) == 300
    assert mc.block_size(1000, mc.EDGE_TOP_K) == 300
    assert mc.block_size(10**4, 2) == 647
    # the block covers the whole matrix up to n = 165, and is never used
    # for more than EDGE_TOP_K eigenvalues
    assert mc.block_size(165, 2) == 165
    assert mc.block_size(166, 2) == 165
    assert mc.block_size(1000, mc.EDGE_TOP_K + 1) == 1000
    assert mc.block_size(1000, None) == 1000


def test_block_determinism():
    # the top-left block draws at n = 400 (m = 222) repeat on the same
    # sampler and on a new one with the same seed
    sampler = mc.TridiagonalSpectrumSampler(n=400, seed=43)
    for k in (2, mc.EDGE_TOP_K):
        a = mc.sample_spectrum(sampler, 130, top_k=k)
        b = mc.sample_spectrum(sampler, 130, top_k=k)
        c = mc.sample_spectrum(mc.TridiagonalSpectrumSampler(n=400, seed=43),
                               130, top_k=k)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)


def test_block_draws_follow_the_whole_draws_law():
    # at n = 1000 the drawn block (m = 300) and the block of whole draws
    # are two samples of one law.  Sizes and gates fixed before the first
    # run: 3,000 draws each, from different seeds so that the samples are
    # independent (at one seed the block's diagonals are whole draws'
    # diagonals, 300 to a draw), and p > 1e-3 for both tests.  A two-sample
    # KS test of 3,000 against 3,000 gaps at that level rejects a shift of
    # the gap CDF by 0.05.  The DOS test is chi^2 homogeneity of the two
    # histograms' counts; the counts of one draw are less spread than
    # Poisson (rigidity), which makes it conservative
    n, count = 1000, 3000
    drawn = mc.TridiagonalSpectrumSampler(n=n, seed=61)
    whole = WholeDrawSampler(n=n, seed=62)
    gaps = [np.subtract(*mc.sample_spectrum(s, count, top_k=2).T)
            for s in (drawn, whole)]
    assert ks_2samp(*gaps).pvalue > 1e-3
    a, b = (mc.count_histogram(s, count, "dos", "edge").counts
            for s in (drawn, whole))
    used = a + b > 0
    stat = float(np.sum((a - b)[used] ** 2 / (a + b)[used]))
    assert 1.0 - chi2.cdf(stat, df=int(used.sum()) - 1) > 1e-3


# ---------------------------------------------------------------------------
# dense reference sampler
# ---------------------------------------------------------------------------


def test_dense_vs_tridiagonal_lambda_max():
    # n = 8 checks the batched dense eigensolve, n = 40 the per-row one
    for n, count in ((8, 20000), (40, 4000)):
        dense = mc.sample_dense_gue(n, count, seed=31)[:, 0]
        tri = mc.sample_spectrum(
            mc.TridiagonalSpectrumSampler(n=n, seed=32), count)[:, 0]
        assert ks_2samp(dense, tri).pvalue > 1e-3


def test_dense_gue_moments():
    # for exp(-Tr H^2) (diagonal variance 1/2, off-diagonal modulus-squared
    # mean 1/2), sum lambda = Tr H has mean 0 and variance n/2, and
    # sum lambda^2 = Tr H^2 mean n^2/2 and variance n^2/2; each sample mean
    # must lie within 5 standard errors
    count = 40_000
    for n, seed in ((3, 1), (6, 2)):
        ev = mc.sample_dense_gue(n, count, seed=seed)
        assert ev.shape == (count, n)
        trace, trace_sq = ev.sum(axis=1), (ev**2).sum(axis=1)
        assert abs(trace.mean()) <= 5.0 * math.sqrt(n / 2.0 / count)
        assert abs(trace_sq.mean() - n * n / 2.0) <= \
            5.0 * math.sqrt(n * n / 2.0 / count)


# ---------------------------------------------------------------------------
# empirical estimators
# ---------------------------------------------------------------------------


def test_empirical_estimators_reject_empty():
    with pytest.raises(ValueError):
        mc.empirical_dos(np.empty((0, 4)), "bulk", 4)
    with pytest.raises(ValueError):
        mc.empirical_gap(np.empty((0, 4)), 4)
    with pytest.raises(ValueError):
        mc.empirical_dos(np.ones((2, 4)), "nope", 4)


def test_truncated_dos_must_reach_last_bin():
    # the top 16 of n = 200 stop far short of the bulk window, so a bulk
    # histogram of them would miss counts; at n = 1000 the 16th lies beyond
    # edge-scaled distance 8 in every draw
    top = mc.sample_spectrum(mc.TridiagonalSpectrumSampler(n=200, seed=47),
                             50, top_k=mc.EDGE_TOP_K)
    with pytest.raises(ValueError, match="last bin edge"):
        mc.empirical_dos(top, "bulk", 200)
    top = mc.sample_spectrum(mc.TridiagonalSpectrumSampler(n=1000, seed=47),
                             200, top_k=mc.EDGE_TOP_K)
    h = mc.empirical_dos(top, "edge", 1000)
    assert h.bin_edges[-1] == 8.0
    assert int(np.sum(h.counts)) > 0


# ---------------------------------------------------------------------------
# Sturm-count gap and DOS histograms
# ---------------------------------------------------------------------------


def _count(d, e, x):
    """_count_at_or_below for one matrix and a list of points."""
    d, e = np.asarray(d, float), np.asarray(e, float)
    return mc._count_at_or_below(d[:, None], (e * e)[:, None],
                                 np.asarray(x, float)[:, None])[:, 0]


def _scalar_count(d, e2, x):
    """The Sturm count at one point, one float operation at a time in the
    order of _count_at_or_below: sign bits of the inner pivots, and a last
    pivot <= 0."""
    q, count = d[0] - x, 0
    for i in range(1, len(d)):
        count += math.copysign(1.0, q) < 0.0
        q = (d[i] - x) - e2[i - 1] / q
    return count + (q <= 0.0)


@pytest.mark.parametrize("m", (2, 255, 256, 300, 1000))
def test_count_kernel_matches_a_scalar_loop(m):
    # K = 7 points on each of B = 3 draws, from below the spectrum to its
    # Gershgorin bound, so that counts above 255 test the flush of the
    # byte counter at m >= 256
    d, e = mc.TridiagonalSpectrumSampler(n=m, seed=m).draw(3)
    top = d.max(axis=1) + 2.0 * e.max(axis=1)
    x = np.linspace(-top, top, 7)
    d, e2 = d.T.copy(), (e * e).T.copy()
    got = mc._count_at_or_below(d, e2, x)
    want = [[_scalar_count(d[:, b], e2[:, b], x[k, b]) for b in range(3)]
            for k in range(7)]
    assert got.shape == (7, 3)
    assert got.tolist() == want
    assert got[-1].tolist() == [m] * 3
    if m > 255:
        assert got.max() > 255


def test_sturm_count_follows_lapack_at_zero_pivots():
    # matrices whose eigenvalues are exact and whose pivots at these x are
    # exactly 0, inner and last: the count of eigenvalues <= x must be
    # LAPACK dstebz's, which counts the half-open range (-inf, x]
    from scipy.linalg import eigvalsh_tridiagonal

    for d, e, x in (([0.0, 0.0], [1.0], [-1.0, 0.0, 1.0]),
                    ([1.0, 1.0], [1.0], [0.0, 1.0, 2.0]),
                    ([0.0, 0.0, 0.0], [1.0, 1.0], [-1.0, 0.0, 1.0]),
                    ([2.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0],
                     [0.0, 1.0, 2.0, 3.0, 4.0])):
        lapack = [eigvalsh_tridiagonal(d, e, select="v",
                                       select_range=(-10.0, xi),
                                       lapack_driver="stebz").size
                  for xi in x]
        assert _count(d, e, x).tolist() == lapack, (d, x)
    # the inner zero pivot at x = 0 (d[0] - 0 = 0) gives -inf next, not NaN
    assert _count([0.0, 0.0, 0.0], [1.0, 1.0], [0.0]).tolist() == [2]


def test_lambda_max_bisection_meets_lapack():
    from scipy.linalg import eigvalsh_tridiagonal

    d, e = mc.TridiagonalSpectrumSampler(n=200, seed=3).draw(20)
    top = mc._lambda_max(d.T.copy(), (e * e).T.copy())
    want = [eigvalsh_tridiagonal(a, b)[-1] for a, b in zip(d, e)]
    assert np.max(np.abs(top - want)) < 1e-12


def _bisected_lambda_max(d, e2, hi):
    """The plain bisection on the counts from [largest diagonal entry, hi]
    until the midpoint meets an end of the bracket in every draw."""
    m, lo = d.shape[0], d.max(axis=0)
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            return hi
        full = mc._count_at_or_below(d, e2, mid[None])[0] == m
        hi = np.where(full, mid, hi)
        lo = np.where(full, lo, mid)


def _gershgorin(d, e):
    """Each draw's Gershgorin upper bound max_i (d_i + e_(i-1) + e_i): d
    (m, B) the diagonals, e (m - 1, B) the sub-diagonals, one draw per
    column."""
    radius = np.zeros_like(d)
    radius[:-1] += e
    radius[1:] += e
    return (d + radius).max(axis=0)


@pytest.mark.parametrize("n", (2, 3, 12, 32, 200, 1000))
def test_lambda_max_is_the_bisection_bit_for_bit(n):
    # the three stages end on the float that the plain bisection ends on
    # from the bracket [max d, max d + 2 max e], from the Gershgorin bound
    # and from that bound with its width doubled: the smallest float whose
    # count is m, whatever valid bracket the search starts from; at
    # n = 1000 on the block the edge DOS and the gap count on
    m = mc.block_size(n, 2)
    for seed in (1, 2, 3):
        d, e = mc.TridiagonalSpectrumSampler(n=n, seed=seed).draw(600)
        d, e = d[:, :m].T.copy(), e[:, :m - 1].T.copy()
        lo, gershgorin = d.max(axis=0), _gershgorin(d, e)
        e2 = e * e
        top = mc._lambda_max(d, e2)
        for hi in (lo + 2.0 * np.sqrt(e2.max(axis=0)), gershgorin,
                   lo + 2.0 * (gershgorin - lo)):
            assert np.array_equal(top, _bisected_lambda_max(d, e2, hi)), \
                (n, seed)


def _stages(c, between=False):
    """Two mirrored copies of one n = 8 block, coupled at their first rows
    by c, so that lambda_1 - lambda_2 is about 2 c v_1^2; hi is their
    Gershgorin bound, or with `between` the midpoint of lambda_2 and
    lambda_1.  Returns lambda_1 - lambda_2, whether the draw was isolated,
    the bracket widths after isolation and after the Newton stage, the ulp
    of hi after isolation, and lambda_max - hi.  It runs the three stages
    of _lambda_max itself, from this hi."""
    # the n = 8 block these cases were built on: the first draw of stream 0
    # of 64 spawned from seed 4, as the sampler once drew it
    child = np.random.SeedSequence(4).spawn(64)[0]
    rng = np.random.Generator(np.random.Philox(child))
    db = rng.normal(0.0, math.sqrt(0.5), 8)
    eb = np.sqrt(rng.gamma(np.arange(7.0, 0.0, -1.0)) / 2.0)
    d = np.concatenate([db[::-1], db])
    e = np.concatenate([eb[::-1], [c], eb])
    low, high = np.linalg.eigvalsh(
        np.diag(d) + np.diag(e, 1) + np.diag(e, -1))[-2:]
    hi = _gershgorin(d[:, None], e[:, None])
    if between:
        hi[0] = 0.5 * (low + high)
    d, e2 = d[:, None].copy(), (e * e)[:, None].copy()
    lo0, hi0, isolated = mc._bisect(d, e2, d.max(axis=0), hi, isolate=True)
    lo1, hi1 = mc._newton_bracket(d, e2, lo0, hi0, isolated)
    top = mc._bisect(d, e2, lo1, hi1)[1]
    assert np.array_equal(top, _bisected_lambda_max(d, e2, hi))
    if not between:
        assert np.array_equal(top, mc._lambda_max(d, e2))
    return (high - low, bool(isolated[0]), float(hi0[0] - lo0[0]),
            float(hi1[0] - lo1[0]), float(np.spacing(hi0[0])),
            float(top[0] - hi[0]))


def test_lambda_max_paths_on_a_close_top_pair():
    # every path ends where the plain bisection does (asserted in _stages).
    # A split of about 1e-13: isolated, and the Newton bracket of 8 ulp is
    # confirmed
    split, isolated, before, after, ulp, _ = _stages(1.3e-12)
    assert 5e-14 < split < 2e-13 and isolated
    assert before > 8 * ulp >= after > 0
    # a pair that never splits in floats: the adjacency exit
    split, isolated, before, after, ulp, _ = _stages(1e-30)
    assert split < 1e-15 and not isolated and before == after == ulp
    # the stages from a bound hi below lambda_max, which _lambda_max no
    # longer takes from its caller: the confirming count fails, the draw
    # keeps its bracket and ends on hi
    _, isolated, before, after, ulp, past_hi = _stages(0.5, between=True)
    assert isolated and before == after > 8 * ulp and past_hi == 0.0


@pytest.mark.parametrize("scaling, n, count", (
    ("bulk", 2, 3000), ("bulk", 4, 3000), ("bulk", 32, 2000),
    ("bulk", 33, 500), ("bulk", 200, 150), ("edge", 200, 150),
    ("edge", 1000, 40)))
def test_dos_histogram_matches_full_spectrum(scaling, n, count):
    # on the same draws the counts equal the histogram of the full spectra,
    # with the default bins and with bins that start above 0 (criteria 11
    # and 12); the edge DOS at n > 165 counts on the block of whole draws
    sampler = WholeDrawSampler(n=n, seed=19)
    full = mc.sample_spectrum(sampler, count)
    for edges in (None, np.linspace(0.2, 6.0, 30),
                  np.linspace(0.3, 2.45, 36)):
        want = mc.empirical_dos(full, scaling, n, bin_edges=edges)
        got = mc.count_histogram(sampler, count, "dos", scaling,
                                 bin_edges=edges)
        assert np.array_equal(got.bin_edges, want.bin_edges)
        assert np.array_equal(got.counts, want.counts), (scaling, n, edges)
        assert got.total_samples == want.total_samples


@pytest.mark.parametrize("n, count", (
    (2, 3000), (10, 3000), (32, 2000), (40, 1000), (200, 300), (1000, 60)))
def test_gap_histogram_matches_top_two(n, count):
    # on the same draws the binary search on counts gives the histogram of
    # the solved top-2 gaps, integer for integer, with the default bins and
    # with bins that do not start at 0 or that start below it, where the
    # virtual edges at either end hold the gaps outside the bins
    sampler = mc.TridiagonalSpectrumSampler(n=n, seed=29)
    top = mc.sample_spectrum(sampler, count, top_k=2)
    for edges in (None, np.linspace(0.5, 3.0, 11), np.linspace(-1.0, 2.0, 7)):
        want = mc.empirical_gap(top, n, bin_edges=edges)
        got = mc.count_histogram(sampler, count, "gap", bin_edges=edges)
        assert np.array_equal(got.bin_edges, want.bin_edges)
        assert np.array_equal(got.counts, want.counts), (n, edges)
        assert got.total_samples == want.total_samples == count
    # some draws fall outside each window of the non-default bins
    assert 0 < int(got.counts.sum()) < count


def _slab_widths(monkeypatch):
    """The (draws, bytes of d and e^2) of every slab that count_histogram
    finds lambda_max on from now on."""
    seen, solve = [], mc._lambda_max

    def recording(d, e2):
        seen.append((d.shape[1], d.nbytes + e2.nbytes))
        return solve(d, e2)

    monkeypatch.setattr(mc, "_lambda_max", recording)
    return seen


def test_slab_layout_is_invisible(monkeypatch):
    # the counts do not depend on how the draws are cut into slabs: default
    # caps (one slab of all the draws), slabs of 7 draws and a last one of
    # 6, and caps down to one draw per slab
    sampler = mc.TridiagonalSpectrumSampler(n=200, seed=37)
    cases = (("gap", "edge"), ("dos", "edge"), ("dos", "bulk"))
    seen = _slab_widths(monkeypatch)
    default = {count: [mc.count_histogram(sampler, count, q, s).counts
                       for q, s in cases] for count in (300, 20)}
    assert len(seen) == 6
    for count, draws, budget, widths in (
            (300, 7, mc._SLAB_BYTES, [7] * 42 + [6]), (20, 1, 1, [1] * 20)):
        monkeypatch.setattr(mc, "_SLAB_DRAWS", draws)
        monkeypatch.setattr(mc, "_SLAB_BYTES", budget)
        del seen[:]
        for (q, s), want in zip(cases, default[count]):
            got = mc.count_histogram(sampler, count, q, s)
            assert np.array_equal(got.counts, want), (draws, q, s)
        assert [w for w, _ in seen] == 3 * widths


def test_sample_spectrum_draws_are_prefix_stable():
    # the first 300 of 600 draws are the 300 draws, whatever the slabs
    sampler = mc.TridiagonalSpectrumSampler(n=1000, seed=47)
    assert np.array_equal(mc.sample_spectrum(sampler, 600, top_k=2)[:300],
                          mc.sample_spectrum(sampler, 300, top_k=2))


def test_slab_bytes_stay_within_the_budget(monkeypatch):
    # a draw's d and e^2 take (2m - 1) 8 bytes: 17,688 at n = 50,000 (block
    # m = 1106), 632 at n = 40.  A budget of 12 draws cuts 128 draws into
    # slabs of 12 and a last one of 8, one of 3 draws and 7 bytes cuts 320
    # into slabs of 3 and a last one of 2, and one below a draw gives slabs
    # of one draw, the least there can be
    seen = _slab_widths(monkeypatch)
    for n, count, budget, widths in (
            (50_000, 128, 12 * 17_688, [12] * 10 + [8]),
            (40, 320, 3 * 632 + 7, [3] * 106 + [2]),
            (40, 128, 631, [1] * 128)):
        monkeypatch.setattr(mc, "_SLAB_BYTES", budget)
        del seen[:]
        sampler = mc.TridiagonalSpectrumSampler(n=n, seed=41)
        mc.count_histogram(sampler, count, "gap")
        assert [w for w, _ in seen] == widths, n
        per_draw = (2 * mc.block_size(n, mc.EDGE_TOP_K) - 1) * 8
        assert max(b for _, b in seen) <= max(budget, per_draw), n


def traced_peak_mib(fn) -> float:
    """Peak of the memory traced while fn() runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_count_memory_is_bounded_by_the_block():
    # only each draw's counted block is drawn and kept: the gap at
    # n = 50,000 on 128 draws peaks at 3.0 MiB (6.4 MiB when whole draws
    # were held)
    sampler = mc.TridiagonalSpectrumSampler(n=50_000, seed=43)
    assert traced_peak_mib(lambda: mc.count_histogram(sampler, 128,
                                                      "gap")) < 4.5
    # slabs of at most _SLAB_DRAWS = 4,096 draws: the bulk DOS at n = 32 on
    # 20,000 draws holds five slabs of 4,000 draws one after another, each
    # counted in tiles of 200 draws, and peaks at 2.55 MiB (3.09 MiB in
    # tiles of 404 draws with three draw temporaries per piece, 4.4 MiB in
    # three slabs of 6,667 draws)
    sampler = mc.TridiagonalSpectrumSampler(n=32, seed=43)
    mc.count_histogram(sampler, 100, "dos", "bulk")
    assert traced_peak_mib(lambda: mc.count_histogram(
        sampler, 20_000, "dos", "bulk")) < 3.0


def test_reference_sampler_memory_stays_within_its_slabs():
    # at n = 32 the dense slabs hold 16 draws and fill one (count, k)
    # result: 20,000 draws peak at 5.2 MiB, of which the result is 4.9 MiB
    # (38.1 MiB when each slab of 4,000 draws was one dense batch and the
    # slab results were stacked); the bound leaves 0.8 MiB of margin
    sampler = mc.TridiagonalSpectrumSampler(n=32, seed=43)
    mc.sample_spectrum(sampler, 10)
    assert traced_peak_mib(lambda: mc.sample_spectrum(sampler, 20_000)) < 6.0


def test_edge_dos_refuses_where_the_top_16_did():
    # the block gives its top EDGE_TOP_K to full accuracy, so the edge
    # count refuses exactly where empirical_dos refused the top-16 spectra:
    # when a draw's 16th eigenvalue lies within the last bin edge
    n, count = 1000, 60
    sampler = mc.TridiagonalSpectrumSampler(n=n, seed=23)
    with pytest.raises(ValueError, match="last bin edge 20"):
        mc.count_histogram(sampler, count, "dos", "edge",
                           bin_edges=np.linspace(0.0, 20.0, 81))
    top = mc.sample_spectrum(sampler, count, top_k=mc.EDGE_TOP_K)
    reach = math.sqrt(2.0) * n ** (1.0 / 6.0) * np.min(top[:, 0] - top[:, -1])
    assert 8.0 < reach < 20.0
    inside = np.linspace(0.0, reach * (1.0 - 1e-9), 41)
    beyond = np.linspace(0.0, reach * (1.0 + 1e-9), 41)
    assert np.array_equal(
        mc.count_histogram(sampler, count, "dos", "edge",
                           bin_edges=inside).counts,
        mc.empirical_dos(top, "edge", n, bin_edges=inside).counts)
    for estimate in (lambda: mc.empirical_dos(top, "edge", n,
                                              bin_edges=beyond),
                     lambda: mc.count_histogram(sampler, count, "dos",
                                                "edge", bin_edges=beyond)):
        with pytest.raises(ValueError, match="last bin edge"):
            estimate()


def test_dos_histogram_rejects():
    # the gap is in the edge variable only
    sampler = mc.TridiagonalSpectrumSampler(n=8, seed=1)
    for bad in (dict(count=0), dict(scaling="raw"), dict(quantity="raw"),
                dict(quantity="gap", scaling="bulk"),
                dict(bin_edges=np.array([0.0, 2.0, 1.0])),
                dict(bin_edges=np.array([0.0, 1.0, 1.0, 2.0])),
                dict(quantity="gap", scaling="edge",
                     bin_edges=np.array([0.0, 1.0, 1.0, 2.0])),
                dict(bin_edges=np.array([1.0]))):
        kwargs = dict(count=10, quantity="dos", scaling="bulk") | bad
        with pytest.raises(ValueError):
            mc.count_histogram(sampler, **kwargs)
    for quantity in ("gap", "dos"):
        with pytest.raises(ValueError, match="at least 2 eigenvalues"):
            mc.count_histogram(mc.TridiagonalSpectrumSampler(n=1, seed=1),
                               10, quantity)


def test_histogram_weights():
    samples = np.array([[3.0, 2.0, 1.0, 0.0]])
    h = mc.empirical_dos(samples, "raw", 4,
                         bin_edges=np.linspace(0.0, 4.0, 5))
    assert h.total_samples == 3  # one sample, n - 1 distances
    assert int(np.sum(h.counts)) == 3
    assert float(np.sum(h.density() * np.diff(h.bin_edges))) == pytest.approx(
        1.0)


def test_mean_lambda_max_ratio():
    n = 1000
    sampler = mc.TridiagonalSpectrumSampler(n=n, seed=3)
    s = mc.sample_spectrum(sampler, 2000, top_k=1)
    ratio = float(np.mean(s)) / math.sqrt(2.0 * n)
    assert 0.99 <= ratio <= 1.0


def test_wigner_semicircle():
    # full spectrum of n = 200 against the semicircle on 40 interior bins
    n = 200
    sampler = mc.TridiagonalSpectrumSampler(n=n, seed=13)
    s = mc.sample_spectrum(sampler, 100) / math.sqrt(n)
    edges = np.linspace(-1.35, 1.35, 41)
    counts, _ = np.histogram(s.ravel(), bins=edges)
    centers = 0.5 * (edges[1:] + edges[:-1])
    # expected counts from the semicircle density (1/pi) sqrt(2 - x^2)
    dens = np.sqrt(2.0 - centers**2) / math.pi
    expect = dens * np.diff(edges) * s.size
    stat = float(np.sum((counts - expect) ** 2 / expect))
    p = 1.0 - chi2.cdf(stat, df=len(counts))
    assert p > 0.01


def test_bulk_dos_chi2():
    # bulk-scaled near-maximum DOS vs the shifted semicircle.  The sample
    # count is matched to the systematic error floor: at N = 200 the
    # finite-N offset of lambda_max biases the small-argument bins by a few
    # percent, which dominates the statistics beyond ~1e3 draws.
    from nearextreme import scaling

    n = 200
    sampler = mc.TridiagonalSpectrumSampler(n=n, seed=5)
    s = mc.sample_spectrum(sampler, 500)
    edges = np.linspace(0.3, 2.45, 36)
    h = mc.empirical_dos(s, "bulk", n, bin_edges=edges)
    widths = np.diff(edges)
    expect = np.array([scaling.rho_bulk_shifted(c) for c in h.centers()])
    exp_counts = expect * widths * h.total_samples
    stat = float(np.sum((h.counts - exp_counts) ** 2 / exp_counts))
    p = 1.0 - chi2.cdf(stat, df=len(h.counts))
    assert p > 0.01


@pytest.mark.skipif(os.environ.get("RUN_FULL_MC") != "1",
                    reason="set RUN_FULL_MC=1 for the 1e5-sample run")
def test_tracy_widom_ks_full(table):
    from nearextreme import painleve

    n = 1000
    sampler = mc.TridiagonalSpectrumSampler(n=n, seed=8)
    s = mc.sample_spectrum(sampler, 10**5, top_k=1)
    x = np.sort(math.sqrt(2.0) * n ** (1.0 / 6.0)
                * (s[:, 0] - math.sqrt(2.0 * n)))
    probe = x[::100]
    f2 = np.array([painleve.tracy_widom_f2(table, min(xi, 9.99))
                   for xi in probe])
    emp = (np.searchsorted(x, probe, side="right")) / len(x)
    assert float(np.max(np.abs(emp - f2))) < 0.01
