"""Acceptance suite: thirteen numbered criteria, one test each, each
printing a single PASS/FAIL line (run with -s or look at captured output),
and, with RUN_FULL_MC=1, an unnumbered Monte Carlo comparison with the edge
curves at N = 10^6.

Criterion 6 checks that the edge density approaches sqrt(r)/pi at the rate
the mathematics gives.  The curve is measured down from lambda_max, which
sits a Tracy-Widom distance chi from the spectral edge, so
rho_edge(r) ~ E[sqrt(r - chi)]/pi and rho_edge * pi / sqrt(r) - 1 closes
like -<chi>/(2r) = 0.886/r: it is 1.070 / 1.061 / 1.053 at r = 12 / 14 / 16
(confirmed independently by direct Monte Carlo at N = 2000).  The ratio is
compared with the two-term law in 1/r at a 1e-3 tolerance.
"""

import math
import os

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.stats import chi2

from nearextreme import (finite_n as fn, laxpair, montecarlo as mc,
                         painleve, scaling)


def report(num, ok, detail):
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_a2_identity(table):
    a2 = painleve.a2_integral(table)
    report(1, abs(a2 - 0.5) < 1e-4, f"a2 = {a2:.10f} (target 0.5 ± 1e-4)")


def test_criterion_02_table_invariants(table):
    res = painleve.table_residuals(table)
    pii, rid, mono = res["painleve_ii"], res["r_identity"], res["f2_monotone"]
    # R = F2'/F2 as (log F2)' at every interior node
    rf2 = res["r_log_derivative"]
    ok = (res["q_min"] > 0.0 and pii < 1e-6 and rid < 1e-8 and mono
          and rf2 < 1e-6)
    report(2, ok, f"PII {pii:.2e}, R-id {rid:.2e}, monotone {mono}, "
                  f"R=F2'/F2 {rf2:.2e}")


def test_criterion_03_appendix_identities(table):
    res = painleve.table_residuals(table)["appendix_a"]
    report(3, res < 1e-5, f"identity residual {res:.2e} (< 1e-5)")


def test_criterion_04_lax_pair(table):
    worst = {"schrod": 0.0, "conserved": 0.0, "b": 0.0, "a": 0.0}
    for r in (0.5, 2.0, 5.0, -0.5, -2.0, -5.0):
        res = laxpair.lax_residuals(laxpair.solve_psi(r, table))
        worst["schrod"] = max(worst["schrod"], res["schrod"])
        worst["conserved"] = max(worst["conserved"], res["conserved"])
        worst["b"] = max(worst["b"], res["b_residual"])
        worst["a"] = max(worst["a"], res["a_residual"])
    ok = (worst["schrod"] < 1e-5 and worst["conserved"] < 1e-4
          and worst["b"] < 1e-5 and worst["a"] < 1e-3)
    report(4, ok, "worst residuals: " + ", ".join(
        f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_05_small_r_structure(table):
    a4 = scaling.a4_integral(table)
    r = np.linspace(0.02, 0.3, 15)
    results = {}
    for name, func in (("rho", scaling.rho_edge_scaling),
                       ("p_typ", scaling.p_typ)):
        vals = np.array([func(ri, table) for ri in r])
        # the r^6 column absorbs the next expansion order so c2/c4 come
        # out unbiased on this window
        design = np.column_stack([r**2, r**4, r**6])
        c2, c4, _ = np.linalg.lstsq(design, vals, rcond=None)[0]
        results[name] = (c2, c4)
    ok = all(abs(c2 - 0.5) < 0.005 and abs(c4 / a4 - 1.0) < 0.01
             for c2, c4 in results.values())
    # the two printed candidates differ by a factor 2; the integral and the
    # fits agree on -0.1968, resolving the discrepancy (see README)
    ok = ok and abs(a4 / -0.196788 - 1.0) < 0.01
    report(5, ok,
           f"a4 = {a4:.8f}; " + "; ".join(
               f"{n}: c2 = {c[0]:.5f}, c4 = {c[1]:.5f}"
               for n, c in results.items()))


# Tracy-Widom GUE mean and variance (Bornemann, Math. Comp. 79 (2010)
# 871-915), literature values held apart from the Painleve table
TW2_MEAN = -1.7710868074
TW2_VARIANCE = 0.8131947928


def large_r_ratio_law(r):
    """Two-term law for rho_edge(r) pi / sqrt(r): E[sqrt(r - chi)]/sqrt(r)
    expanded in 1/r, 1 - <chi>/(2r) - E[chi^2]/(8r^2).  The computed curve
    sits about -0.12/r^3 off it."""
    return (1.0 - TW2_MEAN / (2.0 * r)
            - (TW2_VARIANCE + TW2_MEAN**2) / (8.0 * r * r))


def test_criterion_06_large_r_dos(table):
    ratios = {}
    devs = {}
    prods = {}
    for r in (12.0, 14.0, 16.0):
        rho = scaling.rho_edge_scaling(r, table)
        ratios[r] = rho * math.pi / math.sqrt(r)
        devs[r] = ratios[r] - large_r_ratio_law(r)
        prods[r] = (rho - math.sqrt(r) / math.pi) * math.sqrt(r)
    on_law = all(abs(v) < 1e-3 for v in devs.values())
    bounded = all(abs(v) < 1.0 for v in prods.values())
    report(6, on_law and bounded,
           "ratio rho*pi/sqrt(r): " + ", ".join(
               f"{r:g} -> {v:.4f}" for r, v in ratios.items())
           + "; ratio - (1 - <chi>/2r - E[chi^2]/8r^2): " + ", ".join(
               f"{v:.1e}" for v in devs.values())
           + " (< 1e-3); (rho - sqrt(r)/pi)*sqrt(r): " + ", ".join(
               f"{v:.4f}" for v in prods.values())
           + " [ratio - 1 closes like -<chi>/(2r) = 0.886/r]")


def test_criterion_07_gap_tail(table):
    ratio = scaling.p_typ(12.0, table) / scaling.gap_tail_asymptotic(12.0)
    amp_ok = abs(scaling.GAP_TAIL_AMPLITUDE - 0.1285) < 1e-3
    report(7, 0.9 <= ratio <= 1.1 and amp_ok,
           f"p_typ/tail at r=12: {ratio:.4f}; "
           f"A = {scaling.GAP_TAIL_AMPLITUDE:.6f}")


def test_criterion_08_gap_normalization(table):
    norm = scaling.gap_normalization(table)
    report(8, abs(norm - 1.0) < 1e-3, f"integral p_typ = {norm:.6f}")


def test_criterion_09_finite_n_exactness():
    s = np.linspace(0.1, 3.5, 18)
    gap_err = max(abs(fn.gap_pdf_exact(si, 2)
                      - math.sqrt(2.0 / math.pi) * si * si
                      * math.exp(-si * si / 2.0)) for si in s)
    norm_errs = []
    for y in (-1.0, 0.0, 2.0):
        sysk = fn.build_ortho_system(y, 2)
        a = fn.truncation_amplitude(y)
        h0 = math.sqrt(math.pi) * (1.0 + math.erf(y)) / 2.0
        h1 = math.exp(-y * y) * (1.0 / a - 2.0 * a - 2.0 * y) / 4.0
        norm_errs.append(abs(sysk.h[0] - h0))
        norm_errs.append(abs(sysk.h[1] - h1))
    y4 = 0.5
    sys4 = fn.build_ortho_system(y4, 4)
    n1, _ = quad(lambda lam: fn.kernel(sys4, lam, lam), -8.0, y4, limit=200)
    n2, _ = quad(lambda r: fn.kernel(sys4, y4, y4 - r) ** 2, 0.0, 9.0,
                 limit=300)
    delta = 1e-5
    id3 = (math.log(fn.cdf_lambda_max(y4 + delta, 4))
           - math.log(fn.cdf_lambda_max(y4 - delta, 4))) / (2.0 * delta)
    kyy = fn.kernel(sys4, y4, y4)
    ok = (gap_err < 1e-6 and max(norm_errs) < 1e-10
          and abs(n1 - 4.0) < 1e-6 and abs(n2 - kyy) < 1e-6
          and abs(id3 - kyy) < 1e-5)
    report(9, ok, f"N=2 gap err {gap_err:.2e}; h0/h1 err "
                  f"{max(norm_errs):.2e}; int K = {n1:.8f}; "
                  f"int K^2 - K(y,y) = {n2 - kyy:.2e}; "
                  f"dlogF - K(y,y) = {id3 - kyy:.2e}")


def test_criterion_10_exact_vs_mc_n4():
    n = 4
    sampler = mc.TridiagonalSpectrumSampler(n=n, seed=11)
    samples = mc.sample_spectrum(sampler, 10**6)
    edges = np.arange(0.0, 3.0 + 1e-9, 0.05)

    def simpson_bins(f):
        lo, hi = edges[:-1], edges[1:]
        return np.array([(f(a) + 4.0 * f(0.5 * (a + b)) + f(b)) / 6.0
                         for a, b in zip(lo, hi)])

    worst = {}
    hist = mc.empirical_dos(samples, "raw", n, bin_edges=edges)
    expect = simpson_bins(lambda r: fn.dos_exact(r, n))
    z = (hist.density() - expect) / hist.stderr()
    worst["dos"] = float(np.max(np.abs(z)))
    ghist = mc.empirical_gap(samples, n, bin_edges=edges, scaled=False)
    gexpect = simpson_bins(lambda r: fn.gap_pdf_exact(r, n))
    gz = (ghist.density() - gexpect) / ghist.stderr()
    worst["gap"] = float(np.max(np.abs(gz)))
    ok = all(v < 3.0 for v in worst.values())
    report(10, ok, f"max |z| over 60 bins: dos {worst['dos']:.2f}, "
                   f"gap {worst['gap']:.2f} (< 3)")


def _edge_limit_run(table, n, count, seed, dos_bins, ks_tol, z_tol):
    # the gap from the top 2 eigenvalues, the DOS from Sturm counts, both on
    # the same draws
    sampler = mc.TridiagonalSpectrumSampler(n=n, seed=seed)
    samples = mc.sample_spectrum(sampler, count, top_k=2)

    r_grid = np.arange(0.0, 6.5 + 1e-9, 0.05)
    p_curve = scaling.p_typ(r_grid, table)
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (p_curve[1:] + p_curve[:-1]) * np.diff(r_grid))])
    cdf = CubicSpline(r_grid, cum)

    g = np.sort(math.sqrt(2.0) * n ** (1.0 / 6.0)
                * (samples[:, 0] - samples[:, 1]))
    sel = g < 6.4
    emp = np.searchsorted(g, g[sel], side="right") / len(g)
    ks = float(np.max(np.abs(emp - cdf(g[sel]))))

    edges = np.linspace(0.2, 6.0, dos_bins + 1)
    hist = mc.count_histogram(sampler, count, "dos", "edge", bin_edges=edges)
    rho = scaling.rho_edge_scaling(hist.centers(), table)
    z = (hist.density() * n - rho) / (hist.stderr() * n)
    max_z = float(np.max(np.abs(z)))
    return ks, max_z


def test_criterion_11_edge_limit_smoke(table):
    # reduced configuration mandated to finish in < 2 minutes; at N = 300
    # the residual finite-N systematic is ~1 statistical sigma per bin on
    # top of the sampling noise, hence the 4-sigma bin gate (the KS gate
    # stays strict at twice the full-run threshold)
    ks, max_z = _edge_limit_run(table, n=300, count=2 * 10**4, seed=21,
                                dos_bins=29, ks_tol=0.02, z_tol=4.0)
    report(11, ks < 0.02 and max_z < 4.0,
           f"smoke N=300/2e4: gap KS {ks:.4f} (< 0.02), "
           f"DOS max |z| {max_z:.2f} (< 4)")


@pytest.mark.skipif(os.environ.get("RUN_FULL_MC") != "1",
                    reason="set RUN_FULL_MC=1 for the full N=1000 run")
def test_criterion_11_edge_limit_full(table):
    ks, max_z = _edge_limit_run(table, n=1000, count=2 * 10**5, seed=7,
                                dos_bins=29, ks_tol=0.01, z_tol=3.0)
    report(11, ks < 0.01 and max_z < 3.0,
           f"full N=1000/2e5: gap KS {ks:.4f} (< 0.01), "
           f"DOS max |z| {max_z:.2f} (< 3)")


@pytest.mark.skipif(os.environ.get("RUN_FULL_MC") != "1",
                    reason="set RUN_FULL_MC=1 for the N = 10^6 run")
def test_edge_limit_n_million_full(table):
    # the block draw (m = 3,000 of n = 10^6) against the N = infinity
    # curves, where the N^(-2/3) finite-N bias is about 1e-4 of rho_edge,
    # below the noise.  Size and gates were fixed before the first run.
    # The DOS: the pooled count of the 29 bins on [0.2, 6] (3.63 per draw)
    # against count * int rho_edge; a uniform 1 % shift of rho_edge moves
    # its Poisson z by 0.01 sqrt(3.63 count), so power 0.9 at two-sided
    # alpha = 0.01 takes (2.576 + 1.282)^2 / (0.01^2 * 3.63) = 41,000
    # draws, here 41,600.  The gap, on the same draws: the KS distance
    # between the CDF of its 0.05-wide bins on [0, 6.4] and the integral of
    # p_typ at their edges, below its alpha = 0.01 bound 1.628 / sqrt(count).
    # Eigenvalue counts spread less than Poisson (rigidity) and binning only
    # lowers a KS distance, so both gates are conservative
    n, count = 10**6, 41_600
    sampler = mc.TridiagonalSpectrumSampler(n=n, seed=17)
    hist = mc.count_histogram(sampler, count, "dos", "edge",
                              bin_edges=np.linspace(0.2, 6.0, 30))
    # each bin's integral of rho_edge by Simpson's rule on 8 steps
    fine = np.linspace(0.2, 6.0, 29 * 8 + 1)
    rho = scaling.rho_edge_scaling(fine, table)
    simpson = np.array([1, 4, 2, 4, 2, 4, 2, 4, 1]) * (fine[1] - fine[0]) / 3
    expect = count * (rho[8 * np.arange(29)[:, None] + np.arange(9)]
                      @ simpson)
    pooled_z = (hist.counts.sum() - expect.sum()) / math.sqrt(expect.sum())
    max_z = float(np.max(np.abs(hist.counts - expect) / np.sqrt(expect)))

    edges = np.linspace(0.0, 6.4, 129)
    gap = mc.count_histogram(sampler, count, "gap", bin_edges=edges)
    half = np.linspace(0.0, 6.4, 257)
    p = scaling.p_typ(half, table)
    cdf = np.cumsum((p[:-2:2] + 4.0 * p[1::2] + p[2::2])
                    * (half[1] - half[0]) / 3.0)
    ks = float(np.max(np.abs(np.cumsum(gap.counts) / count - cdf)))
    bound = 1.628 / math.sqrt(count)
    ok = abs(pooled_z) < 2.576 and ks < bound
    print(f"N = 10^6 / {count}: {'PASS' if ok else 'FAIL'} — DOS pooled z "
          f"{pooled_z:.2f} (|z| < 2.58), max bin |z| {max_z:.2f}; gap KS "
          f"{ks:.4f} (< {bound:.4f})")
    assert ok, (pooled_z, ks)


def test_criterion_12_bulk_regime():
    # sample count matched to the systematic floor; see test_montecarlo
    n = 200
    sampler = mc.TridiagonalSpectrumSampler(n=n, seed=5)
    edges = np.linspace(0.3, 2.45, 36)
    hist = mc.count_histogram(sampler, 500, "dos", "bulk", bin_edges=edges)
    expect = np.array([scaling.rho_bulk_shifted(c) for c in hist.centers()])
    exp_counts = expect * np.diff(edges) * hist.total_samples
    stat = float(np.sum((hist.counts - exp_counts) ** 2 / exp_counts))
    p = 1.0 - chi2.cdf(stat, df=len(hist.counts))
    report(12, p > 0.01, f"chi2 = {stat:.1f} on {len(hist.counts)} bins, "
                         f"p = {p:.3f} (> 0.01)")


def test_criterion_13_f2_left_tail(table):
    val = painleve.tracy_widom_f2(table, -8.0)
    asym = painleve.tracy_widom_f2_asymptote(-8.0)
    rel = abs(val / asym - 1.0)
    report(13, rel < 0.01,
           f"F2(-8) = {val:.6e}, asymptote {asym:.6e}, rel dev {rel:.2e}")
