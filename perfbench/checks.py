"""Correctness checks for every CSV the benchmarked commands write.

Each check compares an output with a literature constant, with a sample the
benchmark draws itself (``reference.dense_gue``), or with a property the
method must have.  None compares with a stored copy of an earlier output.
Every check function returns a list of ``Check`` records; an operation
passes when all of its records are ok.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tracy-Widom GUE mean and variance, Bornemann, Math. Comp. 79 (2010)
# 871-915, Table 4.
TW2_MEAN = -1.7710868074
TW2_VAR = 0.8131947928

# zeta'(-1) = 1/12 - ln A (A the Glaisher-Kinkelin constant).
ZETA_PRIME_MINUS_ONE = -0.16542114370045092

# Amplitude of the first-gap tail law, 2^(-91/48) e^(zeta'(-1)) / sqrt(pi)
# (the paper; Witte, Bornemann & Forrester, Nonlinearity 26 (2013) 1799).
GAP_TAIL_AMPLITUDE = (2.0 ** (-91.0 / 48.0) * math.exp(ZETA_PRIME_MINUS_ONE)
                      / math.sqrt(math.pi))

# Mean of the scaled first gap, int r p_typ(r) dr, from the Lax-pair curve;
# regenerate with `python3 perfbench/reference.py`.  The Monte Carlo sampler
# shares no code with the Lax pair, so the comparison is independent.
MEAN_SCALED_GAP = 1.9043

# z-score above which a Monte Carlo comparison fails (false alarm ~6e-7 per
# comparison), and the Kolmogorov-Smirnov factor c in c / sqrt(n)
# (false alarm below 2 e^(-2 c^2) = 7.5e-6).
Z_MAX = 5.0
KS_FACTOR = 2.5


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _check(name: str, ok, detail: str) -> Check:
    return Check(name, bool(ok), detail)


def read_csv(path) -> dict:
    """Columns of a nearextreme CSV by header name; '#' lines are skipped."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    if len(lines) < 2:
        raise ValueError(f"{path}: no data rows")
    names = lines[0].strip().split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if rows.shape[1] != len(names):
        raise ValueError(f"{path}: {rows.shape[1]} columns, "
                         f"{len(names)} names")
    return {n: rows[:, i] for i, n in enumerate(names)}


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson rule on a uniform grid with an even number of
    intervals."""
    h = x[1] - x[0]
    if (len(x) - 1) % 2 or not np.allclose(np.diff(x), h, rtol=1e-9):
        raise ValueError("Simpson needs a uniform grid, even interval count")
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2])
                            + 2.0 * np.sum(y[2:-1:2])))


def large_r_law(r):
    """rho_edge(r) pi / sqrt(r) to O(r^-3): 1 - <chi>/(2r) - E[chi^2]/(8r^2)
    with chi Tracy-Widom GUE distributed."""
    second_moment = TW2_VAR + TW2_MEAN**2
    return 1.0 - TW2_MEAN / (2.0 * r) - second_moment / (8.0 * r**2)


def gap_tail_law(r):
    """A e^(-4r^(3/2)/3 + 8 sqrt2 r^(3/4)/3) r^(-21/32)
    (1 - 1405 sqrt2 r^(-3/4)/1536)."""
    return (GAP_TAIL_AMPLITUDE
            * np.exp(-4.0 / 3.0 * r**1.5 + 8.0 / 3.0 * math.sqrt(2.0) * r**0.75)
            * r ** (-21.0 / 32.0)
            * (1.0 - 1405.0 * math.sqrt(2.0) / 1536.0 * r ** (-0.75)))


def _small_r(r, v, label) -> list[Check]:
    """v(0) = 0 and v / (r^2/2) = 1 + O(r^2): both edge curves start as
    r^2/2 (level repulsion).  |ratio - 1| <= r^2 / 2 on (0, 1]; the
    computed remainder is -0.39 r^2."""
    s = (r > 0) & (r <= 1.0)
    rem = np.abs(v[s] / (0.5 * r[s] ** 2) - 1.0) / r[s] ** 2
    return [_check(f"{label} at r = 0 vanishes", abs(v[0]) < 1e-10,
                   f"value {v[0]:.3g}"),
            _check(f"{label} ~ r^2/2 on (0, 1]", s.any() and rem.max() <= 0.5,
                   f"max |v/(r^2/2) - 1|/r^2 = {rem.max():.4f} <= 0.5")]


def dos_edge(cols: dict) -> list[Check]:
    """Scaled edge DOS: rho(0) = 0, rho ~ r^2/2, and for r >= 8 the large-r
    law rho pi / sqrt(r) = L(r) to 1e-3 (computed: 7e-5 at r = 12)."""
    r, v = cols["r_tilde"], cols["value"]
    out = _small_r(r, v, "rho_edge")
    big = r >= 8.0
    dev = np.abs(v[big] * math.pi / np.sqrt(r[big]) - large_r_law(r[big]))
    out.append(_check("rho_edge pi/sqrt(r) = L(r) for r >= 8",
                      big.any() and dev.max() < 1e-3,
                      f"max deviation {dev.max():.2e} < 1e-3"))
    return out


def gap_pdf(cols: dict) -> list[Check]:
    """Scaled first-gap PDF: unit mass (Simpson, computed 1 - 1.5e-8), the
    r^2/2 start, and the approach to the tail law with an O(r^-3/2)
    remainder: |p / tail - 1| <= r^(-3/2) on [6, 8] (computed 0.68-0.76
    times r^(-3/2))."""
    r, p = cols["r_tilde"], cols["value"]
    mass = simpson(p, r)
    out = [_check("int p_typ = 1", abs(mass - 1.0) < 1e-5,
                  f"1 - int = {1.0 - mass:.2e}, tolerance 1e-5")]
    out += _small_r(r, p, "p_typ")
    far = (r >= 6.0) & (r <= 8.0)
    rem = np.abs(p[far] / gap_tail_law(r[far]) - 1.0) * r[far] ** 1.5
    out.append(_check("p_typ / tail law = 1 + O(r^-3/2) on [6, 8]",
                      far.any() and rem.max() <= 1.0,
                      f"max |ratio - 1| r^(3/2) = {rem.max():.3f} <= 1"))
    return out


def _z(label: str, value: float, samples: np.ndarray,
       program_draws: int | None = None) -> Check:
    """Compare a program value with the mean of per-sample statistics from
    the benchmark's own sample.  When the program value is itself a Monte
    Carlo mean over `program_draws` independent draws of the same
    statistic, its variance is added, estimated from the sample."""
    mean = float(np.mean(samples))
    per_draw = float(np.var(samples))
    var = per_draw / samples.size
    if program_draws:
        var += per_draw / program_draws
    z = (value - mean) / math.sqrt(var) if var > 0 else math.inf
    return _check(label, abs(z) < Z_MAX,
                  f"program {value:.6f}, sample {mean:.6f}, z = {z:+.2f}")


def finite_cdf(cols: dict, top: np.ndarray) -> list[Check]:
    """CDF of lambda_max at N = 12 against the dense-GUE lambda_max sample
    `top`: F runs from 0 to 1, never decreases, and sits within the
    Kolmogorov-Smirnov distance KS_FACTOR / sqrt(n) of the sample."""
    y, f = cols["y"], cols["F_N"]
    emp = np.searchsorted(np.sort(top), y, side="right") / top.size
    ks = float(np.max(np.abs(f - emp)))
    bound = KS_FACTOR / math.sqrt(top.size)
    return [_check("F_N(y_min) = 0 and F_N(y_max) = 1",
                   f[0] < 1e-10 and abs(f[-1] - 1.0) < 1e-4,
                   f"F(y_min) = {f[0]:.2e}, 1 - F(y_max) = {1 - f[-1]:.2e}"),
            _check("F_N non-decreasing", np.all(np.diff(f) >= 0.0), ""),
            _check("KS distance to dense GUE", ks < bound,
                   f"{ks:.4f} < {bound:.4f} ({top.size} samples)")]


def finite_dos(cols: dict, spectra: np.ndarray) -> list[Check]:
    """Exact DOS below lambda_max: unit mass, rho(0) = 0, and the mass
    below r_k matches the share of distances below r_k in the dense-GUE
    spectra (each spectrum sorted descending)."""
    r, rho = cols["r"], cols["dos"]
    n = spectra.shape[1]
    dist = spectra[:, :1] - spectra[:, 1:]
    mass = simpson(rho, r)
    out = [_check("int dos = 1", abs(mass - 1.0) < 1e-3,
                  f"1 - int = {1.0 - mass:.2e}, tolerance 1e-3"),
           _check("dos(0) = 0", abs(rho[0]) < 1e-8, f"{rho[0]:.2e}")]
    for k in _even_indices(r, (0.8, 2.0, 3.2, 4.0, 6.0)):
        share = np.sum(dist <= r[k], axis=1) / (n - 1)
        out.append(_z(f"mass of dos below r = {r[k]:.1f}",
                      simpson(rho[:k + 1], r[:k + 1]), share))
    return out


def finite_gap(cols: dict, spectra: np.ndarray) -> list[Check]:
    """Exact first-gap PDF: its mass on [0, r_max] is 1 up to the tail
    beyond r_max (under 2e-3 for the inputs used), and the mass and first
    moment below r_k match the dense-GUE gaps."""
    r, p = cols["r"], cols["gap_pdf"]
    gap = spectra[:, 0] - spectra[:, 1]
    mass = simpson(p, r)
    out = [_check("int gap pdf = 1 up to the tail", abs(mass - 1.0) < 2e-3,
                  f"1 - int = {1.0 - mass:.2e}, tolerance 2e-3")]
    for k in _even_indices(r, (0.6, 1.0, 1.4, 2.0)) + [len(r) - 1]:
        out.append(_z(f"P(gap <= {r[k]:.1f})",
                      simpson(p[:k + 1], r[:k + 1]), gap <= r[k]))
    out.append(_z(f"E[gap; gap <= {r[-1]:.1f}]", simpson(r * p, r),
                  np.where(gap <= r[-1], gap, 0.0)))
    return out


def _even_indices(r: np.ndarray, targets) -> list[int]:
    """Grid indices nearest to `targets` with an even interval count from
    r[0], so that Simpson applies on [r[0], r[k]]."""
    out = []
    for t in targets:
        k = int(round((t - r[0]) / (r[1] - r[0])))
        if k % 2 or not 0 < k < len(r):
            raise ValueError(f"r = {t} is not an even grid index")
        out.append(k)
    return out


def _hist(cols: dict):
    c, d, e = cols["bin_center"], cols["density"], cols["stderr"]
    return c, d, e, c[1] - c[0]


def mc_gap(cols: dict, samples: int) -> list[Check]:
    """N = 1000 gap histogram: unit mass to half a sample (a scaled gap
    falls outside [0, 8] with probability ~3e-8, from the tail law) and
    mean scaled gap within Z_MAX standard errors of MEAN_SCALED_GAP."""
    c, d, _, w = _hist(cols)
    mass = float(np.sum(d) * w)
    mean = float(np.sum(c * d) * w)
    sd = math.sqrt(max(float(np.sum(c * c * d) * w) - mean**2, 0.0))
    se = sd / math.sqrt(samples)
    z = (mean - MEAN_SCALED_GAP) / se
    return [_check("gap histogram mass = 1", abs(mass - 1.0) < 0.5 / samples,
                   f"1 - mass = {1.0 - mass:.2e}"),
            _check("mean scaled gap = int r p_typ", abs(z) < Z_MAX,
                   f"{mean:.4f} vs {MEAN_SCALED_GAP}, z = {z:+.2f}")]


def mc_edge_dos(cols: dict) -> list[Check]:
    """N = 1000 edge-scaled DOS: the bin average over r in [5, 8] matches
    sqrt(r) L(r) / pi within Z_MAX standard errors (Poisson errors, which
    overstate the spread of the rigid eigenvalue counts)."""
    c, d, e, _ = _hist(cols)
    band = (c >= 5.0) & (c <= 8.0)
    got = float(np.mean(d[band]))
    want = float(np.mean(np.sqrt(c[band]) * large_r_law(c[band]) / math.pi))
    se = float(np.sqrt(np.sum(e[band] ** 2))) / band.sum()
    z = (got - want) / se
    return [_check("edge DOS on [5, 8] = sqrt(r) L(r)/pi", abs(z) < Z_MAX,
                   f"{got:.4f} +- {se:.4f} vs {want:.4f}, z = {z:+.2f}")]


def mc_bulk_dos(cols: dict, samples: int,
                spectra: np.ndarray | None = None) -> list[Check]:
    """Bulk-scaled DOS histogram: its mass is the share of the n - 1
    distances inside [0, 2 sqrt 2], which is 1 to within 1e-2; with a
    dense-GUE reference of the same n, the mass below bin edges matches
    the reference distances (per-sample variance from the reference)."""
    c, d, _, w = _hist(cols)
    mass = float(np.sum(d) * w)
    out = [_check("bulk DOS histogram mass = 1", abs(mass - 1.0) < 1e-2,
                  f"mass {mass:.4f}")]
    if spectra is None:
        return out
    n = spectra.shape[1]
    dist = (spectra[:, :1] - spectra[:, 1:]) / math.sqrt(n)
    lo = c[0] - 0.5 * w
    for k in (16, 32, 48, 64):
        edge = lo + k * w
        share = np.sum(dist < edge, axis=1) / (n - 1)
        out.append(_z(f"bulk DOS mass below bin edge {k} (x = {edge:.3f})",
                      float(np.sum(d[:k]) * w), share, samples))
    return out
