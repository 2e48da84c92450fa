"""Command-line interface: every computation as a reproducible CSV-emitting
subcommand.

Output format is plain CSV with '.' decimals and '#' comment headers
recording version, parameters and seed, so identical invocations produce
byte-identical files.

No pipeline module is imported at module level: each command imports the
modules it calls, so that ``sample`` loads only scipy.linalg, ``finite-n``
only scipy.special, and parsing the arguments loads no scipy at all.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


def _write_csv(path, header_lines, columns, names):
    fh, close = _open_out(path)
    try:
        fh.write(f"# nearextreme {__version__}\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
    finally:
        if close:
            fh.close()


def _default_threads(args) -> int:
    """--threads if given; else the CPU count where threads pay (the dense
    batched path, n <= montecarlo._DENSE_MAX_N) and 1 above it."""
    from . import montecarlo

    if args.threads is not None:
        return args.threads
    return (os.cpu_count() or 1) if args.n <= montecarlo._DENSE_MAX_N else 1


def _provenance(table) -> list[str]:
    """Header lines saying how the ``painleve.PainleveTable`` and the psi
    functions were computed."""
    from . import laxpair, painleve

    g = table.grid
    return [f"table: Hastings-McLeod on [{g.x_min:g}, {g.x_max:g}], "
            f"n_points = {g.n_points}, h = {g.h:g}, "
            f"{painleve.TABLE_SCHEME}, newton_steps = {table.newton_steps}, "
            f"residual = {table.residual:.1e}",
            f"psi: {laxpair.PSI_SCHEME}"]


def cmd_tabulate_painleve(args) -> int:
    from . import painleve

    t = painleve.default_table()
    g = t.grid.nodes()
    _write_csv(args.out, _provenance(t) + ["columns: x, q, q_prime, R, F2"],
               [g, t.q.values, t.q_prime.values, t.R.values, t.f2.values],
               ["x", "q", "q_prime", "R", "F2"])
    return 0


def cmd_tabulate_psi(args) -> int:
    from . import laxpair, painleve

    t = painleve.default_table()
    psi = laxpair.solve_psi(args.r_tilde, t)
    g = t.grid.nodes()
    _write_csv(args.out,
               _provenance(t) + [f"r_tilde = {args.r_tilde}",
                                 "columns: x, f, g"],
               [g, psi.f.values, psi.g.values], ["x", "f", "g"])
    return 0


def _write_edge_curve(args, t, r, values, large) -> int:
    from . import scaling

    small = 0.5 * r**2 + scaling.a4_integral(t) * r**4
    _write_csv(args.out,
               _provenance(t) + [
                   f"rmax = {args.rmax}, step = {args.step}",
                   "columns: r_tilde, value, asymptotic_small, "
                   "asymptotic_large"],
               [r, values, small, large],
               ["r_tilde", "value", "asymptotic_small", "asymptotic_large"])
    return 0


def cmd_dos_edge(args) -> int:
    from . import painleve, scaling

    t = painleve.default_table()
    r = np.arange(0.0, args.rmax + 0.5 * args.step, args.step)
    return _write_edge_curve(args, t, r, scaling.rho_edge_curve(r, t),
                             np.sqrt(r) / math.pi)


def cmd_gap_pdf(args) -> int:
    from . import painleve, scaling

    t = painleve.default_table()
    r = np.arange(0.0, args.rmax + 0.5 * args.step, args.step)
    large = np.zeros_like(r)
    large[r > 0] = scaling.gap_tail_asymptotic(r[r > 0])
    return _write_edge_curve(args, t, r, scaling.p_typ_curve(r, t), large)


def cmd_dos_bulk(args) -> int:
    from . import scaling

    top = 2.0 * math.sqrt(2.0)
    x = np.arange(0.0, top + 0.5 * args.step, args.step)
    _write_csv(args.out, [f"step = {args.step}", "columns: x_hat, value"],
               [x, scaling.rho_bulk_shifted(x)], ["x_hat", "value"])
    return 0


def cmd_finite_n(args) -> int:
    from . import finite_n as fn

    n = args.n
    x = np.arange(0.0, args.rmax + 0.5 * args.step, args.step)
    header = [f"n = {n}, rmax = {args.rmax}, step = {args.step}"]
    if args.quantity == "gap":
        vals = fn.gap_pdf_exact(x, n)
        header.append(fn.rule_header(n, -x))
        names = ["r", "gap_pdf"]
    elif args.quantity == "dos":
        vals = fn.dos_exact(x, n)
        header.append(fn.rule_header(n, x))
        names = ["r", "dos"]
    else:  # cdf
        x = np.arange(-4.0, 6.0 + 0.5 * args.step, args.step)
        vals = fn.cdf_lambda_max(x, n)
        header = [f"n = {n}", fn.rule_header(n), "columns: y, cdf_lambda_max"]
        names = ["y", "F_N"]
    _write_csv(args.out, header, [x, vals], names)
    return 0


def cmd_sample(args) -> int:
    from . import montecarlo

    threads = _default_threads(args)
    sampler = montecarlo.TridiagonalSpectrumSampler(n=args.n, seed=args.seed)
    # the gap needs the top 2 eigenvalues and the edge DOS (r <= 8) the top
    # EDGE_TOP_K, both from the top-left block; the bulk DOS needs them all
    if args.quantity == "gap":
        top_k = 2
    elif args.scaling == "edge":
        top_k = montecarlo.EDGE_TOP_K
    else:
        top_k = None
    samples = montecarlo.sample_spectrum(sampler, args.samples,
                                         threads=threads, top_k=top_k)
    header = [f"n = {args.n}, seed = {args.seed}, samples = {args.samples}",
              montecarlo.solve_header(args.n, top_k)]
    if args.quantity == "gap":
        hist = montecarlo.empirical_gap(samples, args.n)
        dens = hist.density()
        err = hist.stderr()
    else:
        hist = montecarlo.empirical_dos(samples, args.scaling, args.n)
        dens = hist.density()
        err = hist.stderr()
        if args.scaling == "edge":
            dens = dens * args.n
            err = err * args.n
    _write_csv(args.out, header + ["columns: bin_center, density, stderr"],
               [hist.centers(), dens, err],
               ["bin_center", "density", "stderr"])
    return 0


def cmd_asymptotics(args) -> int:
    r = np.arange(max(args.step, 0.5), args.rmax + 0.5 * args.step, args.step)
    if r.size == 0:
        raise ValueError(f"no r_tilde in [max(step, 0.5), rmax = {args.rmax}]")
    from . import painleve, scaling

    t = painleve.default_table()
    gap_tail = scaling.gap_tail_asymptotic(r)
    dos_tail = np.sqrt(r) / math.pi
    f2_tail = painleve.tracy_widom_f2_asymptote(-r)
    _write_csv(args.out,
               _provenance(t) + [
                   "columns: r_tilde, gap_tail, dos_tail, f2_left_tail",
                   f"a4 = {scaling.a4_integral(t):.12g}",
                   f"gap_amplitude_A = {scaling.GAP_TAIL_AMPLITUDE:.12g}"],
               [r, gap_tail, dos_tail, f2_tail],
               ["r_tilde", "gap_tail", "dos_tail", "f2_left_tail"])
    return 0


def cmd_check(args) -> int:
    """Run the invariant suite; nonzero exit on any failure."""
    from scipy.integrate import quad

    from . import finite_n as fn
    from . import laxpair, painleve

    failures = []

    def check(name, ok, detail=""):
        status = "ok" if ok else "FAIL"
        print(f"[{status}] {name} {detail}")
        if not ok:
            failures.append(name)

    t = painleve.default_table()
    for line in _provenance(t):
        print(f"# {line}")
    g = t.grid.nodes()
    h = t.grid.h
    q = t.q.values

    check("q positive", bool(np.all(q > 0)))
    qdd = (q[2:] - 2 * q[1:-1] + q[:-2]) / h**2
    res = np.max(np.abs(qdd - 2 * q[1:-1] ** 3 - g[1:-1] * q[1:-1]))
    check("Painleve II residual < 1e-6", res < 1e-6, f"({res:.2e})")
    rid = np.max(np.abs(t.R.values - (t.q_prime.values**2 - q**4 - g * q**2)))
    check("R identity < 1e-8", rid < 1e-8, f"({rid:.2e})")
    f2 = t.f2.values
    check("F2 monotone in (0,1], F2(x_max) = 1",
          bool(np.all(np.diff(f2) >= 0) and abs(f2[-1] - 1) < 1e-10
               and np.all(f2 > 0) and np.all(f2 <= 1.0)))
    # restrict to nodes where f2 retains relative accuracy in float64;
    # below ~1e-8 the spline derivative of the stored values is noise
    keep = f2[1:-1] > 1e-8
    df2 = t.f2.derivative().values[1:-1]
    rf2 = np.max(np.abs(df2[keep] / f2[1:-1][keep] - t.R.values[1:-1][keep]))
    check("R = F2'/F2 < 1e-6", rf2 < 1e-6, f"({rf2:.2e})")

    a2 = painleve.a2_integral(t)
    check("a2 = 1/2 within 1e-4", abs(a2 - 0.5) < 1e-4, f"({a2:.8f})")

    for r in (2.0, 5.0, -2.0, -5.0):
        psi = laxpair.solve_psi(r, t)
        shifted = laxpair.solve_psi(r + 1e-4, t)
        res = laxpair.lax_residuals(psi, shifted)
        check(f"Lax residuals at r = {r}",
              res["b_residual"] < 1e-5 and res["a_residual"] < 1e-3,
              f"(B {res['b_residual']:.2e}, A {res['a_residual']:.2e})")

    for y in (-1.0, 0.0, 2.0):
        sys_ = fn.build_ortho_system(y, 2)
        a = fn.truncation_amplitude(y)
        h0 = math.sqrt(math.pi) * (1 + math.erf(y)) / 2
        h1 = math.exp(-y * y) * (1 / a - 2 * a - 2 * y) / 4
        check(f"h0, h1, S0 closed forms at y = {y}",
              abs(sys_.h[0] - h0) < 1e-10 and abs(sys_.h[1] - h1) < 1e-9
              and abs(sys_.s_coef[0] + a) < 1e-10)

    sys4 = fn.build_ortho_system(0.5, 5)
    norm, _ = quad(lambda x: fn.kernel(sys4, x, x), -8.0, 0.5, limit=200)
    check("kernel normalization int K = N (N = 4)", abs(norm - 4) < 1e-6,
          f"({norm:.8f})")
    dos_norm, _ = quad(lambda r: fn.dos_exact(r, 4), 0.0, 8.0, limit=200)
    check("int dos_exact = 1 (N = 4)", abs(dos_norm - 1) < 1e-4,
          f"({dos_norm:.6f})")

    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
        return 1
    print("all checks passed")
    return 0


def _checked(convert, ok, rule: str):
    """argparse type: ``convert`` the text, then reject it unless ``ok``."""
    def parse(text):
        v = convert(text)
        if not ok(v):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return v
    parse.__name__ = convert.__name__  # argparse's "invalid float value"
    return parse


_positive_float = _checked(float, lambda v: 0 < v < math.inf, "finite, > 0")
_nonnegative_float = _checked(float, lambda v: 0 <= v < math.inf,
                              "finite, >= 0")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nearextreme",
        description="Near-extreme GUE eigenvalue statistics: exact finite-N "
                    "curves, edge scaling functions, Monte Carlo validation.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, rmax=12.0, step=0.05):
        sp.add_argument("--out", default=None, help="output CSV (default stdout)")
        sp.add_argument("--threads", type=_positive_int, default=None)
        if rmax is not None:
            sp.add_argument("--rmax", type=_nonnegative_float, default=rmax)
            sp.add_argument("--step", type=_positive_float, default=step)

    sp = sub.add_parser("tabulate-painleve",
                        help="tabulate (x, q, q', R, F2)")
    common(sp, rmax=None)
    sp.set_defaults(func=cmd_tabulate_painleve)

    sp = sub.add_parser("tabulate-psi", help="tabulate (x, f, g) at one r")
    common(sp, rmax=None)
    sp.add_argument("--r-tilde", type=float, required=True)
    sp.set_defaults(func=cmd_tabulate_psi)

    sp = sub.add_parser("dos-edge", help="edge scaling density of states")
    common(sp)
    sp.set_defaults(func=cmd_dos_edge)

    sp = sub.add_parser("gap-pdf", help="scaled first-gap PDF")
    common(sp, rmax=8.0)
    sp.set_defaults(func=cmd_gap_pdf)

    sp = sub.add_parser("dos-bulk", help="shifted semicircle bulk density")
    common(sp, rmax=None)
    sp.add_argument("--step", type=_positive_float, default=0.02)
    sp.set_defaults(func=cmd_dos_bulk)

    sp = sub.add_parser("finite-n", help="exact finite-N curves")
    common(sp, rmax=4.0)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--quantity", choices=("dos", "gap", "cdf"),
                    default="dos")
    sp.set_defaults(func=cmd_finite_n)

    sp = sub.add_parser("sample", help="Monte Carlo histograms")
    common(sp, rmax=None)
    sp.add_argument("--n", type=_positive_int, default=1000)
    sp.add_argument("--samples", type=_positive_int, default=200000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--quantity", choices=("dos", "gap"), default="gap")
    sp.add_argument("--scaling", choices=("bulk", "edge"), default="edge")
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("asymptotics", help="asymptotic formula tables")
    common(sp)
    sp.set_defaults(func=cmd_asymptotics)

    sp = sub.add_parser("check", help="run the invariant suite")
    common(sp, rmax=None)
    sp.set_defaults(func=cmd_check)

    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
