"""Command-line interface: every computation as a reproducible CSV-emitting
subcommand.

Output format is plain CSV with '.' decimals and '#' comment headers
recording version, parameters and seed, so identical invocations produce
byte-identical files.

No pipeline module is imported at module level: each command imports the
modules it calls.  No command loads scipy: the edge commands evaluate Airy
functions and solve the table's Newton systems with numpy alone, every
``sample`` quantity comes from Sturm counts, and ``check`` integrates by
Gauss-Legendre sums.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__


def _open_out(path):
    """A context manager for writing: the file at ``path``, or stdout (left
    open) if path is None or "-"."""
    import contextlib

    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def _write_csv(path, header_lines, columns, names):
    with _open_out(path) as fh:
        fh.write(f"# nearextreme {__version__}\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(names) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")


def _provenance(table) -> list[str]:
    """Header lines saying how the ``painleve.PainleveTable`` and the psi
    functions were computed, and by which rule they were integrated."""
    from . import laxpair, numerics, painleve

    g = table.grid
    return [f"table: Hastings-McLeod on [{g.x_min:g}, {g.x_max:g}], "
            f"n_points = {g.n_points}, h = {g.h:g}, "
            f"{painleve.TABLE_SCHEME}, newton_steps = {table.newton_steps}, "
            f"residual = {table.residual:.1e}",
            f"psi: {laxpair.PSI_SCHEME}",
            f"quadrature: {numerics.QUADRATURE_SCHEME}"]


def cmd_tabulate_painleve(args) -> int:
    from . import painleve

    t = painleve.default_table()
    g = t.grid.nodes()
    _write_csv(args.out, _provenance(t) + ["columns: x, q, q_prime, R, F2"],
               [g, t.q, t.q_prime, t.R, t.f2],
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
               [g, psi.f, psi.g], ["x", "f", "g"])
    return 0


def _write_edge_curve(args, t, r, values, large, notes=()) -> int:
    from . import scaling

    small = 0.5 * r**2 + scaling.a4_integral(t) * r**4
    _write_csv(args.out,
               _provenance(t) + [
                   f"rmax = {args.rmax}, step = {args.step}",
                   "columns: r_tilde, value, asymptotic_small, "
                   "asymptotic_large", *notes],
               [r, values, small, large],
               ["r_tilde", "value", "asymptotic_small", "asymptotic_large"])
    return 0


def _gap_tail(r, column: str):
    """The large-r gap form at every r where a PDF can take its value, nan
    at r_tilde = 0, where it diverges, and wherever it is negative; with the
    header words that say so of the column named ``column``."""
    from . import scaling

    out = np.full(r.shape, np.nan)
    out[r > 0] = scaling.gap_tail_asymptotic(r[r > 0])
    out[out < 0.0] = np.nan
    return out, (f"{column} where 1 - (1405 sqrt 2/1536) r_tilde^(-3/4) "
                 "> 0, r_tilde > 1.4095")


def cmd_dos_edge(args) -> int:
    from . import painleve, scaling

    t = painleve.default_table()
    r = np.arange(0.0, args.rmax + 0.5 * args.step, args.step)
    return _write_edge_curve(args, t, r, scaling.rho_edge_scaling(r, t),
                             np.sqrt(r) / math.pi)


def cmd_gap_pdf(args) -> int:
    from . import painleve, scaling

    t = painleve.default_table()
    r = np.arange(0.0, args.rmax + 0.5 * args.step, args.step)
    large, rule = _gap_tail(r, "asymptotic_large")
    return _write_edge_curve(args, t, r, scaling.p_typ(r, t), large,
                             [f"admissible: {rule}; nan elsewhere"])


def cmd_dos_bulk(args) -> int:
    from . import scaling

    top = 2.0 * math.sqrt(2.0)
    x = np.arange(0.0, top + 0.5 * args.step, args.step)
    _write_csv(args.out, [f"step = {args.step}", "columns: x_hat, value"],
               [x, scaling.rho_bulk_shifted(x)], ["x_hat", "value"])
    return 0


def cmd_finite_n(args) -> int:
    if args.quantity == "cdf" and args.rmax is not None:
        args.parser.error("argument --rmax: --quantity cdf tabulates "
                          "y in [-4, 6] and takes only --step")
    from . import finite_n as fn

    n, quantity = args.n, args.quantity
    if quantity == "cdf":
        x = np.arange(-4.0, 6.0 + 0.5 * args.step, args.step)
        vals = fn.cdf_lambda_max(x, n)
        header = [f"n = {n}", fn.rule_header(n, quantity),
                  "columns: y, cdf_lambda_max"]
        names = ["y", "F_N"]
    else:
        rmax = 4.0 if args.rmax is None else args.rmax
        x = np.arange(0.0, rmax + 0.5 * args.step, args.step)
        vals = (fn.gap_pdf_exact if quantity == "gap" else fn.dos_exact)(x, n)
        header = [f"n = {n}, rmax = {rmax}, step = {args.step}",
                  fn.rule_header(n, quantity, x)]
        names = ["r", "gap_pdf" if quantity == "gap" else "dos"]
    _write_csv(args.out, header, [x, vals], names)
    return 0


def cmd_sample(args) -> int:
    if args.quantity == "gap" and args.scaling == "bulk":
        args.parser.error("argument --scaling: the gap is always in the "
                          "edge variable")
    from . import montecarlo

    sampler = montecarlo.TridiagonalSpectrumSampler(n=args.n, seed=args.seed)
    hist = montecarlo.count_histogram(sampler, args.samples, args.quantity,
                                      args.scaling)
    header = [f"n = {args.n}, seed = {args.seed}, samples = {args.samples}",
              montecarlo.count_header(args.n, args.scaling)]
    dens, err = hist.density(), hist.stderr()
    if args.quantity == "dos" and args.scaling == "edge":
        # the edge-scaled histogram estimates rho_edge / n
        dens, err = dens * args.n, err * args.n
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
    # each form only where a PDF or a CDF can take its value
    gap_tail, gap_rule = _gap_tail(r, "gap_tail")
    dos_tail = np.sqrt(r) / math.pi
    f2_tail = painleve.tracy_widom_f2_asymptote(-r)
    f2_tail[f2_tail > 1.0] = np.nan
    _write_csv(args.out,
               _provenance(t) + [
                   "columns: r_tilde, gap_tail, dos_tail, f2_left_tail",
                   f"admissible: {gap_rule}; f2_left_tail where it is at "
                   "most 1, r_tilde > 0.7094; nan elsewhere",
                   f"a4 = {scaling.a4_integral(t):.12g}",
                   f"gap_amplitude_A = {scaling.GAP_TAIL_AMPLITUDE:.12g}"],
               [r, gap_tail, dos_tail, f2_tail],
               ["r_tilde", "gap_tail", "dos_tail", "f2_left_tail"])
    return 0


def cmd_check(args) -> int:
    """Run the invariant suite, report to --out; nonzero exit on a failure."""
    from . import finite_n as fn
    from . import laxpair, painleve
    from .numerics import gauss_legendre

    failures = []
    with _open_out(args.out) as fh:
        def check(name, ok, detail=""):
            status = "ok" if ok else "FAIL"
            print(f"[{status}] {name} {detail}", file=fh)
            if not ok:
                failures.append(name)

        t = painleve.default_table()
        for line in _provenance(t):
            print(f"# {line}", file=fh)
        tr = painleve.table_residuals(t)
        check("q positive", tr["q_min"] > 0)
        res = tr["painleve_ii"]
        check("Painleve II residual < 1e-6", res < 1e-6, f"({res:.2e})")
        rid = tr["r_identity"]
        check("R identity < 1e-8", rid < 1e-8, f"({rid:.2e})")
        check("F2 monotone in (0,1], F2(x_max) = 1", tr["f2_monotone"])
        rf2 = tr["r_log_derivative"]
        check("R = F2'/F2 < 1e-6", rf2 < 1e-6, f"({rf2:.2e})")

        a2 = painleve.a2_integral(t)
        check("a2 = 1/2 within 1e-4", abs(a2 - 0.5) < 1e-4, f"({a2:.8f})")

        for r in (2.0, 5.0, -2.0, -5.0):
            res = laxpair.lax_residuals(laxpair.solve_psi(r, t))
            check(f"Lax residuals at r = {r}",
                  res["b_residual"] < 1e-5 and res["a_residual"] < 1e-3,
                  f"(B {res['b_residual']:.2e}, A {res['a_residual']:.2e})")

        for y in (-1.0, 0.0, 2.0):
            sys_ = fn.build_ortho_system(y, 2)
            a = fn.truncation_amplitude(y)
            h0 = math.exp(-y * y) / (2 * a)
            h1 = math.exp(-y * y) * (1 / a - 2 * a - 2 * y) / 4
            check(f"h0, h1, S0 closed forms at y = {y}",
                  abs(sys_.h[0] - h0) < 1e-10 and abs(sys_.h[1] - h1) < 1e-9
                  and abs(sys_.s_coef[0] + a) < 1e-10)

        sys4 = fn.build_ortho_system(0.5, 4)
        norm = gauss_legendre(lambda x: fn.kernel(sys4, x, x), (-8, 0.5), 64)
        check("kernel normalization int K = N (N = 4)", abs(norm - 4) < 1e-6,
              f"({norm:.8f})")
        dos_norm = gauss_legendre(lambda r: fn.dos_exact(r, 4), (0, 8), 64)
        check("int dos_exact = 1 (N = 4)", abs(dos_norm - 1) < 1e-4,
              f"({dos_norm:.6f})")

        print(f"{len(failures)} check(s) failed: {', '.join(failures)}"
              if failures else "all checks passed", file=fh)
    return 1 if failures else 0


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
_finite_float = _checked(float, math.isfinite, "finite")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_nonnegative_int = _checked(int, lambda v: v >= 0, ">= 0")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nearextreme",
        description="Near-extreme GUE eigenvalue statistics: exact finite-N "
                    "curves, edge scaling functions, Monte Carlo validation.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, text, rmax=12.0):
        """A subcommand running ``func``, with --out, --threads where the
        benchmark passes it (nothing reads it), and --rmax and --step
        unless ``rmax`` is None; ``func`` refuses every other flag it
        would ignore."""
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(func=func, parser=sp)
        sp.add_argument("--out", default=None, help="output CSV (default stdout)")
        if name in ("dos-edge", "gap-pdf", "finite-n", "sample"):
            sp.add_argument("--threads", type=_positive_int, default=None,
                            help="accepted and ignored (every command runs "
                                 "on one thread); kept because "
                                 "perfbench/run.py passes --threads 1")
        if rmax is not None:
            sp.add_argument("--rmax", type=_nonnegative_float, default=rmax)
            sp.add_argument("--step", type=_positive_float, default=0.05)
        return sp

    command("tabulate-painleve", cmd_tabulate_painleve,
            "tabulate (x, q, q', R, F2)", rmax=None)
    sp = command("tabulate-psi", cmd_tabulate_psi,
                 "tabulate (x, f, g) at one r", rmax=None)
    sp.add_argument("--r-tilde", type=_finite_float, required=True)
    command("dos-edge", cmd_dos_edge, "edge scaling density of states")
    command("gap-pdf", cmd_gap_pdf, "scaled first-gap PDF", rmax=8.0)
    sp = command("dos-bulk", cmd_dos_bulk, "shifted semicircle bulk density",
                 rmax=None)
    sp.add_argument("--step", type=_positive_float, default=0.02)
    sp = command("finite-n", cmd_finite_n, "exact finite-N curves", rmax=None)
    sp.add_argument("--rmax", type=_nonnegative_float,
                    help="dos and gap only (default 4.0)")
    sp.add_argument("--step", type=_positive_float, default=0.05)
    sp.add_argument("--n", type=_positive_int, default=4,
                    help="matrix size: 2..12 for dos and gap, 1..12 for cdf")
    sp.add_argument("--quantity", choices=("dos", "gap", "cdf"),
                    default="dos")
    sp = command("sample", cmd_sample, "Monte Carlo histograms", rmax=None)
    sp.add_argument("--n", type=_positive_int, default=1000)
    sp.add_argument("--samples", type=_positive_int, default=200000)
    sp.add_argument("--seed", type=_nonnegative_int, default=0)
    sp.add_argument("--quantity", choices=("dos", "gap"), default="gap")
    sp.add_argument("--scaling", choices=("bulk", "edge"), default="edge")
    command("asymptotics", cmd_asymptotics, "asymptotic formula tables")
    command("check", cmd_check, "run the invariant suite", rmax=None)
    return p


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
