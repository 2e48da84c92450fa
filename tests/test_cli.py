"""CLI: subcommand round-trips, CSV determinism, exit codes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nearextreme import cli

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    return cli.run(argv)


def read_csv(path):
    header = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    data_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            header.append(line)
        else:
            data_start = i
            break
    names = lines[data_start].split(",")
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in lines[data_start + 1:]])
    return header, names, rows


def test_unknown_command_exits_2():
    assert run(["frobnicate"]) == 2
    assert run(["dos-edge", "--badflag", "1"]) == 2
    assert run(["tabulate-painleve", "--tol", "1e-10"]) == 2


@pytest.mark.parametrize("argv", (
    ["dos-edge", "--step", "0"], ["dos-edge", "--step", "-0.1"],
    ["gap-pdf", "--step", "0"], ["finite-n", "--step", "0"],
    ["dos-bulk", "--step", "0"], ["asymptotics", "--step", "0"],
    ["dos-edge", "--step", "nan"], ["finite-n", "--rmax", "-1"],
    ["gap-pdf", "--rmax", "inf"], ["sample", "--threads", "0"],
    ["sample", "--threads", "-1"], ["sample", "--n", "0"],
    ["sample", "--n", "-5"], ["sample", "--samples", "0"],
    ["sample", "--samples", "-1"], ["finite-n", "--n", "0"],
    ["tabulate-psi", "--r-tilde", "nan"], ["sample", "--seed", "-1"]))
def test_bad_numeric_flags_exit_2(argv, capsys):
    # rejected while parsing, before any table is solved or draw made
    assert run(argv) == 2
    assert f"argument {argv[1]}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ["sample", "--quantity", "gap", "--scaling", "bulk"],
    ["finite-n", "--quantity", "cdf", "--rmax", "1"]))
def test_ignored_flag_combinations_exit_2(argv, capsys):
    # the gap is always in the edge variable, and the CDF of lambda_max
    # has its own y range: a flag the command would ignore is refused
    # before any work starts
    assert run(argv) == 2
    assert f"error: argument {argv[3]}: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", (
    ["tabulate-painleve"], ["tabulate-psi", "--r-tilde", "2"], ["dos-bulk"],
    ["asymptotics"], ["check"]))
def test_threads_only_where_accepted(argv, capsys):
    # dos-edge, gap-pdf, finite-n and sample accept --threads, which
    # nothing reads, and every other command refuses it as unrecognized
    assert run(argv + ["--threads", "1"]) == 2
    assert "unrecognized arguments: --threads 1" in capsys.readouterr().err


def test_benchmark_commands_accept_threads():
    # perfbench/run.py appends --threads 1 to its dos-edge, gap-pdf,
    # finite-n and sample ops
    parse = cli.build_parser().parse_args
    for name in ("dos-edge", "gap-pdf", "finite-n", "sample"):
        assert parse([name, "--threads", "1"]).threads == 1


def test_asymptotics_empty_range_exits_1(capsys):
    # the tables start at r = max(step, 0.5); an empty range is an error,
    # not a header-only CSV
    assert run(["asymptotics", "--rmax", "0.2"]) == 1
    assert capsys.readouterr().err.startswith("error: no r_tilde")


def test_benchmark_tracer_names_resolve():
    # perfbench/tracing.py wraps nearextreme functions by name; a deleted
    # name would break the traced benchmark run.  Instrumenting rebinds
    # module attributes, so it runs in its own interpreter.
    code = ("import tracing; cli, counters = "
            "tracing._instrument(tracing.Tracer()); counters(); print('ok')")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def _src_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _modules_after(argv, tmp_path, module="nearextreme.cli",
                   package="scipy"):
    """The modules of ``package`` a fresh interpreter holds after importing
    ``module`` and, if ``argv`` is given, running that CLI command (whose
    own output, if any, comes first on stdout)."""
    code = (f"import sys; import {module} as mod; "
            "rc = mod.run(sys.argv[1:]) if len(sys.argv) > 1 else 0; "
            "print(rc, *sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code, *argv], env=_src_env(),
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    rc, *modules = out.stdout.splitlines()[-1].split()
    assert rc == "0", out.stderr
    return set(modules)


def test_commands_import_only_what_they_use(tmp_path):
    # start-up is most of a cheap command's wall time, and no command
    # loads scipy
    for module in ("nearextreme.cli", "nearextreme.numerics",
                   "nearextreme.finite_n", "nearextreme.painleve",
                   "nearextreme.laxpair", "nearextreme.scaling"):
        assert _modules_after([], tmp_path, module) == set(), module
    # `import nearextreme.cli` alone, the start-up that perfbench/run.py
    # times, loads no pipeline module: each command imports its own
    assert _modules_after([], tmp_path, package="nearextreme") == {
        "nearextreme", "nearextreme.cli"}
    out = ["--out", str(tmp_path / "out.csv")]
    # the edge curves evaluate Airy functions and solve the table's Newton
    # systems with numpy alone; every sample quantity counts eigenvalues,
    # and check integrates by Gauss-Legendre sums
    for argv in (["finite-n", "--n", "6", "--quantity", "gap"],
                 ["dos-edge"],
                 ["gap-pdf", "--rmax", "2", "--step", "0.5"],
                 ["tabulate-painleve"],
                 ["tabulate-psi", "--r-tilde", "2"],
                 ["asymptotics", "--rmax", "2", "--step", "0.5"],
                 ["dos-bulk", "--step", "0.5"],
                 ["sample", "--n", "200", "--samples", "20", "--quantity",
                  "dos", "--scaling", "bulk", "--threads", "1"],
                 ["sample", "--n", "200", "--samples", "20", "--quantity",
                  "dos", "--scaling", "edge", "--threads", "1"],
                 ["sample", "--n", "20", "--samples", "20", "--quantity",
                  "gap", "--threads", "1"],
                 ["sample", "--n", "1000", "--samples", "20", "--quantity",
                  "gap", "--threads", "1"],
                 ["check"]):
        assert _modules_after(argv + out, tmp_path) == set(), argv


def test_default_sample_starts_no_threads(tmp_path):
    # sample counts every slab on the calling thread: with no --threads
    # and 20,000 draws at n = 32 (5 slabs) no executor is imported
    argv = ["sample", "--n", "32", "--samples", "20000",
            "--out", str(tmp_path / "out.csv")]
    assert _modules_after(argv, tmp_path, package="concurrent") == set()


def test_public_formulas_run_without_scipy(tmp_path):
    # F2, the gap normalisation, the truncation amplitude and the check
    # suite need numpy alone: an interpreter in which scipy cannot be
    # imported runs them all
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from nearextreme import cli, finite_n, painleve, scaling\n"
            "t = painleve.default_table()\n"
            "for x in (-11.9, -3.0, 0.0, 5.0):\n"
            "    assert 0.0 < painleve.tracy_widom_f2(t, x) < 1.0\n"
            "assert abs(scaling.gap_normalization(t) - 1.0) < 1e-3\n"
            "assert finite_n.truncation_amplitude(-1.0) > 0.0\n"
            "assert cli.run(['check', '--out', 'check.txt']) == 0\n"
            "print('ok')")
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
    assert (tmp_path / "check.txt").read_text().endswith(
        "all checks passed\n")


def test_python_m_runs_the_cli(tmp_path):
    # `python -m nearextreme.cli` must run the command, not import the
    # module and exit 0 with nothing written
    base = [sys.executable, "-m", "nearextreme.cli"]
    out = subprocess.run(base + ["dos-bulk", "--step", "0.5"],
                         env=_src_env(), cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("# nearextreme ")
    assert "x_hat,value" in lines
    bad = subprocess.run(base + ["dos-bulk", "--step", "0"], env=_src_env(),
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert bad.returncode == 2


def test_numerical_failure_exits_1(tmp_path):
    # finite-n beyond the conditioning cap is a runtime refusal
    assert run(["finite-n", "--n", "99",
                "--out", str(tmp_path / "x.csv")]) == 1


def test_dos_bulk_roundtrip(tmp_path):
    out = tmp_path / "bulk.csv"
    assert run(["dos-bulk", "--step", "0.1", "--out", str(out)]) == 0
    header, names, rows = read_csv(out)
    assert header[0].startswith("# nearextreme")
    assert names == ["x_hat", "value"]
    mid = rows[np.argmin(np.abs(rows[:, 0] - math.sqrt(2.0)))]
    assert mid[1] == pytest.approx(math.sqrt(2.0) / math.pi, abs=1e-3)


def test_finite_n_gap_roundtrip(tmp_path):
    out = tmp_path / "gap2.csv"
    assert run(["finite-n", "--n", "2", "--quantity", "gap",
                "--rmax", "3", "--step", "0.5", "--out", str(out)]) == 0
    header, names, rows = read_csv(out)
    for r, v in rows:
        expect = math.sqrt(2.0 / math.pi) * r * r * math.exp(-r * r / 2.0)
        assert v == pytest.approx(expect, abs=1e-6)
    # provenance: the Gauss rule, its node count and the node-set window.
    # F_2 reaches 1e-13 and 1 - 1e-13 at -3.289 and 5.583; gap distances
    # up to 3 widen the lower end by ceil(3 + 1) = 4
    assert header[2] == ("# rule: Gauss-Legendre, 160 nodes, inner products "
                         "on [min(-13, y - 2), min(y, 13)]; y integral on "
                         "[-7.28904, 5.58333]")


def test_sample_n1_exits_1(capsys):
    # one eigenvalue has neither a gap nor a distance below the maximum
    for quantity in ("gap", "dos"):
        assert run(["sample", "--n", "1", "--samples", "10", "--threads",
                    "1", "--quantity", quantity]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "at least 2 eigenvalues" in err


def test_finite_n_gap_n1_exits_1(capsys):
    # the gap needs two eigenvalues; the refusal names the gap function
    assert run(["finite-n", "--n", "1", "--quantity", "gap"]) == 1
    assert capsys.readouterr().err == (
        "error: gap_pdf_exact needs n in [2, 12]\n")


def test_finite_n_cdf_roundtrip(tmp_path):
    out = tmp_path / "cdf.csv"
    assert run(["finite-n", "--n", "1", "--quantity", "cdf",
                "--step", "1.0", "--out", str(out)]) == 0
    header, names, rows = read_csv(out)
    for y, v in rows:
        assert v == pytest.approx((1.0 + math.erf(y)) / 2.0, abs=1e-10)
    assert header[2] == ("# rule: Gauss-Legendre, 160 nodes, inner products "
                         "on [min(-13, y - 2), min(y, 13)]")


def test_sample_csv_determinism(tmp_path):
    # --threads is inert: the same bytes with it and without it
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--n", "40", "--samples", "2000", "--seed", "4"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_bulk_dos_full_mass(tmp_path):
    # the bulk DOS needs all n - 1 distances, not the top-2 truncation that
    # the gap uses
    out = tmp_path / "bulk.csv"
    assert run(["sample", "--n", "80", "--samples", "200", "--seed", "3",
                "--quantity", "dos", "--scaling", "bulk", "--threads", "1",
                "--out", str(out)]) == 0
    header, _, rows = read_csv(out)
    assert header[2] == ("# draw: 64 Philox chunks, full d/e draw; eigensolve: "
                         "Sturm counts below bisected lambda_max, full matrix")
    width = rows[1, 0] - rows[0, 0]
    assert float(np.sum(rows[:, 1]) * width) == pytest.approx(1.0, abs=1e-2)


def test_sample_gap_top_two_matches_full_spectrum(tmp_path):
    # the gap command counts eigenvalues on the top-left block (here the
    # whole matrix); the histogram must be the one the full spectra of the
    # same draws give
    from nearextreme import montecarlo as mc

    out = tmp_path / "gap.csv"
    assert run(["sample", "--n", "80", "--samples", "500", "--seed", "9",
                "--quantity", "gap", "--threads", "1",
                "--out", str(out)]) == 0
    header, _, rows = read_csv(out)
    assert header[2] == ("# draw: 64 Philox chunks, full d/e draw; eigensolve: "
                         "Sturm counts below bisected lambda_max, full matrix")
    full = mc.sample_spectrum(mc.TridiagonalSpectrumSampler(n=80, seed=9),
                              500)
    hist = mc.empirical_gap(full, 80)
    assert rows[:, 0] == pytest.approx(hist.centers(), rel=1e-11)
    assert rows[:, 1] == pytest.approx(hist.density(), rel=1e-11)
    assert rows[:, 2] == pytest.approx(hist.stderr(), rel=1e-11)


def test_sample_edge_dos_block_matches_full_spectrum(tmp_path, monkeypatch):
    # the edge DOS counts eigenvalues on the top-left block (m = 176 of 200)
    # only; on the block of whole draws the histogram must be the one the
    # full spectra of those draws give
    from nearextreme import montecarlo as mc
    from test_montecarlo import WholeDrawSampler

    out = tmp_path / "edge.csv"
    monkeypatch.setattr(mc, "TridiagonalSpectrumSampler", WholeDrawSampler)
    assert run(["sample", "--n", "200", "--samples", "300", "--seed", "9",
                "--quantity", "dos", "--scaling", "edge", "--threads", "1",
                "--out", str(out)]) == 0
    header, _, rows = read_csv(out)
    assert header[2] == ("# draw: 64 Philox chunks, top-left block d/e draw; "
                         "eigensolve: Sturm counts below bisected lambda_max, "
                         "top-left block m = 176 of n = 200")
    full = mc.sample_spectrum(WholeDrawSampler(n=200, seed=9), 300)
    hist = mc.empirical_dos(full, "edge", 200)
    assert rows[:, 1] == pytest.approx(hist.density() * 200, rel=1e-11)
    assert rows[:, 2] == pytest.approx(hist.stderr() * 200, rel=1e-11)


def test_gap_pdf_small_range(tmp_path):
    out = tmp_path / "gap.csv"
    assert run(["gap-pdf", "--rmax", "0.4", "--step", "0.2",
                "--out", str(out)]) == 0
    _, names, rows = read_csv(out)
    assert names[:2] == ["r_tilde", "value"]
    # value column tracks the small-r column it also emits
    for r, v, small, _ in rows[1:]:
        assert v == pytest.approx(small, rel=0.05)


def test_dos_edge_reaches_the_airy_range(tmp_path):
    # the part beyond x_max is added in closed form, so the density of
    # states runs to the Airy seed's own bound, r_tilde < 80
    out = tmp_path / "dos.csv"
    assert run(["dos-edge", "--rmax", "79", "--step", "7.9",
                "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert rows[-1, 0] == pytest.approx(79.0)


@pytest.mark.parametrize("argv, message", [
    (["gap-pdf", "--rmax", "31"],
     "the gap PDF reaches r_tilde = 30, not 31: f underflows double "
     "precision; use gap_tail_asymptotic instead"),
    (["dos-edge", "--rmax", "85"],
     "the density of states reaches r_tilde = 79.995, not 85: its Airy "
     "seed needs x - r_tilde >= -60")], ids=("gap-pdf", "dos-edge"))
def test_edge_refusals_solve_nothing(argv, message, tmp_path, monkeypatch,
                                     capsys):
    # the whole curve is range checked before its first psi solve, so no
    # march runs and the message names the rmax given
    from nearextreme import laxpair

    def no_march(*args, **kwargs):
        raise AssertionError("a psi march ran before the range check")

    monkeypatch.setattr(laxpair, "_numerov_down", no_march)
    assert run(argv + ["--out", str(tmp_path / "curve.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, curve", [
    (["dos-edge", "--rmax", "12", "--step", "0.75"], "rho_edge_scaling"),
    (["gap-pdf", "--rmax", "8", "--step", "0.25"], "p_typ")],
    ids=("dos-edge", "gap-pdf"))
def test_edge_curve_csv_matches_the_library(argv, curve, tmp_path):
    # the value column is the library curve at the same r, as written
    from nearextreme import painleve, scaling

    out = tmp_path / "curve.csv"
    assert run(argv + ["--out", str(out)]) == 0
    rmax, step = float(argv[2]), float(argv[4])
    r = np.arange(0.0, rmax + 0.5 * step, step)
    want = getattr(scaling, curve)(r, painleve.default_table())
    lines = [ln for ln in out.read_text().splitlines()
             if not ln.startswith("#")]
    assert lines[0].split(",")[:2] == ["r_tilde", "value"]
    assert [ln.split(",")[1] for ln in lines[1:]] == [f"{v:.12g}"
                                                      for v in want]


def test_dos_edge_small_range(tmp_path):
    out = tmp_path / "dos.csv"
    assert run(["dos-edge", "--rmax", "0.4", "--step", "0.2",
                "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    assert rows[0, 1] == pytest.approx(0.0, abs=1e-10)


def test_tabulate_psi(tmp_path):
    out = tmp_path / "psi.csv"
    assert run(["tabulate-psi", "--r-tilde", "2.0", "--out", str(out)]) == 0
    header, names, rows = read_csv(out)
    assert names == ["x", "f", "g"]
    assert any("r_tilde = 2.0" in line for line in header)
    # provenance: table domain, grid, solver, Newton steps and the final
    # Numerov residual, psi scheme, quadrature rule
    prefix = ("# table: Hastings-McLeod on [-12, 20], n_points = 6401, "
              "h = 0.005, Newton-Numerov on h and h/2 with Richardson, "
              "newton_steps = ")
    assert header[1].startswith(prefix)
    steps, residual = header[1][len(prefix):].split(", residual = ")
    assert 0 < int(steps) <= 40
    assert float(residual) <= 1e-13
    assert header[2].startswith("# psi: Numerov")
    assert "Richardson" in header[2]
    assert header[3].startswith("# quadrature: trapezoid")
    assert "end correction" in header[3]
    assert rows.shape == (6401, 3)
    # g at the right end is pinned to zero by convention
    assert rows[-1, 2] == 0.0


def test_tabulate_painleve_tw2_moments(tmp_path):
    # Simpson on the written x, R and F2 columns reproduces the Tracy-Widom
    # GUE mean and variance (Bornemann, Math. Comp. 79 (2010) 871-915)
    out = tmp_path / "pii.csv"
    assert run(["tabulate-painleve", "--out", str(out)]) == 0
    header, names, rows = read_csv(out)
    table_line = next(line for line in header if line.startswith("# table:"))
    assert float(table_line.split("residual = ")[1]) <= 1e-13
    cols = dict(zip(names, rows.T))
    x = cols["x"]
    assert (x.size - 1) % 2 == 0

    def simpson(y):
        h = x[1] - x[0]
        return h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2])
                          + 2.0 * np.sum(y[2:-1:2]))

    density = cols["R"] * cols["F2"]
    mean = simpson(x * density)
    variance = simpson(x * x * density) - mean**2
    assert mean == pytest.approx(-1.7710868074, abs=1e-8)
    assert variance == pytest.approx(0.8131947928, abs=1e-8)


def test_asymptotics(tmp_path):
    out = tmp_path / "asym.csv"
    assert run(["asymptotics", "--rmax", "4", "--step", "1.0",
                "--out", str(out)]) == 0
    header, _, rows = read_csv(out)
    assert any("gap_amplitude_A" in line for line in header)
    # the gap-tail form is only meaningful (positive) at large r
    assert np.all(rows[rows[:, 0] >= 4.0, 1] > 0.0)
    assert rows[-1, 2] == pytest.approx(
        math.sqrt(rows[-1, 0]) / math.pi, rel=1e-9)


def test_check_suite_passes(tmp_path, capsys):
    assert run(["check"]) == 0
    outp = capsys.readouterr().out
    assert "[FAIL]" not in outp
    assert "all checks passed" in outp
    # --out takes the same report, and stdout gets none of it
    out = tmp_path / "check.txt"
    assert run(["check", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == outp


def test_check_reports_failures(monkeypatch, capsys):
    # a table with F2 negated fails the three checks that read F2, and
    # check names them and exits 1
    from dataclasses import replace

    from nearextreme import painleve

    t = painleve.default_table()
    monkeypatch.setattr(painleve, "default_table",
                        lambda: replace(t, f2=-t.f2))
    with np.errstate(invalid="ignore"):  # log F2 is NaN
        assert run(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[FAIL] ") for line in lines) == 3
    assert lines[-1] == ("3 check(s) failed: F2 monotone in (0,1], "
                         "F2(x_max) = 1, R = F2'/F2 < 1e-6, "
                         "a2 = 1/2 within 1e-4")
