"""CLI: subcommand round-trips, CSV determinism, exit codes."""

import math

import numpy as np
import pytest

from nearextreme import cli


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
    _, names, rows = read_csv(out)
    for r, v in rows:
        expect = math.sqrt(2.0 / math.pi) * r * r * math.exp(-r * r / 2.0)
        assert v == pytest.approx(expect, abs=1e-6)


def test_finite_n_cdf_roundtrip(tmp_path):
    out = tmp_path / "cdf.csv"
    assert run(["finite-n", "--n", "1", "--quantity", "cdf",
                "--step", "1.0", "--out", str(out)]) == 0
    _, names, rows = read_csv(out)
    for y, v in rows:
        assert v == pytest.approx((1.0 + math.erf(y)) / 2.0, abs=1e-10)


def test_sample_csv_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--n", "40", "--samples", "2000", "--seed", "4"]
    assert run(args + ["--out", str(a), "--threads", "1"]) == 0
    assert run(args + ["--out", str(b), "--threads", "4"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_bulk_dos_full_mass(tmp_path):
    # above n = 64 the bulk DOS still needs all n - 1 distances, not the
    # top-64 truncation that the gap and the edge DOS use
    out = tmp_path / "bulk.csv"
    assert run(["sample", "--n", "80", "--samples", "200", "--seed", "3",
                "--quantity", "dos", "--scaling", "bulk", "--threads", "1",
                "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    width = rows[1, 0] - rows[0, 0]
    assert float(np.sum(rows[:, 1]) * width) == pytest.approx(1.0, abs=1e-2)


def test_gap_pdf_small_range(tmp_path):
    out = tmp_path / "gap.csv"
    assert run(["gap-pdf", "--rmax", "0.4", "--step", "0.2",
                "--out", str(out)]) == 0
    _, names, rows = read_csv(out)
    assert names[:2] == ["r_tilde", "value"]
    # value column tracks the small-r column it also emits
    for r, v, small, _ in rows[1:]:
        assert v == pytest.approx(small, rel=0.05)


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
    # provenance: table domain, grid, BVP mesh and tolerance, psi scheme
    assert header[1] == ("# table: Hastings-McLeod on [-12, 20], "
                         "n_points = 6401, h = 0.005, bvp_nodes = 60395, "
                         "bvp_tol = 1e-10")
    assert header[2].startswith("# psi: Numerov")
    assert "Richardson" in header[2]
    assert rows.shape == (6401, 3)
    # g at the right end is pinned to zero by convention
    assert rows[-1, 2] == 0.0


def test_tabulate_painleve_tw2_moments(tmp_path):
    # Simpson on the written x, R and F2 columns reproduces the Tracy-Widom
    # GUE mean and variance (Bornemann, Math. Comp. 79 (2010) 871-915)
    out = tmp_path / "pii.csv"
    assert run(["tabulate-painleve", "--out", str(out)]) == 0
    header, names, rows = read_csv(out)
    assert any("bvp_tol" in line for line in header)
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


def test_check_suite_passes(capsys):
    assert run(["check"]) == 0
    outp = capsys.readouterr().out
    assert "[FAIL]" not in outp
    assert "all checks passed" in outp
