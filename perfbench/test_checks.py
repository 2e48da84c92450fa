"""Self-tests of the benchmark: every check passes on the program's real
output and fails on a perturbed copy of it.

    python3 -m pytest perfbench/test_checks.py

The module runs each workload's commands once (about three minutes).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def results():
    """op name -> (Op, Result) for one round of every workload."""
    run.WORK.mkdir(parents=True, exist_ok=True)
    out = {}
    for make in run.WORKLOADS.values():
        for op in make(SEED):
            out[op.name] = (op, run.Runner(time.monotonic()).run_op(op))
    yield out
    shutil.rmtree(run.WORK, ignore_errors=True)


def _with(cols: dict, **changes) -> dict:
    new = {k: v.copy() for k, v in cols.items()}
    for name, fn in changes.items():
        new[name] = fn(new)
    return new


def _shift(v: np.ndarray) -> np.ndarray:
    """Values moved one grid step to the right, v(r - h)."""
    return np.concatenate([[0.0], v[:-1]])


def _swap(v: np.ndarray, i: int) -> np.ndarray:
    v = v.copy()
    v[i], v[i + 1] = v[i + 1], v[i]
    return v


# (op, what is changed, perturbation, names of checks that must fail)
PERTURBATIONS = [
    ("dos-edge", "rho x 1.01",
     lambda c: _with(c, value=lambda d: d["value"] * 1.01),
     ["rho_edge pi/sqrt(r) = L(r)"]),
    ("dos-edge", "rho x 0.85",
     lambda c: _with(c, value=lambda d: d["value"] * 0.85),
     ["rho_edge ~ r^2/2", "rho_edge pi/sqrt(r) = L(r)"]),
    ("dos-edge", "rho(0) = 1e-3",
     lambda c: _with(c, value=lambda d: np.where(d["r_tilde"] == 0, 1e-3,
                                                 d["value"])),
     ["rho_edge at r = 0"]),
    ("gap-pdf", "p_typ with 0.99 of the mass",
     lambda c: _with(c, value=lambda d: d["value"] * 0.99),
     ["int p_typ = 1"]),
    ("gap-pdf", "p_typ x 1.05",
     lambda c: _with(c, value=lambda d: d["value"] * 1.05),
     ["p_typ / tail law", "int p_typ = 1"]),
    ("gap-pdf", "p_typ + 0.02 r, p(0) = 1e-3",
     lambda c: _with(c, value=lambda d: d["value"] + 0.02 * d["r_tilde"]
                     + 1e-3 * (d["r_tilde"] == 0)),
     ["p_typ ~ r^2/2", "p_typ at r = 0"]),
    ("finite-cdf", "CDF shifted by 0.05",
     lambda c: _with(c, y=lambda d: d["y"] + 0.05),
     ["KS distance to dense GUE"]),
    ("finite-cdf", "CDF with two values swapped, F(y_max) = 0.99",
     lambda c: _with(c, F_N=lambda d: np.append(_swap(d["F_N"], 50)[:-1],
                                                0.99)),
     ["F_N non-decreasing", "F_N(y_min) = 0 and F_N(y_max) = 1"]),
    ("finite-dos", "dos with 0.99 of the mass, dos(0) = 1e-3",
     lambda c: _with(c, dos=lambda d: d["dos"] * 0.99
                     + 1e-3 * (d["r"] == 0)),
     ["int dos = 1", "dos(0) = 0"]),
    ("finite-dos", "dos shifted right by one 0.2 step",
     lambda c: _with(c, dos=lambda d: _shift(d["dos"])),
     ["mass of dos below r = 0.8", "mass of dos below r = 2.0",
      "mass of dos below r = 3.2", "mass of dos below r = 4.0",
      "mass of dos below r = 6.0"]),
    ("finite-gap", "gap pdf with 0.99 of the mass",
     lambda c: _with(c, gap_pdf=lambda d: d["gap_pdf"] * 0.99),
     ["int gap pdf = 1", "P(gap <= 3.0)"]),
    ("finite-gap", "gap pdf shifted right by one 0.1 step",
     lambda c: _with(c, gap_pdf=lambda d: _shift(d["gap_pdf"])),
     ["P(gap <= 0.6)", "P(gap <= 1.0)", "P(gap <= 1.4)", "P(gap <= 2.0)",
      "E[gap; gap <= 3.0]"]),
    ("mc-gap", "gap histogram with 0.99 of the mass",
     lambda c: _with(c, density=lambda d: d["density"] * 0.99),
     ["gap histogram mass = 1"]),
    ("mc-gap", "gap histogram scaled with N / 8 instead of N",
     lambda c: _with(c, bin_center=lambda d: d["bin_center"] / math.sqrt(2)),
     ["mean scaled gap = int r p_typ"]),
    ("mc-edge-dos", "edge DOS multiplied by N / 2 instead of N",
     lambda c: _with(c, density=lambda d: d["density"] / 2,
                     stderr=lambda d: d["stderr"] / 2),
     ["edge DOS on [5, 8]"]),
    ("mc-small", "bulk DOS with 63 of 199 distances",
     lambda c: _with(c, density=lambda d: d["density"] * 63 / 199),
     ["bulk DOS histogram mass = 1"] + [
         f"bulk DOS mass below bin edge {k}" for k in (16, 32, 48, 64)]),
    ("mc-small", "bulk DOS histogram from N = 24 in the N = 32 scaling",
     lambda c: _with(c, bin_center=lambda d: d["bin_center"]
                     * math.sqrt(24 / 32)),
     [f"bulk DOS mass below bin edge {k}" for k in (16, 32, 48, 64)]),
]


def _failing(op, cols) -> list[str]:
    return [c.name for c in op.check(cols) if not c.ok]


def test_real_outputs_pass(results):
    for name, (op, res) in results.items():
        if op.known_fault:
            continue
        assert res.ok, (name, res.lines)


def test_known_fault_fails_the_same_way(results):
    op, res = results["mc-bulk-n200"]
    assert not res.ok
    mass = float(np.sum(res.cols["density"])
                 * (res.cols["bin_center"][1] - res.cols["bin_center"][0]))
    assert mass == pytest.approx(63 / 199, rel=1e-9)


@pytest.mark.parametrize("op_name,label,perturb,expected", PERTURBATIONS,
                         ids=[p[1] for p in PERTURBATIONS])
def test_perturbed_output_fails(results, op_name, label, perturb, expected):
    op, res = results[op_name]
    failing = _failing(op, perturb(res.cols))
    for prefix in expected:
        assert any(f.startswith(prefix) for f in failing), (prefix, failing)


def test_every_check_is_shown_to_fail(results):
    for name, (op, res) in results.items():
        if op.known_fault:
            continue
        shown = [p for n, _, _, ex in PERTURBATIONS if n == name for p in ex]
        for check in op.check(res.cols):
            assert any(check.name.startswith(p) for p in shown), check.name


def test_layer_metrics_self_time_and_counts():
    spans = [["cli.run", 0.0, 10.0, -1, None],
             ["cli.cmd_gap_pdf", 1.0, 9.0, 0, None],
             ["painleve.solve_hastings_mcleod", 1.0, 4.0, 1, None],
             ["painleve.solve_bvp", 1.0, 2.0, 2, 100],
             ["painleve.solve_bvp", 2.0, 3.5, 2, 300],
             ["scaling.p_typ", 4.0, 6.0, 1, None],
             ["laxpair.solve_psi", 4.0, 5.5, 5, None],
             ["numerics.solve_ivp", 4.0, 5.0, 6, 1234],
             ["scaling.p_typ", 6.0, 9.0, 1, None]]
    m = tracing.layer_metrics([{"spans": spans, "counters":
                                {"finite_n.node_sets_built": 0}}])
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["scaling.self_s"] == pytest.approx(0.5 + 3.0)
    assert m["scaling.point_s"] == pytest.approx(2.5)
    assert m["painleve.table_s"] == pytest.approx(3.0)
    assert m["painleve.bvp_nodes"] == 300
    assert m["painleve.bvp_attempts"] == 2
    assert m["numerics.ode_rhs_evals"] == 1234
    assert m["laxpair.psi_solves"] == 1


def test_fails_without_the_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    cmd = json.loads((bare / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "edge-curves", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
