"""Traced launcher and per-layer metrics for the nearextreme CLI.

Run as a script, it executes one CLI command with timing wrappers around the
calls into each module, then writes the spans once, as JSON:

    python3 perfbench/tracing.py PEAK_FILE SPANS.json <nearextreme arguments>

Each wrapper replaces a function under the name its caller looks it up by
(``scaling`` calls ``solve_psi`` through its own import, so the wrapper goes
on ``scaling.solve_psi``).  Where a count lives only in the SciPy result a
module receives, the wrapper goes on that SciPy call as the module makes it:
the BVP mesh (``painleve.solve_bvp``), right-hand-side evaluations
(``numerics.solve_ivp``), adaptive quadratures (``finite_n.quad``) and
eigensolves (``montecarlo.eigvalsh_tridiagonal``, ``numpy.linalg.eigvalsh``).
The program's source is not changed.

A span is [name, start, end, parent index, extra]; the layer is the part of
the name before the first dot.  ``layer_metrics`` turns the spans of one
workload's commands into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

import launch

#: per-layer metrics: name -> unit
LAYER_METRICS = {
    "cli.self_s": "s",
    "painleve.table_s": "s",
    "painleve.tables_built": "count",
    "painleve.bvp_nodes": "count",
    "painleve.bvp_attempts": "count",
    "laxpair.psi_s": "s",
    "laxpair.psi_solves": "count",
    "numerics.ode_s": "s",
    "numerics.ode_rhs_evals": "count",
    "numerics.tail_remainder_s": "s",
    "scaling.point_s": "s",
    "scaling.self_s": "s",
    "finite_n.node_sets_built": "count",
    "finite_n.ortho_systems_built": "count",
    "finite_n.weight_quads": "count",
    "finite_n.quad_s": "s",
    "finite_n.point_s": "s",
    "montecarlo.sample_s": "s",
    "montecarlo.eigensolve_s": "s",
    "montecarlo.eigenvalues_per_sample": "count",
    "montecarlo.histogram_s": "s",
}


class Tracer:
    """Spans kept in memory while one command runs."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        """Replace owner.attr by a wrapper that records a span `name`;
        `extra(result, args, kwargs)` stores a count taken from the call."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, None]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if extra is not None:
                span[4] = extra(result, args, kwargs)
            return result

        setattr(owner, attr, traced)


class _View:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, base, **override):
        self._base = base
        self.__dict__.update(override)

    def __getattr__(self, name):
        return getattr(self._base, name)


def _instrument(tracer: Tracer):
    """Wrap the nearextreme functions the CLI commands reach; returns the
    cli module and a function giving the end-of-run counters."""
    import numpy as np

    from nearextreme import (cli, finite_n, laxpair, montecarlo, numerics,
                             painleve, scaling)

    w = tracer.wrap
    for attr in dir(cli):
        if attr.startswith("cmd_"):
            w(cli, attr, f"cli.{attr}")

    w(painleve, "solve_hastings_mcleod", "painleve.solve_hastings_mcleod")
    w(painleve, "solve_bvp", "painleve.solve_bvp",
      lambda sol, a, k: int(sol.x.size))

    w(scaling, "solve_psi", "laxpair.solve_psi")
    w(laxpair, "solve_psi", "laxpair.solve_psi")
    w(laxpair, "integrate_ode", "numerics.integrate_ode")
    w(numerics, "solve_ivp", "numerics.solve_ivp",
      lambda sol, a, k: int(sol.nfev))
    w(numerics.AiryProductTail, "remainder",
      "numerics.AiryProductTail.remainder")

    for attr in ("rho_edge_scaling", "p_typ", "a4_integral",
                 "gap_tail_asymptotic"):
        w(scaling, attr, f"scaling.{attr}")

    for attr in ("dos_exact", "gap_pdf_exact", "cdf_lambda_max",
                 "build_ortho_system"):
        w(finite_n, attr, f"finite_n.{attr}")
    w(finite_n, "quad", "finite_n.quad")

    w(montecarlo, "sample_spectrum", "montecarlo.sample_spectrum",
      lambda res, a, k: int(a[1] if len(a) > 1 else k["count"]))
    w(montecarlo, "eigvalsh_tridiagonal", "montecarlo.eigvalsh_tridiagonal",
      lambda ev, a, k: int(np.size(ev)))
    # montecarlo reaches the batched solver as np.linalg.eigvalsh; give it
    # its own view of numpy so that other callers (numpy's own leggauss in
    # finite_n) stay unwrapped
    montecarlo.np = _View(np, linalg=_View(np.linalg))
    w(montecarlo.np.linalg, "eigvalsh", "montecarlo.eigvalsh",
      lambda ev, a, k: int(np.size(ev)))
    for attr in ("empirical_gap", "empirical_dos"):
        w(montecarlo, attr, f"montecarlo.{attr}")

    def counters() -> dict:
        # _dos_nodes is an lru_cache: its misses are the node sets built
        return {"finite_n.node_sets_built":
                finite_n._dos_nodes.cache_info().misses}

    return cli, counters


def main(argv: list[str]) -> int:
    peak_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    launch.record_peak_rss(peak_path)
    tracer = Tracer()
    cli, counters = _instrument(tracer)
    tracer.wrap(cli, "run", "cli.run")
    try:
        rc = cli.run(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": counters()}, fh)
    return rc


# ---------------------------------------------------------------------------
# aggregation (runs in the benchmark process)
# ---------------------------------------------------------------------------


def _self_times(spans: list) -> dict:
    """Self time per layer: each span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + (t1 - t0) - child[i]
    return out


def layer_metrics(traces: list[dict]) -> dict:
    """Per-layer metrics over the traced commands of one workload; each
    trace is the JSON one traced command wrote."""
    total = dict.fromkeys(LAYER_METRICS, 0.0)
    points = {"scaling": [], "finite_n": []}
    per_sample = []
    for trace in traces:
        spans = trace["spans"]
        for layer, s in _self_times(spans).items():
            if f"{layer}.self_s" in total:
                total[f"{layer}.self_s"] += s
        bvp_per_table: dict[int, list] = {}
        eigen_per_call: dict[int, int] = {}
        for name, t0, t1, parent, extra in spans:
            dt = t1 - t0
            if name == "painleve.solve_hastings_mcleod":
                total["painleve.table_s"] += dt
                total["painleve.tables_built"] += 1
            elif name == "painleve.solve_bvp":
                bvp_per_table.setdefault(parent, []).append(extra)
            elif name == "laxpair.solve_psi":
                total["laxpair.psi_s"] += dt
                total["laxpair.psi_solves"] += 1
            elif name == "numerics.integrate_ode":
                total["numerics.ode_s"] += dt
            elif name == "numerics.solve_ivp":
                total["numerics.ode_rhs_evals"] += extra
            elif name == "numerics.AiryProductTail.remainder":
                total["numerics.tail_remainder_s"] += dt
            elif name in ("scaling.rho_edge_scaling", "scaling.p_typ"):
                points["scaling"].append(dt)
            elif name == "finite_n.build_ortho_system":
                total["finite_n.ortho_systems_built"] += 1
            elif name == "finite_n.quad":
                total["finite_n.weight_quads"] += 1
                total["finite_n.quad_s"] += dt
            elif name == "montecarlo.sample_spectrum":
                total["montecarlo.sample_s"] += dt
            elif name in ("montecarlo.eigvalsh_tridiagonal",
                          "montecarlo.eigvalsh"):
                total["montecarlo.eigensolve_s"] += dt
                eigen_per_call[parent] = eigen_per_call.get(parent, 0) + extra
            elif name in ("montecarlo.empirical_gap",
                          "montecarlo.empirical_dos"):
                total["montecarlo.histogram_s"] += dt
            if name.startswith("finite_n.") and parent >= 0 \
                    and spans[parent][0].startswith("cli."):
                points["finite_n"].append(dt)
        for sizes in bvp_per_table.values():
            total["painleve.bvp_nodes"] += sizes[-1]
            total["painleve.bvp_attempts"] = max(
                total["painleve.bvp_attempts"], len(sizes))
        total["finite_n.node_sets_built"] += \
            trace["counters"]["finite_n.node_sets_built"]
        for call, eigenvalues in eigen_per_call.items():
            per_sample.append(eigenvalues / spans[call][4])
    for layer, durations in points.items():
        if durations:
            total[f"{layer}.point_s"] = statistics.median(durations)
    if per_sample:
        # mean over sample_spectrum calls, so that the N = 1000 commands
        # weigh as much as the many cheap small-N samples
        total["montecarlo.eigenvalues_per_sample"] = statistics.mean(
            per_sample)
    return total


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
