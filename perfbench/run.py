"""Cold-CLI benchmark of the nearextreme edge, finite-N and Monte Carlo
pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every command runs cold, in a fresh
interpreter, one process at a time, with one thread: `--threads 1`, BLAS
pinned to one thread, no byte-code written.  Each command writes its CSV
under perfbench-out/work-<pid>/, where it is parsed, checked and deleted
before the next command starts, so nothing carries over.  Commands run in whole rounds;
a round runs every command of the workload once, in an order that alternates
with the seed and the round, and rounds repeat while another fits in
`--seconds`.  Timings are medians over the rounds.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` one untraced and one traced round run
(perfbench/tracing.py) and the JSON holds the per-layer metrics plus the
tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
WORK = OUT / f"work-{os.getpid()}"

#: whole benchmark invocation, so that it ends within 180 s
DEADLINE_S = 170.0
#: fresh-interpreter imports timed per run for setup_s
SETUP_PROBES = 3

PROBE = "import nearextreme.cli as c; print(c.__file__)"


@dataclass
class Op:
    """One CLI command: its arguments (without --out) and the check of its
    CSV.  `label` names its wall time (or, with `samples`, its sampling
    rate) in the report printed above the JSON line; `known_fault` names
    the program fault that makes the operation fail today."""

    name: str
    argv: list[str]
    check: Callable[[dict], list]
    label: Optional[str] = None
    samples: Optional[int] = None
    known_fault: Optional[str] = None


@dataclass
class Result:
    op: Op
    wall_s: float
    rss_mb: float
    ok: bool
    lines: list[str] = field(default_factory=list)
    cols: Optional[dict] = None


class Runner:
    """Starts one child at a time and reaps it with its own resource use."""

    def __init__(self, started: float):
        self.started = started
        # the BLAS thread variables are already in os.environ
        self.env = dict(os.environ, PYTHONPATH=str(SRC),
                        PYTHONDONTWRITEBYTECODE="1", NEAREXTREME_THREADS="1")

    def spawn(self, argv: list[str], log: Path) -> tuple[float, int, int]:
        """Run argv to completion with its output in `log`: (wall seconds,
        exit code, peak RSS in kB from the parent's rusage).  A child still
        running at the deadline is killed."""
        t0 = time.perf_counter()
        with open(log, "w") as fh:
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=fh,
                                    stderr=subprocess.STDOUT)
        left = DEADLINE_S - (time.monotonic() - self.started)
        timer = threading.Timer(max(left, 0.0), proc.send_signal,
                                (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss

    def setup_probe(self) -> float:
        """Fresh interpreter plus `import nearextreme.cli`; checks that
        the module comes from this checkout's src/."""
        log = WORK / "probe.txt"
        wall, rc, _ = self.spawn([sys.executable, "-c", PROBE], log)
        where = log.read_text().strip()
        if rc != 0 or Path(where).resolve() != SRC / "nearextreme" / "cli.py":
            raise SystemExit(f"nearextreme.cli did not import from {SRC}: "
                             f"{where}")
        return wall

    def run_op(self, op: Op, traced: bool = False,
               spans: Optional[Path] = None) -> Result:
        csv = WORK / f"{op.name}.csv"
        log = WORK / f"{op.name}.log"
        peak = WORK / f"{op.name}.peak"
        argv = [str(peak)] + op.argv + ["--threads", "1", "--out", str(csv)]
        if traced:
            argv = [sys.executable, str(HERE / "tracing.py"), argv[0],
                    str(spans)] + argv[1:]
        else:
            argv = [sys.executable, str(HERE / "launch.py")] + argv
        wall, rc, rusage_kb = self.spawn(argv, log)
        # VmHWM of the command's own address space; the rusage fallback
        # (a command killed before exit) also counts this process's pages
        kb = int(peak.read_text().split()[1]) if peak.exists() else rusage_kb
        res = Result(op, wall, kb / 1024.0, ok=False)
        if rc != 0:
            tail = log.read_text().strip().splitlines()[-3:]
            res.lines = [f"exit code {rc}: " + " | ".join(tail)]
        else:
            res.cols = checks.read_csv(csv)
            found = op.check(res.cols)
            res.ok = all(c.ok for c in found)
            res.lines = [f"{'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}"
                         for c in found]
        for path in (csv, log, peak):
            path.unlink(missing_ok=True)
        return res


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def edge_curves(seed: int) -> list[Op]:
    """N -> infinity curves: the only workload that runs painleve, laxpair,
    scaling, numerics and airy.  The DOS (oscillatory f, wide [-12, 20]
    table) and the gap (decaying f, default [-12, 10] table) split their
    time between table and psi solves very differently."""
    return [Op("dos-edge", ["dos-edge", "--rmax", "12", "--step", "0.75"],
               checks.dos_edge, label="dos_edge_s"),
            Op("gap-pdf", ["gap-pdf", "--rmax", "8", "--step", "0.25"],
               checks.gap_pdf, label="gap_pdf_s")]


def finite_n(seed: int) -> list[Op]:
    """Exact finite-N curves, checked against a dense-GUE sample drawn from
    the seed: the DOS at N = 12 needs one node set, the gap at N = 6 on
    [0, 3] builds one per integer |r| (four), the CDF of lambda_max at
    N = 12 is the Stieltjes procedure alone."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 12]))
    n12 = reference.dense_gue(12, 100_000, rng)
    n6 = reference.dense_gue(6, 100_000, rng)
    return [Op("finite-dos", ["finite-n", "--n", "12", "--quantity", "dos",
                              "--rmax", "12", "--step", "0.2"],
               lambda c: checks.finite_dos(c, n12), label="finite_dos_s"),
            Op("finite-gap", ["finite-n", "--n", "6", "--quantity", "gap",
                              "--rmax", "3", "--step", "0.1"],
               lambda c: checks.finite_gap(c, n6), label="finite_gap_s"),
            Op("finite-cdf", ["finite-n", "--n", "12", "--quantity", "cdf",
                              "--step", "0.1"],
               lambda c: checks.finite_cdf(c, n12[:, 0]),
               label="finite_cdf_s")]


MC_LARGE_N, MC_LARGE_SAMPLES = 1000, 200
MC_SMALL_N, MC_SMALL_SAMPLES, MC_SMALL_REFERENCE = 32, 100_000, 20_000
# the failing bulk-DOS operation uses fixed inputs, so it fails the same
# way on every seed
MC_FAULT_N, MC_FAULT_SAMPLES, MC_FAULT_SEED = 200, 100, 1


def monte_carlo(seed: int) -> list[Op]:
    """Sampler: N = 1000 edge DOS and gap on the per-sample top-64 path,
    the bulk DOS at N = 32 on the batched dense path, and the bulk DOS at
    N = 200 that the top-64 truncation breaks."""
    edge_seed, gap_seed, small_seed, ref_seed = \
        np.random.SeedSequence(seed).generate_state(4)
    small_ref = reference.dense_gue(
        MC_SMALL_N, MC_SMALL_REFERENCE,
        np.random.default_rng(np.random.SeedSequence(int(ref_seed))))

    def sample(n, count, sample_seed, *quantity):
        return ["sample", "--n", str(n), "--samples", str(count),
                "--seed", str(sample_seed), "--quantity", *quantity]

    return [
        Op("mc-edge-dos",
           sample(MC_LARGE_N, MC_LARGE_SAMPLES, edge_seed, "dos",
                  "--scaling", "edge"),
           checks.mc_edge_dos, label="mc_edge_dos_samples_per_s",
           samples=MC_LARGE_SAMPLES),
        Op("mc-gap", sample(MC_LARGE_N, MC_LARGE_SAMPLES, gap_seed, "gap"),
           lambda c: checks.mc_gap(c, MC_LARGE_SAMPLES),
           label="mc_gap_samples_per_s",
           samples=MC_LARGE_SAMPLES),
        Op("mc-small",
           sample(MC_SMALL_N, MC_SMALL_SAMPLES, small_seed, "dos",
                  "--scaling", "bulk"),
           lambda c: checks.mc_bulk_dos(c, MC_SMALL_SAMPLES, small_ref),
           label="mc_small_samples_per_s", samples=MC_SMALL_SAMPLES),
        Op("mc-bulk-n200",
           sample(MC_FAULT_N, MC_FAULT_SAMPLES, MC_FAULT_SEED, "dos",
                  "--scaling", "bulk"),
           lambda c: checks.mc_bulk_dos(c, MC_FAULT_SAMPLES),
           known_fault="cli.cmd_sample sets top_k = 64 for every n > 64, "
                       "so empirical_dos sees 63 of the n - 1 distances but "
                       "divides by n - 1"),
    ]


WORKLOADS = {"edge-curves": edge_curves, "finite-n": finite_n,
             "monte-carlo": monte_carlo}

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s"}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def order(ops: list[Op], seed: int, rnd: int) -> list[Op]:
    return ops if (seed + rnd) % 2 == 0 else ops[::-1]


def report(res: Result, label: str = "") -> None:
    print(f"{res.op.name}{label}: {res.wall_s:.3f} s, {res.rss_mb:.1f} MB"
          f"{'' if res.ok else ' [FAILED]'}")
    for line in res.lines:
        print("    " + line)


def tally(results: list[Result]) -> tuple[bool, int]:
    """(correct, failed): an operation fails when its command exits
    non-zero or its output fails a check; the run is correct only when
    every failed operation is a named known fault."""
    failed = [r for r in results if not r.ok]
    return all(r.op.known_fault for r in failed), len(failed)


def measure(runner: Runner, ops: list[Op], seed: int, seconds: float):
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    results: list[Result] = []
    t0 = time.perf_counter()
    rnd = 0
    while True:
        start = time.perf_counter()
        for op in order(ops, seed, rnd):
            res = runner.run_op(op)
            report(res)
            results.append(res)
        rnd += 1
        took = time.perf_counter() - start
        if time.perf_counter() - t0 + took > seconds:
            break
    rounds = [results[i:i + len(ops)] for i in range(0, len(results),
                                                      len(ops))]
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": max(r.rss_mb for r in results),
               "round_s": statistics.median(sum(r.wall_s for r in rd)
                                            for rd in rounds)}
    for op in ops:
        wall = statistics.median(r.wall_s for r in results if r.op is op)
        figure = f"{op.samples / wall:.3f} samples/s" if op.samples \
            else f"{wall:.3f} s"
        print(f"{op.label or op.name}: {figure} ({op.name}, {wall:.3f} s)")
    print(f"rounds: {rnd}; setup probes: "
          + ", ".join(f"{s:.3f}" for s in setups))
    return metrics, results, E2E_UNITS


def measure_traced(runner: Runner, ops: list[Op], seed: int, tag: str):
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    results: list[Result] = []
    plain = traced = 0.0
    traces = []
    for mode in (("plain", "traced") if seed % 2 == 0
                 else ("traced", "plain")):
        for op in order(ops, seed, 0):
            if mode == "plain":
                res = runner.run_op(op)
                plain += res.wall_s
            else:
                spans = trace_dir / f"{tag}-{op.name}.json"
                res = runner.run_op(op, traced=True, spans=spans)
                traced += res.wall_s
                traces.append(json.loads(spans.read_text()))
            report(res, f" ({mode})")
            results.append(res)
    metrics = tracing.layer_metrics(traces)
    metrics["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    print(f"tracing overhead: traced {traced:.3f} s vs untraced "
          f"{plain:.3f} s ({metrics['trace.overhead_pct']:+.2f} %)")
    units = dict(tracing.LAYER_METRICS, **{"trace.overhead_pct": "%"})
    return metrics, results, units


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    started = time.monotonic()

    if not (SRC / "nearextreme" / "cli.py").is_file():
        print(f"error: no nearextreme source under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        ops = WORKLOADS[args.workload](args.seed)
        runner = Runner(started)
        if args.trace:
            tag = f"{args.workload}-{args.seed}"
            metrics, results, units = measure_traced(runner, ops, args.seed,
                                                     tag)
        else:
            metrics, results, units = measure(runner, ops, args.seed,
                                              args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    correct, failed = tally(results)
    for op in ops:
        if op.known_fault and any(r.op is op and not r.ok for r in results):
            print(f"known fault, counted as failed: {op.name}: "
                  f"{op.known_fault}")
    out = {"correct": correct, "attempted": len(results), "failed": failed,
           "metrics": {k: {"value": metrics[k], "unit": units[k]}
                       for k in units}}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(out, indent=1))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
