"""The benchmark's own references, drawn and computed apart from the program.

``dense_gue`` samples GUE spectra for the joint weight e^(-Tr H^2) with
numpy's dense Hermitian ``eigvalsh``; it shares no code with the program's
tridiagonal sampler or its orthogonal-polynomial curves.

Run as a script, this file regenerates ``checks.MEAN_SCALED_GAP``, the mean
of the scaled first gap from the Lax-pair curve:

    python3 perfbench/reference.py

It runs the program's `gap-pdf` command out to r = 10 on a 0.1 grid
(about a minute) and integrates r p_typ(r) by Simpson's rule.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

_CHUNK = 5000


def dense_gue(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` spectra of n x n GUE matrices with density ~ e^(-Tr H^2),
    each sorted descending: diagonal ~ Normal(0, 1/2), real and imaginary
    parts of the off-diagonal entries ~ Normal(0, 1/4)."""
    out = []
    idx = np.arange(n)
    for start in range(0, count, _CHUNK):
        m = min(_CHUNK, count - start)
        a = rng.normal(0.0, 0.5, (m, n, n))
        b = rng.normal(0.0, 0.5, (m, n, n))
        h = np.empty((m, n, n), dtype=complex)
        h.real = (a + a.transpose(0, 2, 1)) / math.sqrt(2.0)
        h.imag = (b - b.transpose(0, 2, 1)) / math.sqrt(2.0)
        h[:, idx, idx] = rng.normal(0.0, math.sqrt(0.5), (m, n))
        out.append(np.linalg.eigvalsh(h)[:, ::-1])
    return np.vstack(out)


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        out = Path(tmp) / "gap.csv"
        subprocess.run([sys.executable, "-c",
                        "import sys; from nearextreme.cli import main; main()",
                        "gap-pdf", "--rmax", "10", "--step", "0.1",
                        "--out", str(out)], env=env, check=True)
        cols = checks.read_csv(out)
    r, p = cols["r_tilde"], cols["value"]
    print(f"int p_typ      = {checks.simpson(p, r):.10f}")
    print(f"int r p_typ    = {checks.simpson(r * p, r):.10f}")
    print(f"MEAN_SCALED_GAP in checks.py = {checks.MEAN_SCALED_GAP}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
