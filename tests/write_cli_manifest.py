"""Rewrite tests/cli_manifest.json: the sha256 of every listed CLI output.

    PYTHONPATH=src python tests/write_cli_manifest.py

Each command runs in process through ``cli.run`` with ``--out`` in a
temporary directory.  Its digest covers the whole output but the
``# nearextreme <version>`` line, so that a version bump alone changes no
digest.  The manifest records the numpy version and the platform that the
digests were made on; ``tests/test_cli_manifest.py`` compares against it.
Run this script after changing an output on purpose, and name in the
change's notes which digests changed and why: it prints the argv and the
old and new sha256 of every entry whose digest it rewrites, and of every
entry it adds.
"""

from __future__ import annotations

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from nearextreme import cli

MANIFEST = Path(__file__).resolve().parent / "cli_manifest.json"


def _sample(n, count, seed, *quantity):
    return ["sample", "--n", str(n), "--samples", str(count),
            "--seed", str(seed), "--quantity", *quantity]


#: the sample that runs twice, with no --threads and with --threads 4
SAMPLE_GAP = ["sample", "--n", "1000", "--samples", "5000", "--quantity",
              "gap"]
#: the benchmark's operations as it runs them (with --threads 1), the edge
#: curves at the default step and at 0.01, the other commands at their
#: defaults, and SAMPLE_GAP
INVOCATIONS = [
    ["dos-edge", "--rmax", "12", "--step", "0.75", "--threads", "1"],
    ["gap-pdf", "--rmax", "8", "--step", "0.25", "--threads", "1"],
    ["finite-n", "--n", "12", "--quantity", "dos", "--rmax", "12",
     "--step", "0.2", "--threads", "1"],
    ["finite-n", "--n", "6", "--quantity", "gap", "--rmax", "3",
     "--step", "0.1", "--threads", "1"],
    ["finite-n", "--n", "12", "--quantity", "cdf", "--step", "0.1",
     "--threads", "1"],
    _sample(1000, 200, 3, "dos", "--scaling", "edge") + ["--threads", "1"],
    _sample(1000, 200, 3, "gap") + ["--threads", "1"],
    _sample(32, 100_000, 3, "dos", "--scaling", "bulk") + ["--threads", "1"],
    _sample(200, 100, 1, "dos", "--scaling", "bulk") + ["--threads", "1"],
    ["dos-edge"],
    ["dos-edge", "--step", "0.01"],
    ["gap-pdf"],
    ["gap-pdf", "--step", "0.01"],
    ["tabulate-psi", "--r-tilde", "3.5"],
    ["tabulate-psi", "--r-tilde", "-3.5"],
    ["tabulate-painleve"],
    ["asymptotics"],
    ["dos-bulk"],
    SAMPLE_GAP,
    SAMPLE_GAP + ["--threads", "4"],
    ["check"],
]


def environment() -> dict:
    """What the digests depend on besides the program: numpy, and the
    platform's C library, whose libm rounds the transcendental functions."""
    libc, version = platform.libc_ver()
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}-"
                        f"{libc}{version}"}


def digest(argv: list[str]) -> str:
    """sha256 of what ``cli.run(argv + ["--out", file])`` writes, without
    its ``# nearextreme <version>`` line; a nonzero exit raises."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        rc = cli.run(argv + ["--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"{argv} exited {rc}")
        lines = out.read_bytes().splitlines(keepends=True)
    kept = b"".join(ln for ln in lines if not ln.startswith(b"# nearextreme "))
    return hashlib.sha256(kept).hexdigest()


def main() -> None:
    old = {}
    if MANIFEST.exists():
        old = {tuple(e["argv"]): e["sha256"]
               for e in json.loads(MANIFEST.read_text())["entries"]}
    new = [(argv, digest(argv)) for argv in INVOCATIONS]
    for argv, sha in new:
        was = old.get(tuple(argv))
        if was != sha:
            print(f"{' '.join(argv)}\n  old {was}\n  new {sha}")
    # one entry per line
    entries = ",\n  ".join(json.dumps({"argv": argv, "sha256": sha})
                           for argv, sha in new)
    MANIFEST.write_text(f'{{"environment": {json.dumps(environment())},\n'
                        f' "entries": [\n  {entries}\n ]}}\n')


if __name__ == "__main__":
    main()
