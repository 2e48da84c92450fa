"""Run the nearextreme CLI as its console script does, and record the peak
resident set of the process:

    python3 perfbench/launch.py PEAK_FILE <nearextreme arguments>

At exit the process writes its VmHWM line from /proc/self/status to
PEAK_FILE.  VmHWM belongs to the address space the interpreter got at exec,
so, unlike the rusage the parent reads, it does not include the benchmark
process that forked it.
"""

from __future__ import annotations

import atexit
import sys


def record_peak_rss(path: str) -> None:
    def write() -> None:
        with open("/proc/self/status") as fh:
            line = next(ln for ln in fh if ln.startswith("VmHWM:"))
        with open(path, "w") as out:
            out.write(line)

    atexit.register(write)


if __name__ == "__main__":
    record_peak_rss(sys.argv[1])
    from nearextreme.cli import main

    sys.argv = ["nearextreme"] + sys.argv[2:]
    main()
