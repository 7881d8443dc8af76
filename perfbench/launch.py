"""Run the alder command line and record this process's own peak RSS.

Usage (run.py starts every untraced alder child this way, with ``src``
on PYTHONPATH):

    python3 perfbench/launch.py PEAK_FILE ALDER_ARG...

It runs ``alder.cli.main`` on the given arguments, so the report on
stdout is the one ``python -m alder ALDER_ARG...`` writes, and at exit
writes the peak resident set size of this process, in KiB, to PEAK_FILE.

The peak is VmHWM from /proc/self/status, the high-water mark of this
process's own address space.  The ``ru_maxrss`` that ``os.wait4``
reports for a child is no good here: it also counts the address space
the child replaced at exec, which is that of the process that spawned
it, so a child of run.py never reads lower than run.py's own peak.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: launch.py PEAK_FILE ALDER_ARG...", file=sys.stderr)
        return 2
    peak_path, alder_argv = argv[0], argv[1:]
    cli = importlib.import_module("alder.cli")
    try:
        return cli.main(alder_argv)
    finally:
        sys.stdout.flush()
        Path(peak_path).write_text(f"{peak_rss_kib()}\n", encoding="ascii")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
