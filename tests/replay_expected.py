"""Replay every recorded benchmark input and compare its report digest.

    PYTHONPATH=src python tests/replay_expected.py [EXPECTED_JSON]

perfbench/expected.json records, for each input the benchmark can run,
the exit code and the sha256 of the report.  This script runs every one
of them in-process through ``alder.cli.main``, with the in-memory table
store emptied before each, and compares both.  A ``search`` input (the
benchmark runs those with ``--cache``) runs twice, on a cold and then a
warm temporary cache directory.  It prints one line per mismatch and a
total, and exits 1 if any input drifted.  It only reads the benchmark's
files.  Its name does not match ``test_*.py``, so pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

from alder import cli, counting

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def replay(argv: list[str]) -> tuple[int, str]:
    """Exit code and report sha256 of one in-process run on cold tables."""
    counting._tables.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    counting.set_cache_dir(None)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else EXPECTED
    with open(path, encoding="utf-8") as fh:
        expected = json.load(fh)
    started = time.monotonic()
    runs = drifted = 0
    for key, want in expected.items():
        args = key.split()
        with tempfile.TemporaryDirectory() as cache:
            variants = ([[*args, "--cache", cache]] * 2  # cold, then warm
                        if args[0] == "search" else [args])
            for variant in variants:
                got = replay(variant)
                runs += 1
                if got != (want["exit"], want["sha256"]):
                    drifted += 1
                    print(f"DRIFT {' '.join(variant)}: exit {got[0]} sha256 {got[1]}, "
                          f"expected exit {want['exit']} sha256 {want['sha256']}")
    print(f"{runs - drifted}/{runs} runs of {len(expected)} inputs "
          f"match ({time.monotonic() - started:.1f}s)")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
