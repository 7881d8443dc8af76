"""Record the reference exit code and report digest of every workload input.

    python3 perfbench/record_expected.py

Runs each distinct input of every workload once (one seed period each)
and writes expected.json, which run.py checks every child against.  Run
it only on a commit whose reports are known good: it refuses to record a
report that fails the fallback checks (nonzero exit, failing cells, a
wrong cell count or a failed inject check).
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    work = run.WORK / "record"
    work.mkdir(parents=True, exist_ok=True)
    expected = {}
    try:
        for name in run.WORKLOADS:
            for seed in range(run.SEED_PERIODS[name]):
                workload = run.make_workload(name, seed)
                child = run.run_child(run.alder_cmd(workload, None, work / "peak"),
                                      work / "report", work / "stderr")
                reason = run.gate(workload, child, {})
                if reason is not None:
                    print(f"error: {run.input_key(workload)}: {reason}", file=sys.stderr)
                    return 1
                expected[run.input_key(workload)] = {"exit": child.exit_code,
                                                     "sha256": child.sha256}
                print(f"{name} seed {seed}: {child.wall_s:.2f}s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
