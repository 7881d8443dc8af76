"""Benchmark of the alder command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one ``python -m alder ... --jobs 1`` invocation (run
through launch.py, which records its peak RSS), run again and again as a
fresh child process, one at a time, for S seconds.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (medians over the children of the run); with
``--trace 1`` they are the per-layer ones, taken from one more child run
under ``tracer.py``.  The line before it holds the details: environment,
sample count, quartiles, failures and, when traced, the busiest functions.

Workloads (the seed picks a neighbouring input of the same shape and cost):

    shift_grid    verify shift --N 2..5 --d D..D+7 --n-max 2000, D = 200 + seed % 64.
                  64k cheap cells over 19 sparse tables: per-cell evaluation
                  (inequalities, partset, counting lookups) and JSON emission
                  (cli) dominate.
    count_stream  count --kind K --a A --d 4 --n 1..4000, (K, A) one of 9 by seed.
                  A dense modulus-7 part set: counting table builds dominate,
                  4096 entries after geometric regrowth.
    inject_cell   inject --d 63 --N 2 --n 1105 + seed % 38.  Every such n has
                  rho(S(63, 2), n) = 8470 partitions: enumeration dominates.
    scan_warm     search --kind delta --a 1..2 --d D..D+29 --n-max 1200 --cache DIR,
                  D = 40 + seed % 10, with DIR filled during set-up: 72k lookups
                  into 120 tables loaded from the cache.

Correctness gate: every child's exit code and the sha256 of its report
must equal the ones recorded in expected.json for its input (recorded
from the code this benchmark was written against; see
record_expected.py).  An input with no recorded digest must exit 0 with
no ``fails`` in the summary, the expected cell count and, for inject,
every check true.  A traced report must equal the untraced one byte for
byte.

Set-up (``setup_s``) is the median time of interpreter and package
start-up (``python -m alder --help``, STARTUP_PROBES times per run) plus,
for scan_warm, the median time of filling the cache from cold
(FILL_ROUNDS times per run).  Per-child CPU time comes from ``os.wait4``,
which reports the one child only (``RUSAGE_CHILDREN`` would be a running
maximum).  Peak RSS is the child's own high-water mark, which launch.py
records at exit (see there for why not ``os.wait4``'s).

Times are speed-normalised.  On a shared machine the CPU speed a process
gets drifts by tens of percent over minutes, and flips between a fast and
a slow state every few seconds; that is far more than any bound a
regression check could use, and a run of S seconds cannot average it out.
So every timed child, in set-up and measured, is followed by a fixed
speed reference (REFERENCES), each time is multiplied by the reference's
nominal time over the mean of the reference times just before and just
after it, and the medians of these are reported: seconds on a machine
where the references take their nominal times.  On a 2-core VM, 20-second
window medians of an inject child varied by 35% (IQR/median), and the
same windows' medians of child time over the following reference time
by 3.5%.  The unscaled figures, every timed child with its two reference
times, and the benchmark's own peak RSS are in the details line.

The benchmark writes only under ``.perfbench/`` in the checkout; the
trace of the last traced run per workload and seed is kept there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
EXPECTED_FILE = HERE / "expected.json"
TRACER = HERE / "tracer.py"
LAUNCH = HERE / "launch.py"

#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120.0
#: a run measures at least this many children, however long they take
MIN_SAMPLES = 3
#: set-up: start-up probes per run, and cold cache fills per run of a
#: cached workload
STARTUP_PROBES = 20
FILL_ROUNDS = 8

#: speed references, each a program run as a child after every timed child
#: (see Run.timed), and how long it takes on the machine that reported times
#: are scaled to.  "compute", a pure-Python loop, scales measured children
#: and cache fills.  "start", a bare interpreter start, scales start-up
#: probes: they spend their time as it does (loading code, page faults),
#: and on a 2-core VM their ratio to it drifted less than a third as much
#: as their ratio to the loop (1.4% against 4.1%, IQR/median of 8 medians
#: of 20).
REFERENCES = {
    "compute": ("""\
def f(x):
    return x * x % 7
d = {}
for i in range(300000):
    d[i & 1023] = f(i) + len(str(i))
""", 0.2),
    "start": ("pass", 0.055),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYERS = ("cli", "inequalities", "parallel", "counting", "cache", "partset",
          "injection")
STATUSES = ("holds", "fails", "out-of-hypothesis", "exempt", "skipped", "violation")

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.records": "count",
    "cli.report_bytes": "bytes",
    "inequalities.cells": "count",
    **{f"inequalities.status.{status}": "count" for status in STATUSES},
    "parallel.items": "count",
    "counting.build_s": "s",
    "counting.builds": "count",
    "counting.regrowths": "count",
    "counting.entries_built": "count",
    "counting.lookup_s": "s",
    "counting.lookups": "count",
    "counting.max_digits": "digits",
    "cache.load_s": "s",
    "cache.loads": "count",
    "cache.hits": "count",
    "cache.hit_ratio": "frac",
    "cache.bytes_read": "bytes",
    "cache.store_s": "s",
    "cache.stores": "count",
    "cache.bytes_written": "bytes",
    "partset.sets_built": "count",
    "partset.closed_form_calls": "count",
    "injection.enumerate_s": "s",
    "injection.partitions": "count",
    "injection.stats_s": "s",
    "injection.map_s": "s",
    "injection.check_s": "s",
    "injection.images": "count",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
}


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]      # alder arguments, without --cache
    items: int | None          # work items per child; None: read from the report
    cells: int | None          # summary cell count of a correct report; None: unchecked
    cached: bool = False       # reads a table cache filled during set-up


_COUNT_VARIANTS = [(kind, a) for a in (1, 2, 3) for kind in ("delta_m", "delta", "delta_mm")]

#: seeds that differ by a multiple of the period give the same input
SEED_PERIODS = {"shift_grid": 64, "count_stream": len(_COUNT_VARIANTS),
                "inject_cell": 38, "scan_warm": 10}
WORKLOADS = tuple(SEED_PERIODS)


def make_workload(name: str, seed: int) -> Workload:
    if name not in SEED_PERIODS:
        raise ValueError(f"unknown workload {name!r}")
    seed %= SEED_PERIODS[name]
    if name == "shift_grid":
        lo = 200 + seed
        return Workload(name, ("verify", "shift", "--N", "2..5", "--d", f"{lo}..{lo + 7}",
                               "--n-max", "2000", "--jobs", "1"), 64000, 64000)
    if name == "count_stream":
        kind, a = _COUNT_VARIANTS[seed]
        return Workload(name, ("count", "--kind", kind, "--a", str(a), "--d", "4",
                               "--n", "1..4000", "--jobs", "1"), 4000, 4000)
    if name == "inject_cell":
        n = 1105 + seed
        return Workload(name, ("inject", "--d", "63", "--N", "2", "--n", str(n),
                               "--jobs", "1"), None, 1)
    lo = 40 + seed
    return Workload(name, ("search", "--kind", "delta", "--a", "1..2",
                           "--d", f"{lo}..{lo + 29}", "--n-max", "1200",
                           "--jobs", "1"), 2 * 30 * 1200, None, cached=True)


def input_key(workload: Workload) -> str:
    """Key of a workload input in expected.json."""
    return " ".join(workload.argv)


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- children

@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float | None  # as launch.py recorded it; None if it did not
    sha256: str
    lines: int
    report_bytes: int
    report: Path
    stderr: Path


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_child(cmd: list[str], report: Path, stderr: Path, peak: Path | None = None) -> Child:
    """Run one child to completion, with stdout into ``report``.

    Wall time spans spawn to reap; CPU time is the child's own, from
    ``os.wait4``.  ``peak`` is the file a launch.py child writes its peak
    RSS to.
    """
    if peak is not None:
        peak.unlink(missing_ok=True)
    with open(report, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    digest = hashlib.sha256()
    lines = size = 0
    with open(report, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            size += len(chunk)
    peak_rss_mb = None
    if peak is not None and peak.exists():
        peak_rss_mb = int(peak.read_text(encoding="ascii")) / 1024
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, peak_rss_mb,
                 digest.hexdigest(), lines, size, report, stderr)


def alder_cmd(workload: Workload, cache: Path | None, peak: Path) -> list[str]:
    """Command of one alder child on ``workload``, run by launch.py."""
    cmd = [sys.executable, str(LAUNCH), str(peak), *workload.argv]
    return cmd + ["--cache", str(cache)] if cache is not None else cmd


def _first_and_last_line(path: Path) -> tuple[bytes, bytes]:
    with open(path, "rb") as fh:
        first = fh.readline()
        fh.seek(max(0, fh.seek(0, os.SEEK_END) - 65536))
        last = fh.read().rstrip(b"\n").rsplit(b"\n", 1)[-1]
    return first, last


def report_items(workload: Workload, child: Child) -> int:
    """Work items of one child: fixed by the input, or the report's count
    (0 when the report is unreadable, which the gate has already failed)."""
    if workload.items is not None:
        return workload.items
    try:
        first, _ = _first_and_last_line(child.report)
        return int(json.loads(first)["value"])
    except (ValueError, KeyError, TypeError):
        return 0


def gate(workload: Workload, child: Child, expected: dict) -> str | None:
    """Return why ``child`` failed the correctness gate, or None if it passed."""
    want = expected.get(input_key(workload))
    if want is not None:
        if child.exit_code != want["exit"]:
            return f"exit {child.exit_code}, expected {want['exit']}"
        if child.sha256 != want["sha256"]:
            return f"report sha256 {child.sha256}, expected {want['sha256']}"
        return None
    if child.exit_code != 0:
        return f"exit {child.exit_code}"
    try:
        first, last = _first_and_last_line(child.report)
        summary = json.loads(last)["summary"]
        if "fails" in summary:
            return f"summary reports {summary['fails']} failing cells"
        if workload.cells is not None and summary.get("cells") != workload.cells:
            return f"summary has {summary.get('cells')} cells, expected {workload.cells}"
        if workload.argv[0] == "inject":
            record = json.loads(first)
            if record["status"] != "holds" or record["witness"]["failed_checks"]:
                return f"inject cell {record['status']}: {record['witness']}"
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {exc!r}"
    return None


# ---------------------------------------------------------------- one run

class Run:
    """One benchmark run: set-up, measured children, optional traced child."""

    def __init__(self, workload: Workload, seconds: float, work: Path, expected: dict):
        self.workload = workload
        self.seconds = seconds
        self.work = work
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []
        self.cache: Path | None = None
        self.references: dict[str, list[float]] = {kind: [] for kind in REFERENCES}
        #: every timed child: [what, wall_s, cpu_s, reference before, reference after]
        self.log: list[list] = []

    def child(self, cmd: list[str], tag: str, check: bool = True,
              peak: Path | None = None) -> Child:
        child = run_child(cmd, self.work / f"{tag}.out", self.work / f"{tag}.err", peak)
        if check:
            self.attempted += 1
            reason = gate(self.workload, child, self.expected)
            if reason is not None:
                self.failures.append(f"{tag}: {reason}")
        return child

    def alder(self, tag: str, cache: Path | None, trace: Path | None = None) -> Child:
        """One gated alder child on the run's input; under the tracer, which
        records no peak RSS, when ``trace`` is given."""
        peak = self.work / f"{tag}.peak"
        cmd = alder_cmd(self.workload, cache, peak)
        if trace is not None:
            cmd[1:3] = [str(TRACER), str(trace)]
        return self.child(cmd, tag, peak=peak)

    def fill(self, round_: int, trace: Path | None = None) -> Child:
        """Fill a fresh table cache from cold; it becomes the run's cache."""
        cache = self.work / f"cache{round_}"
        shutil.rmtree(cache, ignore_errors=True)
        child = self.alder(f"fill{round_}", cache, trace)
        if self.cache is not None and self.cache != cache:
            shutil.rmtree(self.cache, ignore_errors=True)
        self.cache = cache
        return child

    def startup(self) -> Child:
        probe = self.child([sys.executable, "-m", "alder", "--help"], "startup", check=False)
        if probe.exit_code != 0:
            raise RuntimeError(f"alder does not start: {probe.stderr.read_text()[-500:]}")
        return probe

    def reference(self, kind: str) -> float:
        """Time the speed reference ``kind`` once; return its wall time."""
        program, _ = REFERENCES[kind]
        child = self.child([sys.executable, "-c", program], "reference", check=False)
        if child.exit_code != 0:
            raise RuntimeError(f"speed reference failed: {child.stderr.read_text()[-500:]}")
        self.references[kind].append(child.wall_s)
        return child.wall_s

    def timed(self, kind: str, fn, *args) -> tuple[Child, float]:
        """Run one child, ``fn(*args)``, and then the speed reference ``kind``,
        which must also have run just before it; return the child and its
        scale, the reference's nominal time over the mean of the two."""
        before = self.references[kind][-1]
        child = fn(*args)
        after = self.reference(kind)
        self.log.append([fn.__name__, child.wall_s, child.cpu_s, before, after])
        return child, 2 * REFERENCES[kind][1] / (before + after)

    def set_up(self) -> tuple[list[tuple[Child, float]], list[tuple[Child, float]]]:
        """Time start-up STARTUP_PROBES times and, for a cached workload, the
        cold cache fill FILL_ROUNDS times; return the (child, scale) pairs
        of each."""
        self.startup()  # writes bytecode; not timed
        self.reference("start")
        probes = [self.timed("start", self.startup) for _ in range(STARTUP_PROBES)]
        self.reference("compute")
        fills = [self.timed("compute", self.fill, r) for r in range(FILL_ROUNDS)] \
            if self.workload.cached else []
        return probes, fills

    def measure(self) -> list[tuple[Child, float]]:
        """Run children back to back, each followed by the speed reference,
        until the next pair would overrun the window; return (child, scale)
        pairs."""
        samples: list[tuple[Child, float]] = []
        steps: list[float] = []
        start = time.perf_counter()
        while len(samples) < MIN_SAMPLES or \
                time.perf_counter() - start + statistics.median(steps) <= self.seconds:
            step = time.perf_counter()
            tag = f"run{len(samples) % 2}"
            child, scale = self.timed("compute", self.alder, tag, self.cache)
            if child.peak_rss_mb is None:
                self.failures.append(f"{tag}: no peak RSS recorded")
            samples.append((child, scale))
            steps.append(time.perf_counter() - step)
        return samples

    def traced(self, trace_path: Path) -> tuple[Child, dict, dict | None]:
        """One traced child on the run's input; for a cached workload also
        one traced cold fill, whose trace supplies the cache store metrics."""
        fill_trace = None
        if self.workload.cached:
            fill_path = self.work / "fill-trace.json"
            self.fill(FILL_ROUNDS, trace=fill_path)
            fill_trace = json.loads(fill_path.read_text())
        child = self.alder("traced", self.cache, trace=trace_path)
        return child, json.loads(trace_path.read_text()), fill_trace


# ---------------------------------------------------------------- metrics

def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def end_to_end(samples: list[tuple[Child, float]], items: int, probes: list[tuple[Child, float]],
               fills: list[tuple[Child, float]], normalise: bool = True) -> dict[str, dict]:
    """Quartiles of each end-to-end metric, and of the two parts of set-up.
    ``setup_s`` is the sum of the two parts' medians.  Normalised, each
    time is multiplied by its child's scale (see Run.timed)."""

    def times(pairs: list[tuple[Child, float]], attr: str = "wall_s") -> list[float]:
        return [getattr(c, attr) * (scale if normalise else 1.0) for c, scale in pairs]

    series = {
        "wall_s": times(samples),
        "cpu_s": times(samples, "cpu_s"),
        "items_per_s": [items / t for t in times(samples)],
        "peak_rss_mb": [c.peak_rss_mb or 0.0 for c, _ in samples],
        "startup_s": times(probes),
    }
    if fills:
        series["fill_s"] = times(fills)
    stats = {name: quartiles(values) for name, values in series.items()}
    setup = stats["startup_s"]["median"] + (stats["fill_s"]["median"] if fills else 0.0)
    stats["setup_s"] = {"median": setup}
    return stats


def layer_metrics(trace: dict, fill_trace: dict | None, traced: Child,
                  untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced child (see tracer.py for the rules)."""
    layers, counters = trace["layers"], trace["counters"]
    stores = fill_trace or trace

    def calls(name: str) -> int:
        return trace["functions"].get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return trace["functions"].get(name, {}).get("self_s", 0.0)

    def inclusive(group: str, source: dict = trace) -> float:
        return source["groups"].get(group, {}).get("inclusive_s", 0.0)

    loads = counters.get("cache.loads", 0)
    layer_self = {layer: layers.get(layer, {}).get("self_s", 0.0) for layer in LAYERS}
    m = {f"{layer}.self_s": s for layer, s in layer_self.items()}
    m.update({
        "cli.records": max(traced.lines - 1, 0),  # minus the summary line
        "cli.report_bytes": traced.report_bytes,
        "inequalities.cells": counters.get("inequalities.cells", 0),
        **{f"inequalities.status.{s}": counters.get(f"inequalities.status.{s}", 0)
           for s in STATUSES},
        "parallel.items": counters.get("parallel.items", 0),
        "counting.build_s": counters.get("counting.build_s", 0.0),
        "counting.builds": counters.get("counting.builds", 0),
        "counting.regrowths": counters.get("counting.regrowths", 0),
        "counting.entries_built": counters.get("counting.entries_built", 0),
        "counting.lookup_s": counters.get("counting.lookup_s", 0.0),
        "counting.lookups": counters.get("counting.lookups", 0),
        "counting.max_digits": counters.get("counting.max_digits", 0),
        "cache.load_s": inclusive("cache.load"),
        "cache.loads": loads,
        "cache.hits": counters.get("cache.hits", 0),
        "cache.hit_ratio": counters.get("cache.hits", 0) / loads if loads else 0.0,
        "cache.bytes_read": counters.get("cache.bytes_read", 0),
        "cache.store_s": inclusive("cache.store", stores),
        "cache.stores": stores["counters"].get("cache.stores", 0),
        "cache.bytes_written": stores["counters"].get("cache.bytes_written", 0),
        "partset.sets_built": calls("partset.ResidueClassSet.__init__"),
        "partset.closed_form_calls": calls("partset.x_closed") + calls("partset.y_closed"),
        "injection.enumerate_s": inclusive("injection.enumerate"),
        "injection.partitions": counters.get("injection.partitions", 0),
        "injection.stats_s": inclusive("injection.stats"),
        "injection.map_s": inclusive("injection.map"),
        "injection.check_s": self_s("injection.verify_injection"),
        "injection.images": counters.get("injection.images", 0),
        "trace.overhead_frac": traced.wall_s / untraced_wall - 1,
        "trace.coverage": sum(layer_self.values()) / traced.wall_s,
    })
    assert set(m) == set(PER_LAYER)
    return m


def busiest(trace: dict, top: int = 12) -> list[list]:
    ranked = sorted(trace["functions"].items(), key=lambda kv: -kv[1]["self_s"])
    return [[name, f["calls"], round(f["self_s"], 6)] for name, f in ranked[:top]]


# ---------------------------------------------------------------- main

def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, check=False)
            sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": sha, "loadavg": list(os.getloadavg())}


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
              work: Path, expected: dict) -> tuple[dict, dict]:
    """Run one benchmark; return (result line, details)."""
    env = environment()
    run = Run(workload, seconds, work, expected)
    probes, fills = run.set_up()
    samples = run.measure()
    last = samples[-1][0]
    items = report_items(workload, last)
    stats = end_to_end(samples, items, probes, fills)
    raw = end_to_end(samples, items, probes, fills, normalise=False)
    details = {"workload": workload.name, "seed": seed, "argv": list(workload.argv),
               "env": env, "items": items, "seconds": seconds, "stats": stats,
               "raw": raw, "reference_s": {kind: quartiles(times)
                                           for kind, times in run.references.items()},
               "timed": run.log}
    if trace:
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{workload.name}-seed{seed}.json"
        traced, spans, fill_trace = run.traced(trace_path)
        if traced.sha256 != last.sha256:
            run.failures.append("traced: report differs from the untraced report")
        metrics = layer_metrics(spans, fill_trace, traced, raw["wall_s"]["median"])
        details.update(trace_file=os.path.relpath(trace_path, ROOT),
                       traced_wall_s=traced.wall_s, busiest=busiest(spans))
        units = PER_LAYER
    else:
        metrics = {name: stats[name]["median"] for name in END_TO_END}
        units = END_TO_END
    failed = len(run.failures)
    details.update(own_peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   attempted=run.attempted, failed=failed,
                   fail_frac=failed / run.attempted, failures=run.failures[:10])
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "alder" / "cli.py").is_file():
        print(f"error: no alder sources at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result, details = benchmark(make_workload(args.workload, args.seed), args.seed,
                                    args.seconds, bool(args.trace), work, load_expected())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
