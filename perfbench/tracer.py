"""Outside-in layer trace of one alder run.

Usage (run.py starts this as a child, with ``src`` on PYTHONPATH):

    python3 perfbench/tracer.py TRACE_JSON ALDER_ARG...

It imports alder, wraps every function a layer module defines, private
ones included (so a private callback such as a per-cell function handed
to ``parallel_map`` is timed in its own layer), and the methods and
``__init__`` of the classes it defines, then runs ``alder.cli.main`` on
the given arguments, so the report on stdout is the one an untraced run
writes.  At exit it writes TRACE_JSON: per-layer self
times, per-function calls and self times, counters, and the spans that
lasted at least SPAN_MIN_S.

A layer is a module of the package.  A call's self time is its duration
minus the time of the wrapped calls made inside it, so the per-layer self
times add up to the time spent inside ``cli.main``, less the wrapper
bookkeeping described below.  Modules import one
another's functions by name (``from .counting import rho``), so each
wrapper is rebound wherever the original is looked up: module globals and
the function tables held in module-level dicts.  Generator functions are
left unwrapped; their work is timed in whichever call consumes them.

Table builds are read off ``counting._tables``: it is replaced by a dict
that counts its stores.  A call into the counting layer from another
layer during which a table was added or grown is a build, and the
counting self time inside it is build time; any other such call is a
lookup, and the counting self time inside it lookup time.

Wrapper bookkeeping lands in the caller's self time.  ``calibrate``
measures it per call, and that much is taken off the caller for every
wrapped call it makes, so it is attributed to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("cli", "inequalities", "parallel", "counting", "cache", "partset",
          "injection")

#: spans shorter than this are aggregated only, to keep the trace small
SPAN_MIN_S = 0.001

#: functions timed as one group, inclusively, counting only the outermost
#: call (every counting function is also in the group "counting")
GROUPS = {
    "injection.enumerate_s": "injection.enumerate",
    "injection.enumerate_partitions": "injection.enumerate",
    "injection.stats": "injection.stats",
    "injection.phi": "injection.map",
    "injection.phi1": "injection.map",
    "injection.phi2": "injection.map",
    "cache.load": "cache.load",
    "cache.store": "cache.store",
}


class TableLog(dict):
    """Stand-in for ``counting._tables`` that counts what is stored in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.sets = 0
        self.regrowths = 0
        self.entries = 0
        self.max_digits = 0

    def __setitem__(self, key, table):
        values = getattr(table, "values", table)
        self.sets += 1
        if key in self:
            self.regrowths += 1
        self.entries += len(values)
        self.max_digits = max(self.max_digits, len(str(max(values))))
        super().__setitem__(key, table)


class Tracer:
    def __init__(self, bias: float = 0.0):
        #: time one wrapped call adds to its caller, taken off the caller's self time
        self.bias = bias
        self.origin = time.perf_counter()
        self.stack: list[list] = []           # per open call: [child time, child calls]
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.functions: dict[str, list] = {}  # name -> [calls, self_s]
        self.groups: dict[str, list] = {}     # see wrap
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.tables = TableLog()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------ wrapping

    def wrap(self, layer: str, name: str, fn, on_result=None, group=None):
        """Return ``fn`` wrapped in a span of ``layer`` named ``layer.name``.

        ``on_result(args, result)`` runs after a call that returned, and
        within a group only after the outermost call of the group.  Every
        counting function is in the group "counting", whose outermost call
        is a call into the counting layer: its counting self time is build
        time if a table was stored during it, and lookup time otherwise.
        """
        qualname = f"{layer}.{name}"
        group = group or GROUPS.get(qualname) or (layer if layer == "counting" else None)
        stack, clock, origin = self.stack, time.perf_counter, self.origin
        stat = self.functions.setdefault(qualname, [0, 0.0])
        layer_self, spans, tables = self.layer_self, self.spans, self.tables
        counters, bias = self.counters, self.bias
        is_counting = layer == "counting"
        if group is not None:
            # open calls, inclusive s, table stores at outermost entry, self s since
            group = self.groups.setdefault(group, [0, 0.0, 0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0]  # child time, child calls
            stack.append(frame)
            if group is not None:
                if group[0] == 0:
                    group[2] = tables.sets
                    group[3] = 0.0
                group[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = max(elapsed - frame[0] - bias * frame[1], 0.0)
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += 1
                stat[0] += 1
                stat[1] += own
                layer_self[layer] += own
                if elapsed >= SPAN_MIN_S:
                    spans.append((qualname, start - origin, end - origin, len(stack)))
                if group is not None:
                    group[0] -= 1
                    group[3] += own
                    if group[0] == 0:
                        group[1] += elapsed
                        if is_counting:
                            kind = "build_s" if tables.sets != group[2] else "lookup_s"
                            counters[f"counting.{kind}"] = \
                                counters.get(f"counting.{kind}", 0.0) + group[3]
            if group is None or group[0] == 0:
                if is_counting and tables.sets == group[2] and isinstance(result, int):
                    counters["counting.lookups"] = counters.get("counting.lookups", 0) + 1
                if on_result is not None:
                    on_result(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer of the alder package and rebind the wrappers."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"alder.{layer}")
            except ImportError:
                continue
        counting = modules.get("counting")
        if counting is not None and isinstance(getattr(counting, "_tables", None), dict):
            self.tables.update(counting._tables)
            counting._tables = self.tables

        hooks = self._hooks(modules)
        # a report returned inside another inequalities call is tallied once
        group_of_layer = {"inequalities": "inequalities.report"}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if _wrappable(obj):
                    replaced[obj] = self.wrap(layer, name, obj,
                                              hooks.get(f"{layer}.{name}", hooks.get(layer)),
                                              group_of_layer.get(layer))
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if _wrappable(fn) and _in_source(fn, mod) and (
                                attr == "__init__" or not attr.startswith("__")):
                            setattr(obj, attr, self.wrap(layer, f"{name}.{attr}", fn))
        for mod in [m for n, m in sys.modules.items() if n == "alder" or n.startswith("alder.")]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in replaced:
                            obj[key] = replaced[value]

    def _hooks(self, modules) -> dict:
        """Result hooks that count work at the layer boundaries, keyed by
        function name, or by layer for every function of that layer."""
        path_of = getattr(modules.get("cache"), "_path", None)  # taken before wrapping

        def cache_file_size(args) -> int:
            try:
                return os.path.getsize(path_of(Path(args[0]), args[1]))
            except (IndexError, TypeError, OSError):
                return 0

        def on_load(args, result):
            self.count("cache.loads")
            if result is not None:
                self.count("cache.hits")
                self.count("cache.bytes_read", cache_file_size(args))

        def on_store(args, result):
            self.count("cache.stores")
            self.count("cache.bytes_written", cache_file_size(args))

        def on_report(args, result):
            for rec in getattr(result, "records", None) or ():
                self.count("inequalities.cells")
                self.count(f"inequalities.status.{getattr(rec, 'status', '?')}")

        def on_enumerate(args, result):
            try:
                self.count("injection.partitions", len(result))
            except TypeError:
                pass

        def on_map(args, result):
            self.count("injection.images")

        def on_parallel(args, result):
            try:
                self.count("parallel.items", len(args[1]))
            except (IndexError, TypeError):
                pass

        hooks = {"cache.load": on_load, "cache.store": on_store,
                 "injection.enumerate_s": on_enumerate,
                 "injection.enumerate_partitions": on_enumerate,
                 "injection.phi": on_map, "injection.phi1": on_map,
                 "injection.phi2": on_map, "parallel.parallel_map": on_parallel,
                 "inequalities": on_report}
        return hooks

    # ------------------------------------------------------------ output

    def snapshot(self) -> dict:
        tables = self.tables
        return {
            "bias_s": self.bias,
            "layers": {layer: {"self_s": s} for layer, s in self.layer_self.items()},
            "functions": {name: {"calls": c, "self_s": s}
                          for name, (c, s) in sorted(self.functions.items()) if c},
            "groups": {name: {"inclusive_s": g[1]} for name, g in sorted(self.groups.items())},
            "counters": {**self.counters,
                         "counting.builds": tables.sets,
                         "counting.regrowths": tables.regrowths,
                         "counting.entries_built": tables.entries,
                         "counting.max_digits": tables.max_digits},
            "spans": [{"name": n, "start_s": s, "end_s": e, "depth": d}
                      for n, s, e, d in self.spans],
        }


def calibrate(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds one wrapped call adds to its caller's self time (best of rounds)."""
    probe = Tracer()
    wrapped = probe.wrap("cli", "calibration", _noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(rounds):
        start = clock()
        for _ in range(calls):
            pass
        empty = clock() - start
        frame = [0.0, 0]
        probe.stack.append(frame)
        start = clock()
        for _ in range(calls):
            wrapped()
        total = clock() - start
        probe.stack.pop()
        best = min(best, (total - empty - frame[0]) / calls)
    return max(best, 0.0)


def _noop():
    return None


def _wrappable(obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def _in_source(fn, mod) -> bool:
    """False for methods a decorator generated (dataclass __init__ and the like)."""
    return fn.__code__.co_filename == getattr(mod, "__file__", None)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_JSON ALDER_ARG...", file=sys.stderr)
        return 2
    trace_path, alder_argv = argv[0], argv[1:]
    tracer = Tracer(bias=calibrate())
    tracer.install()
    cli = importlib.import_module("alder.cli")
    try:
        return cli.main(alder_argv)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
