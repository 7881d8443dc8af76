"""Command-line front end.

Subcommands

    count    stream exact values of one counter over a range of n
    verify   run one statement's grid and write a verification report
             (an n-indexed statement of inequalities.STATEMENTS takes
             --a or --N and --d, each N or LO..HI, and --n-min/--n-max;
             littlelemon is shift at N = 4 and refuses any other --N;
             anchors, xy-diff and t-monotone take single values)
    inject   verify the piecewise injection per (d, N, n): a range is refused
             if its first n < 0, or if its last cell, run first, is over a cap
    search   scan a grid for negative deltas (informational)

--force (verify and inject only) also evaluates out-of-hypothesis cells.

Every command returns a report of blocks (``inequalities.VerificationReport``)
and one writer, ``_write``, formats them.  Reports are JSON lines by default,
one object per cell with the fixed field order  v, cmd, params, status,
value, witness  and counts as decimal strings; a final summary object
carries the status tallies.
Output is byte-stable for a fixed invocation, so reports can be diffed
across runs; wall-clock timing goes to stderr only.  --jobs K fans the
cells of ``inject`` out over up to K worker processes (the report is
byte-identical at any K); the other commands run in one process.  CSV
is a flat projection for spreadsheets, and the human format is for
reading at the terminal.  --out FILE is written by ``cache.write_atomic``.

Start-up loads only what every command needs: ``injection`` and
``parallel`` are imported by ``inject``, ``csv`` by a csv report and
``traceback`` by an internal error.

Exit codes: 0 when every in-hypothesis assertion holds, 1 when at least
one fails (a falsification candidate), 2 on refused input (always
``partset.RefusedInput``, an unwritable --out included), 3 on an internal
error (any other exception, a plain ValueError included).
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import sys
import time

from . import counting, inequalities
from .cache import write_atomic
from .counting import big_q_set, column
from .inequalities import VIOLATION, GridSpec, VerificationReport
from .partset import RefusedInput, check_n, r_of, s_set, t_set

SCHEMA_VERSION = 1

#: longest LO..HI range accepted; checked before the range is built
MAX_RANGE_VALUES = 10 ** 6


def parse_range(text: str) -> tuple[int, ...]:
    """'5' -> (5,); '3..7' -> (3, 4, 5, 6, 7)."""
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
        else:
            lo = hi = int(text)
    except ValueError:
        raise RefusedInput(f"bad range {text!r} (expected N or LO..HI)") from None
    if hi - lo >= MAX_RANGE_VALUES:
        raise RefusedInput(f"range {text!r} has {hi - lo + 1} values, "
                           f"more than {MAX_RANGE_VALUES}")
    return tuple(range(lo, hi + 1))


_json = json.JSONEncoder(separators=(",", ":")).encode


def _write(report: VerificationReport, fmt: str, out) -> None:
    """Stream ``report`` to ``out``, then the summary: params are formatted
    once per block, status and witness once per run, n and value per cell."""
    summary = report.summary
    summary = {"cells": sum(summary.values()), **dict(sorted(summary.items()))}
    if report.cmd.startswith("search-"):
        summary["violations"] = summary.pop(VIOLATION, 0)
    if fmt == "json":
        head = f'{{"v":{SCHEMA_VERSION},"cmd":{_json(report.cmd)},'
        for base, runs in report.blocks:
            bare = f'{head}"params":{_json(base)[:-1]}'  # params without the closing "}"
            lead = f'{bare}{"," if base else ""}"n":'
            for status, ns, values, witness in runs:
                tail = f',"witness":{"null" if witness is None else _json(witness)}}}\n'
                if values[0] is None:
                    mid, values = f'}},"status":"{status}","value":null', ("",) * len(ns)
                else:
                    mid, tail = f'}},"status":"{status}","value":"', '"' + tail
                pre, ns = (bare, ("",)) if ns[0] is None else (lead, ns)  # "" if no n
                for i in range(0, len(ns), 1024):  # few writes, each of bounded size
                    out.write("".join([f"{pre}{n}{mid}{v}{tail}" for n, v in
                                       zip(ns[i:i + 1024], values[i:i + 1024])]))
        out.write(f'{head}"summary":{_json(summary)}}}\n')
    elif fmt == "csv":
        import csv  # here, so that only csv reports load it at start-up
        keys = list(dict.fromkeys(k for base, runs in report.blocks for k in (
            base if runs[0][1][0] is None else [*base, "n"])))  # the first cell's n
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["cmd", *keys, "status", "value"])
        for base, runs in report.blocks:
            row = [report.cmd, *[base.get(k, "") for k in keys]]
            at = 0 if runs[0][1][0] is None else keys.index("n") + 1
            for status, ns, values, _ in runs:
                for n, value in zip(ns, values):
                    if at:
                        row[at] = n
                    writer.writerow([*row, status, "" if value is None else value])
    else:  # human
        for base, runs in report.blocks:
            lead = " ".join(f"{k}={v}" for k, v in base.items())
            for status, ns, values, witness in runs:
                tail = f"  witness={_json(witness)}" if witness else ""
                for n, value in zip(ns, values):
                    params = lead if n is None else f"{lead} n={n}".lstrip()
                    value = "" if value is None else f"  value={value}"
                    out.write(f"{params}  {status}{value}{tail}\n")
        tallies = " ".join(f"{k}={v}" for k, v in summary.items())
        out.write(f"summary: {tallies}\n")


# ---------------------------------------------------------------- count

#: exclusions of the Q set (counting.big_q_set) of each count kind that reads
#: one; a delta kind is q minus Q, and each count is one slice of its table
_Q_EXCLUSIONS = {"Q": 0, "Qm": 1, "Qmm": 2, "delta": 0, "delta_m": 1, "delta_mm": 2}


def cmd_count(args) -> VerificationReport:
    kind = args.kind.replace("-", "_")
    if kind == "rho":
        if args.set == "T":
            if args.s is None or args.d is None:
                raise RefusedInput("rho over T needs --s and --d")
            A = t_set(args.s, args.d)
            params_base = {"kind": kind, "set": "T", "s": args.s, "d": args.d}
        elif args.set == "S":
            if args.N is None or args.d is None:
                raise RefusedInput("rho over S needs --N and --d")
            A = s_set(args.d, args.N)
            params_base = {"kind": kind, "set": "S", "d": args.d, "N": args.N}
        else:
            raise RefusedInput("rho needs --set T or --set S")
        counts = [lambda: A]
    elif kind in ("g", "l"):
        if args.d is None:
            raise RefusedInput(f"kind {kind} needs --d")
        counts = [lambda: ("g", args.d) if kind == "g" else t_set(r_of(args.d), args.d)]
        params_base = {"kind": kind, "d": args.d}
    elif kind == "q" or kind in _Q_EXCLUSIONS:
        if args.a is None or args.d is None:
            raise RefusedInput(f"kind {kind} needs --a and --d")
        counts = [lambda: (args.a, args.d)] if kind[0] != "Q" else []  # q or delta
        if kind != "q":
            counts.append(lambda: big_q_set(args.a, args.d, _Q_EXCLUSIONS[kind]))
        params_base = {"kind": kind, "a": args.a, "d": args.d}
    else:
        raise RefusedInput(f"unknown count kind {args.kind!r}")

    n_values = parse_range(args.n)
    lo, hi = n_values[0], n_values[-1]
    slices = []
    for count in counts:  # each refused as its per-n counter is, at the last n
        count = count()
        check_n(hi)
        slices.append(column(count, hi)[lo:hi + 1])  # one build, at the range's horizon
    check_n(lo)
    values = slices[0] if len(slices) == 1 else list(map(operator.sub, *slices))
    return VerificationReport("count", [(params_base, [("ok", n_values, values, None)])])


# ---------------------------------------------------------------- verify

def _values(args, flag: str) -> tuple[int, ...]:
    """The values of --flag, given as N or LO..HI."""
    if getattr(args, flag) is None:
        raise RefusedInput(f"this verification needs --{flag}")
    return parse_range(getattr(args, flag))


def _grid_from_args(args, axes: tuple[str, str], force: bool = False) -> GridSpec:
    """The grid of a statement over ``axes``, each a --flag."""
    return GridSpec(**{f"{axis}_values": _values(args, axis) for axis in axes},
                    n_min=args.n_min, n_max=args.n_max, evaluate_out_of_hypothesis=force)


def _single(args, flag: str) -> int:
    values = _values(args, flag)
    if len(values) != 1:
        raise RefusedInput(f"--{flag} must be a single value here")
    return values[0]


def _default_n_max(args) -> int:
    """Grid horizon when --n-max is omitted: 2000 for a = 1 work, 1200 otherwise."""
    a_values = parse_range(args.a) if getattr(args, "a", None) else (1,)
    return (inequalities.DEFAULT_N_MAX_A1 if max(a_values) <= 1
            else inequalities.DEFAULT_N_MAX_GENERAL)


def cmd_verify(args) -> VerificationReport:
    theorem = args.theorem
    if theorem not in ("anchors", "xy-diff") and args.n_max is None:
        args.n_max = _default_n_max(args)
    if theorem == "littlelemon":
        if args.N is not None and parse_range(args.N) != (4,):
            raise RefusedInput(f"littlelemon is shift at N = 4, got --N {args.N}")
        theorem, args.N = "shift", "4"
    if theorem in inequalities.STATEMENTS:
        axes = inequalities.STATEMENTS[theorem].axes
        return inequalities.verify(theorem, _grid_from_args(args, axes, args.force))
    if theorem == "anchors":
        return inequalities.verify_smalln_anchors(
            _single(args, "d"), _single(args, "N"), evaluate_out=args.force)
    if theorem == "xy-diff":
        return inequalities.xy_difference_report(
            _single(args, "d"), _single(args, "N"))
    return inequalities.verify_t_monotone(_single(args, "d"), args.n_max)  # t-monotone


# ---------------------------------------------------------------- inject

def cmd_inject(args) -> VerificationReport:
    from . import injection
    from .parallel import parallel_map
    cell = functools.partial(injection.verify_injection,
                             _single(args, "d"), _single(args, "N"), force=args.force)
    n_values = parse_range(args.n)
    # the first cell decides n >= 0 and the last one the caps (see injection),
    # so a refused range runs no other cell and starts no pool
    check_n(n_values[0])
    last = cell(n_values[-1])
    reports = [*parallel_map(cell, n_values[:-1], args.jobs), last]

    report = VerificationReport("inject")
    for rep in reports:
        witness: dict | None = None
        if rep.evaluated:
            witness = {"rho_S": str(rep.rho_s), "rho_T": str(rep.rho_t),
                       "s1": rep.s1_size, "s2": rep.s2_size,
                       "failed_checks": sorted(k for k, v in rep.checks.items()
                                               if not v)}
            if rep.witnesses:
                witness["witnesses"] = rep.witnesses[:5]
        report.add({"d": rep.d, "N": rep.N, "n": rep.n}, rep.status,
                   rep.size if rep.evaluated else None, witness)
    return report


# ---------------------------------------------------------------- search

def cmd_search(args) -> VerificationReport:
    _, statement = inequalities.search_kind(args.kind)
    return inequalities.search_counterexamples(
        args.kind, _grid_from_args(args, statement.axes))


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alder",
        description="Exact counting and grid verification of Alder-type "
                    "partition inequalities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "human"), default="json")
        p.add_argument("--jobs", type=int, default=1, metavar="K",
                       help="worker processes for inject cells (default 1)")
        p.add_argument("--cache", metavar="DIR", default=None)
        p.add_argument("--out", metavar="FILE", default=None)

    def force(p):  # count has no hypotheses and search ignores them
        p.add_argument("--force", action="store_true",
                       help="also evaluate out-of-hypothesis cells")

    p = sub.add_parser("count", help="stream exact counter values")
    p.add_argument("--kind", required=True,
                   help="q|Q|Qm|Qmm|rho|g|l|delta|delta_m|delta_mm")
    p.add_argument("--a", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--set", choices=("T", "S"))
    p.add_argument("--n", required=True, help="N or LO..HI")
    common(p)

    p = sub.add_parser("verify", help="verify one statement over a grid")
    p.add_argument("theorem",
                   choices=("shift", "littlelemon", "gen-kp", "gen-dkst",
                            "anchors", "xy-diff", "ceiling", "a-to-1",
                            "modified-st", "t-monotone"))
    p.add_argument("--a")
    p.add_argument("--d")
    p.add_argument("--N")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int)
    common(p)
    force(p)

    p = sub.add_parser("inject", help="verify the piecewise injection per cell")
    p.add_argument("--d", required=True)
    p.add_argument("--N", required=True)
    p.add_argument("--n", required=True, help="N or LO..HI")
    common(p)
    force(p)

    p = sub.add_parser("search", help="scan for negative deltas")
    p.add_argument("--kind", required=True, help="delta|delta_m|delta_mm|shift")
    p.add_argument("--a")
    p.add_argument("--d")
    p.add_argument("--N")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, required=True)
    common(p)

    return parser


_DISPATCH = {"count": cmd_count, "verify": cmd_verify,
             "inject": cmd_inject, "search": cmd_search}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    counting.set_cache_dir(args.cache)
    started = time.monotonic()
    try:
        if args.jobs < 1:
            raise RefusedInput(f"--jobs must be >= 1, got {args.jobs}")
        report = _DISPATCH[args.command](args)
        if args.out:
            try:
                write_atomic(args.out, functools.partial(_write, report, args.format))
            except OSError as exc:
                raise RefusedInput(f"cannot write --out {args.out}: "
                                   f"{exc.strerror or exc}") from None
        else:
            try:
                _write(report, args.format, sys.stdout)
                sys.stdout.flush()
            except BrokenPipeError:  # the reader stopped early (``| head``)
                # the verdict stands; the unwritten rest must not fail at exit
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except RefusedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    code = 0 if report.ok else 1
    elapsed = time.monotonic() - started
    print(f"alder {args.command}: exit {code}, {elapsed:.2f}s wall",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
