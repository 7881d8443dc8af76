"""Command-line front end: the parser and ``main``.

Subcommands

    count    stream exact values of one counter over a range of n
    verify   run one statement's grid and write a verification report
             (an n-indexed statement of inequalities.STATEMENTS takes
             --a or --N and --d, each N or LO..HI, and --n-min/--n-max;
             littlelemon is shift at N = 4 and refuses any other --N;
             anchors, xy-diff and t-monotone take single values)
    inject   verify the piecewise injection per (d, N, n) over an n range
    search   scan a grid for negative deltas (informational)

--force (verify and inject only) also evaluates out-of-hypothesis cells.
The commands and the report writer, with the report formats, are in
``commands``.

Start-up loads no other alder module and no ``json``, so ``--help`` and
usage errors compile only this one.  After parsing, ``main`` imports
``commands``, ``counting`` and ``report``, and each command imports
what it runs: ``inequalities`` for a grid (search, or verify of a
statement), ``lemmas`` for verify anchors, xy-diff and t-monotone,
``injection`` for inject (and ``maps`` once a cell maps a partition);
``cache`` for --cache or --out, ``csv`` for a csv report and
``traceback`` for an internal error or a failed --out.

Exit codes: 0 when every in-hypothesis assertion holds, 1 when at least
one fails (a falsification candidate), 2 on refused input (always
``report.RefusedInput``, an unwritable --out included), 3 on an internal
error (any other exception, a plain ValueError included), which may come
after part of a grid's report is on stdout (--out is then left as it was).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alder",
        description="Exact counting and grid verification of Alder-type "
                    "partition inequalities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv", "human"), default="json")
        p.add_argument("--jobs", type=int, default=1, metavar="K",
                       help="accepted and ignored: every command runs in one process")
        p.add_argument("--cache", metavar="DIR", default=None)
        p.add_argument("--out", metavar="FILE", default=None)

    def force(p):  # count has no hypotheses and search ignores them
        p.add_argument("--force", action="store_true",
                       help="also evaluate out-of-hypothesis cells")

    def grid(p, **n_max):  # the grid flags of verify and search
        for flag in ("--a", "--d", "--N"):
            p.add_argument(flag)
        p.add_argument("--n-min", type=int, default=1)
        p.add_argument("--n-max", type=int, **n_max)

    p = sub.add_parser("count", help="stream exact counter values")
    p.add_argument("--kind", required=True,
                   help="q|Q|Qm|Qmm|rho|g|l|delta|delta_m|delta_mm")
    for flag in ("--a", "--d", "--N", "--s"):
        p.add_argument(flag, type=int)
    p.add_argument("--set", choices=("T", "S"))
    p.add_argument("--n", required=True, help="N or LO..HI")
    common(p)

    p = sub.add_parser("verify", help="verify one statement over a grid")
    p.add_argument("theorem",
                   choices=("shift", "littlelemon", "gen-kp", "gen-dkst",
                            "anchors", "xy-diff", "ceiling", "a-to-1",
                            "modified-st", "t-monotone"))
    grid(p)
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
    grid(p, required=True)
    common(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse would read "-3..5" as an option
        if argv[i - 1] in ("--a", "--d", "--N", "--n") and re.match(r"-\d", argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    from . import commands, counting  # after parsing: --help and usage errors load neither
    from .report import FAILS, RefusedInput
    counting.set_cache_dir(args.cache)
    started = time.monotonic()
    try:
        if args.jobs < 1:
            raise RefusedInput(f"--jobs must be >= 1, got {args.jobs}")
        cmd, blocks = commands._DISPATCH[args.command](args)
        if args.out:
            from .cache import write_atomic
            try:
                summary = write_atomic(args.out, functools.partial(
                    commands._write, cmd, blocks, args.format))
            except OSError as exc:
                import traceback  # an OSError raised in evaluating a grid is not the file's
                if any(frame.f_code is getattr(blocks, "gi_code", None)
                       for frame, _ in traceback.walk_tb(exc.__traceback__)):
                    raise
                raise RefusedInput(f"cannot write --out {args.out}: "
                                   f"{exc.strerror or exc}") from None
        else:
            out = commands._Stdout()
            summary = commands._write(cmd, blocks, args.format, out)
            out.write("", flush=True)
    except RefusedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        import traceback
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    code = 1 if FAILS in summary else 0
    print(f"alder {args.command}: exit {code}, {time.monotonic() - started:.2f}s wall",
          file=sys.stderr)
    return code
