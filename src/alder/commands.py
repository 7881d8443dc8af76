"""The commands ``cli.main`` runs after parsing, and the report writer.

Every command returns a report, the pair (cmd, blocks) of ``report``,
and one writer, ``_write``, writes it, a grid's (verify, search) row by
row as each is evaluated, after every refusal.  Reports are JSON lines by
default, one object per cell with the fixed field order  v, cmd, params,
status, value, witness  and counts as decimal strings; a final summary
object tallies the cells written.  Output is byte-stable, so reports can
be diffed; timing goes to stderr.  --jobs K is accepted and ignored:
every command runs in one process.  CSV is a flat projection for
spreadsheets, the human format is for the terminal.  --out FILE goes
through ``cache.write_atomic``.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import sys

from .report import VIOLATION, RefusedInput, check_n

SCHEMA_VERSION = 1

#: default grid horizons: deep enough to be convincing, minutes at desk scale
DEFAULT_N_MAX_A1 = 2000
DEFAULT_N_MAX_GENERAL = 1200

#: longest LO..HI range accepted; checked before the range is built
MAX_RANGE_VALUES = 10 ** 6


def parse_range(text: str) -> tuple[int, ...]:
    """'5' -> (5,); '3..7' -> (3, 4, 5, 6, 7)."""
    try:
        lo, hi = map(int, text.split("..", 1)) if ".." in text else (int(text),) * 2
        if hi < lo:
            raise ValueError
    except ValueError:
        raise RefusedInput(f"bad range {text!r} (expected N or LO..HI)") from None
    if hi - lo >= MAX_RANGE_VALUES:
        raise RefusedInput(f"range {text!r} has {hi - lo + 1} values, "
                           f"more than {MAX_RANGE_VALUES}")
    return tuple(range(lo, hi + 1))


_json = json.JSONEncoder(separators=(",", ":")).encode


def _write(cmd: str, blocks, fmt: str, out) -> dict[str, int]:
    """Write the report (``cmd``, ``blocks``) to ``out`` block by block as
    each comes, then the summary of the cells written, which is returned.
    Params are formatted once per block, status and witness once per run,
    n and value per cell.  CSV holds the blocks without n (a pair skipped
    as one cell) up to the first with n: their keys make the header; no
    later block adds one."""
    tally: dict[str, int] = {}
    blocks = iter(blocks)
    if fmt == "csv":
        import csv  # here, so that only csv reports load it at start-up
        writer = csv.writer(out, lineterminator="\n")
        held = []
        for block in blocks:
            held.append(block)
            if block[1][0][1][0] is not None:  # the first cell's n
                break
        keys = list(dict.fromkeys(k for base, runs in held for k in (
            base if runs[0][1][0] is None else [*base, "n"])))
        writer.writerow(["cmd", *keys, "status", "value"])
        blocks = itertools.chain(iter(held), blocks)  # each let go once written
        del held
    head = f'{{"v":{SCHEMA_VERSION},"cmd":{_json(cmd)},'
    for base, runs in blocks:
        for status, ns, _, _ in runs:
            tally[status] = tally.get(status, 0) + len(ns)
        if fmt == "json":
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
        elif fmt == "csv":
            row = [cmd, *[base.get(k, "") for k in keys]]
            at = 0 if runs[0][1][0] is None else keys.index("n") + 1
            for status, ns, values, _ in runs:
                for n, value in zip(ns, values):
                    if at:
                        row[at] = n
                    writer.writerow([*row, status, "" if value is None else value])
        else:  # human
            lead = " ".join(f"{k}={v}" for k, v in base.items())
            for status, ns, values, witness in runs:
                tail = f"  witness={_json(witness)}" if witness else ""
                for n, value in zip(ns, values):
                    params = lead if n is None else f"{lead} n={n}".lstrip()
                    value = "" if value is None else f"  value={value}"
                    out.write(f"{params}  {status}{value}{tail}\n")
    summary = {"cells": sum(tally.values()), **dict(sorted(tally.items()))}
    if cmd.startswith("search-"):
        summary["violations"] = summary.pop(VIOLATION, 0)
    if fmt == "json":
        out.write(f'{head}"summary":{_json(summary)}}}\n')
    elif fmt == "human":
        out.write(f"summary: {' '.join(f'{k}={v}' for k, v in summary.items())}\n")
    return summary


class _Stdout:
    """stdout until its reader stops (``| head``), then os.devnull: the run goes on to its verdict."""

    def write(self, text: str, flush: bool = False) -> None:
        try:
            sys.stdout.write(text)
            if flush:
                sys.stdout.flush()
        except BrokenPipeError:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)


# ---------------------------------------------------------------- count

#: exclusions of the Q set (counting.big_q_name) of each count kind that reads
#: one; a delta kind is q minus Q, and each count is one slice of its table
_Q_EXCLUSIONS = {"Q": 0, "Qm": 1, "Qmm": 2, "delta": 0, "delta_m": 1, "delta_mm": 2}


def cmd_count(args) -> tuple:
    from .counting import big_q_name, column, g_name, q_name, r_of, s_set, t_set
    kind = args.kind.replace("-", "_")
    if kind == "rho":
        if args.set is None:
            raise RefusedInput("rho needs --set T or --set S")
        other = "s" if args.set == "T" else "N"  # T(s, d) or S(d, N)
        if getattr(args, other) is None or args.d is None:
            raise RefusedInput(f"rho over {args.set} needs --{other} and --d")
        params_base = {"kind": kind, "set": args.set, **(
            {"s": args.s, "d": args.d} if other == "s" else {"d": args.d, "N": args.N})}
        names = [lambda: t_set(args.s, args.d) if other == "s" else s_set(args.d, args.N)]
    elif kind in ("g", "l"):
        if args.d is None:
            raise RefusedInput(f"kind {kind} needs --d")
        names = [lambda: g_name(args.d) if kind == "g" else t_set(r_of(args.d), args.d)]
        params_base = {"kind": kind, "d": args.d}
    elif kind == "q" or kind in _Q_EXCLUSIONS:
        if args.a is None or args.d is None:
            raise RefusedInput(f"kind {kind} needs --a and --d")
        names = [lambda: q_name(args.a, args.d)] if kind[0] != "Q" else []  # q or delta
        if kind != "q":
            names.append(lambda: big_q_name(args.a, args.d, _Q_EXCLUSIONS[kind]))
        params_base = {"kind": kind, "a": args.a, "d": args.d}
    else:
        raise RefusedInput(f"unknown count kind {args.kind!r}")

    n_values = parse_range(args.n)
    lo, hi = n_values[0], n_values[-1]
    check_n(lo)  # before any build; hi >= lo
    # each refused by its name maker, horizon cap or builder; one build, at the range's horizon
    slices = [column(name(), hi)[lo:hi + 1] for name in names]
    values = slices[0] if len(slices) == 1 else list(map(operator.sub, *slices))
    return "count", [(params_base, [("ok", n_values, values, None)])]


# ------------------------------------------------------- verify and search

def _values(args, flag: str) -> tuple[int, ...]:
    """The values of --flag, given as N or LO..HI."""
    if getattr(args, flag) is None:
        raise RefusedInput(f"this verification needs --{flag}")
    return parse_range(getattr(args, flag))


def _grid_from_args(args, axes: tuple[str, str], force: bool = False):
    """The inequalities.GridSpec of a statement over ``axes``, each a --flag."""
    from .inequalities import GridSpec
    return GridSpec(**{f"{axis}_values": _values(args, axis) for axis in axes},
                    n_min=args.n_min, n_max=args.n_max, evaluate_out_of_hypothesis=force)


def _single(args, flag: str) -> int:
    values = _values(args, flag)
    if len(values) != 1:
        raise RefusedInput(f"--{flag} must be a single value here")
    return values[0]


def cmd_verify(args) -> tuple:
    theorem = args.theorem
    if theorem not in ("anchors", "xy-diff") and args.n_max is None:
        a_values = parse_range(args.a) if args.a else (1,)
        args.n_max = DEFAULT_N_MAX_A1 if max(a_values) <= 1 else DEFAULT_N_MAX_GENERAL
    if theorem in ("anchors", "xy-diff", "t-monotone"):  # not n-indexed: no grid
        from . import lemmas
        if theorem == "anchors":
            return lemmas.verify_smalln_anchors(
                _single(args, "d"), _single(args, "N"), evaluate_out=args.force)
        if theorem == "xy-diff":
            return lemmas.xy_difference_report(_single(args, "d"), _single(args, "N"))
        return lemmas.verify_t_monotone(_single(args, "d"), args.n_max)  # t-monotone
    from . import inequalities
    if theorem == "littlelemon":
        if args.N is not None and parse_range(args.N) != (4,):
            raise RefusedInput(f"littlelemon is shift at N = 4, got --N {args.N}")
        theorem, args.N = "shift", "4"
    axes = inequalities.STATEMENTS[theorem].axes
    return inequalities.grid(f"verify-{theorem}", _grid_from_args(args, axes, args.force))


def cmd_search(args) -> tuple:
    from . import inequalities
    _, statement = inequalities.search_kind(args.kind)
    return inequalities.grid(f"search-{args.kind}", _grid_from_args(args, statement.axes))


# ---------------------------------------------------------------- inject

def cmd_inject(args) -> tuple:
    from .injection import verify_range
    return "inject", verify_range(_single(args, "d"), _single(args, "N"),
                                  parse_range(args.n), args.force)


_DISPATCH = {"count": cmd_count, "verify": cmd_verify,
             "inject": cmd_inject, "search": cmd_search}
