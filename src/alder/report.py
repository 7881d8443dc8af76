"""Cell statuses, the refusal of an input, and the one-cell block.

A report is a pair (cmd, blocks): the command name it writes and its
blocks, each a pair (base params, runs), such as one grid row.  A run is
a tuple (status, ns, values, witness): cells with one status and
witness, the i-th with params base + {"n": ns[i]} and value
``values[i]`` (None: not evaluated); an n of None stands for a block's
one cell, whose params are the base (``cell``).  The blocks are a list,
apart from a grid's (``inequalities.grid``), a generator of them.  Every
command returns a report, and it has one reader, ``commands._write``:
the tally of cells per status that it returns is the report's summary
and sets the exit code.
"""

from __future__ import annotations

HOLDS = "holds"
FAILS = "fails"
OUT = "out-of-hypothesis"
EXEMPT = "exempt"
SKIPPED = "skipped"
VIOLATION = "violation"


class RefusedInput(ValueError):
    """Input the program refuses: a parameter outside its domain, a set or
    cell that cannot be built, or a size over a cap.  The command line
    reports it as a usage error."""


def check_n(n: int) -> None:
    """Refuse a negative weight n: every count and every cell starts at n = 0."""
    if n < 0:
        raise RefusedInput(f"n must be >= 0, got {n}")


def cell(params: dict, status: str, value: int | None = None,
         witness: dict | None = None) -> tuple[dict, list[tuple]]:
    """The block of one cell with these params."""
    return params, [(status, (None,), (value,), witness)]
