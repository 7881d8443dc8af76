"""Cell statuses and the report every command returns, apart from
``inequalities``: ``count`` and ``inject`` build reports but evaluate no
statement."""

from __future__ import annotations

from typing import Iterator

HOLDS = "holds"
FAILS = "fails"
OUT = "out-of-hypothesis"
EXEMPT = "exempt"
SKIPPED = "skipped"
VIOLATION = "violation"


class VerificationReport:
    """A report as blocks, each a pair (base params, runs), such as one grid
    row.  A run is a tuple (status, ns, values, witness): cells with one
    status and witness, the i-th with params base + {"n": ns[i]} and value
    ``values[i]`` (None: not evaluated); an n of None stands for a block's
    one cell, whose params are the base.  The blocks, a list or an
    iterator, have one reader, ``commands._write``: the tally of cells per
    status that it returns is the report's summary and sets the exit code."""

    def __init__(self, cmd: str, blocks: list | Iterator | None = None):
        self.cmd, self.blocks = cmd, [] if blocks is None else blocks

    def add(self, params: dict, status: str, value: int | None = None,
            witness: dict | None = None) -> None:
        """Append a block of one cell with these params."""
        self.blocks.append((params, [(status, (None,), (value,), witness)]))
