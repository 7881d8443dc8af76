"""Cell statuses and the report every command returns, apart from
``inequalities``: ``count`` and ``inject`` build reports but evaluate no
statement."""

from __future__ import annotations

from typing import Iterator, NamedTuple

HOLDS = "holds"
FAILS = "fails"
OUT = "out-of-hypothesis"
EXEMPT = "exempt"
SKIPPED = "skipped"
VIOLATION = "violation"


class CellRecord(NamedTuple):
    params: dict
    status: str
    value: int | None = None
    witness: dict | None = None


class VerificationReport:
    """A report as blocks, each a pair (base params, runs), such as one grid
    row.  A run is a tuple (status, ns, values, witness): cells with one
    status and witness, the i-th with params base + {"n": ns[i]} and value
    ``values[i]`` (None: not evaluated); an n of None stands for a block's
    one cell, whose params are the base.  ``records`` (one object per cell),
    ``summary`` and ``ok`` read a list; ``commands._write`` also reads an iterator."""

    def __init__(self, cmd: str, blocks: list | Iterator | None = None):
        self.cmd, self.blocks = cmd, [] if blocks is None else blocks

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def add(self, params: dict, status: str, value: int | None = None,
            witness: dict | None = None) -> None:
        """Append a block of one cell with these params."""
        self.blocks.append((params, [(status, (None,), (value,), witness)]))

    @property
    def records(self) -> list[CellRecord]:
        return [CellRecord(base if n is None else {**base, "n": n}, status, value, witness)
                for base, runs in self.blocks for status, ns, values, witness in runs
                for n, value in zip(ns, values)]

    @property
    def summary(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for _, runs in self.blocks:
            for status, ns, _, _ in runs:
                tally[status] = tally.get(status, 0) + len(ns)
        return tally

    @property
    def ok(self) -> bool:
        return FAILS not in self.summary
