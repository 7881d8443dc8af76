"""Grid verification of the shift inequality and its consequences.

Each statement walks a finite parameter grid and labels every cell with
one of the statuses of ``report``:

    holds              in hypothesis, the asserted inequality is true
    fails              in hypothesis, the inequality is FALSE (witnessed)
    out-of-hypothesis  outside the stated bounds; evaluated only on
                       request and never counted as a refutation
    exempt             the single cell n = d+a+3 that the generalized
                       Kang-Park statement leaves out when d == -3 (mod a);
                       its actual value is recorded but not asserted
    skipped            an axis pair where a count the row reads is
                       undefined; the witness gives the reason

The n-indexed statements are declared once each, in ``STATEMENTS``:

  * shift:       q_d^(1)(n) >= Q_{d-N}^(1,-)(n) for N >= 2,
                 d >= max(63, 46N-79), n >= d+2 (N = 4, d >= 105 is the
                 resolved level-4 case).
  * gen-kp:      delta_minus(a, d, n) >= 0 for ceil(d/a) >= 105, all n,
                 except the exempt cell above.
  * gen-dkst:    delta_minus_minus(a, d, n) >= 0, same bounds, no exemption.
  * ceiling:     q_d^(a)(n) >= q_{ceil(d/a)}^(1)(ceil(n/a)) for n >= d+2a.
  * a-to-1:      Q_d^(a,-)(a n) = Q_{(d+3)/a - 3}^(1,-)(n), where a | d+3.
  * modified-st: rho(T; n + n_hat) >= rho(S; n) for S the set of
                 Q_d^(a,-) and T that of Q^(a,-) at the modulus m = d +
                 n_hat(a, d) - a, a multiple of a below d+3, so that S
                 dominates T element-wise and a divides every element of
                 T; in hypothesis when T starts at a, that is m != 2a.
  * delta:       delta(a, d, n) >= 0 at a = 1 (Alder's theorem); only the
                 search scans it, at any a.

Each is a ``Statement`` whose row factory declares an axis pair's ``Row``:
two count tables by name, each read at n -> m ceil(n/k), the first n in
hypothesis and an optional exempt cell.  A pair where a name maker of
``counting`` refuses is skipped, with the refusal as the reason.  One engine runs
them all, ``grid``: a verification (one cell is a grid with n_min ==
n_max) or a search (negative cells only), each row through ``_row``,
which reads each side as one slice of its table and makes the row one
block of runs of cells (as ``report`` lays out) when asked for.
A grid refuses when called, and lets a table go after its row, or after
its last reader if the statement ``shares`` tables (``grid``, ``_held``).
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from typing import Callable, Iterator, NamedTuple

from .counting import big_q_name, check_horizon, column, q_name, release, s_set, shift_regime
from .report import EXEMPT, FAILS, HOLDS, OUT, SKIPPED, VIOLATION, RefusedInput, check_n


class _Grid(NamedTuple):
    a_values: tuple[int, ...] = (1,)
    d_values: tuple[int, ...] = ()
    N_values: tuple[int, ...] = ()
    n_min: int = 1
    n_max: int = 0
    evaluate_out_of_hypothesis: bool = False


class GridSpec(_Grid):
    """A finite parameter grid plus evaluation policy, checked when built.

    Unused dimensions may be left at their defaults; n ranges are always
    inclusive.  ``evaluate_out_of_hypothesis`` controls whether cells
    outside a statement's bounds are computed (they are labeled
    out-of-hypothesis either way).
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        check_n(self.n_min)
        if self.n_max < self.n_min:
            raise RefusedInput(f"empty n range [{self.n_min}, {self.n_max}]")
        # must stay: without it, _a_to_1_row's (d + 3) % a divides by zero at a = 0
        if min(self.a_values, default=1) < 1:
            raise RefusedInput(f"a must be >= 1, got {min(self.a_values)}")

    def n_values(self) -> range:
        return range(self.n_min, self.n_max + 1)


class Side(NamedTuple):
    """One side of a Row: the counts of the table named ``count`` (as
    ``counting.column`` reads it) at m * ceil(n / k)."""

    count: str
    m: int = 1
    k: int = 1


class Row(NamedTuple):
    """One grid row: ``lhs >= rhs`` (``==`` if ``equal``) is asserted at
    every n >= ``first`` (at no n if ``first`` is None), except at
    ``n == exempt``; a failing cell is witnessed by ``{names[0]: lhs,
    names[1]: rhs}``.  ``_row`` reports it as one block, its runs cut at
    these boundaries and at each failing cell."""

    lhs: Side
    rhs: Side
    names: tuple[str, str] | None = None
    first: int | None = 0
    exempt: int | None = None
    equal: bool = False


class Statement(NamedTuple):
    """An n-indexed grid statement: its two axes (read from a GridSpec's
    ``<axis>_values``) and ``row(x, y)``, which names the tables of the axis
    pair in its Row (data only: no table is read yet), or raises
    RefusedInput if a count it reads is undefined there.  Such a pair is
    skipped, with one cell per n if ``skip_each_n``, else one cell.  Its
    report command is ``verify-<name>``.  ``shares`` is False if its rows
    name their own tables, and ``grid`` then counts no readers: a table named
    again is rebuilt (gen-dkst's and delta's Q at (a, d) and (d+3-a, d))."""

    axes: tuple[str, str]
    row: Callable[[int, int], Row]
    skip_each_n: bool = False
    shares: bool = True


def n_hat(a: int, n: int) -> int:
    """Least nonnegative integer with a | (n + n_hat)."""
    if a < 1:
        raise RefusedInput(f"a must be >= 1, got {a}")
    return (-n) % a


def _read(side: Side, lo: int, hi: int, tops: collections.Counter | None = None):
    """The side's counts at n = lo..hi, from its table built at the last index read."""
    count, m, k = side
    tab = column(count, max(m * -(-hi // k), tops[count] if tops else 0))
    if k == 1:
        return tab[m * lo:m * hi + 1:m]
    return [tab[m * -(-n // k)] for n in range(lo, hi + 1)]


def _row(base: dict, lo: int, hi: int, row: Row, evaluate_out: bool = False,
         violations_only: bool = False, tops=None) -> tuple[dict, list[tuple]] | None:
    """One grid row's block at n = lo..hi: lhs against rhs.

    The comparison is asserted as ``Row`` describes; cells outside the
    hypothesis are evaluated only if ``evaluate_out``, and unevaluated ones
    read no table.  The value is lhs - rhs.  With ``violations_only`` every
    cell is evaluated, whatever the hypothesis, and just those with lhs <
    rhs are kept, as violations (if none, no block: None).  Failing and
    violation cells are witnessed if the row has names.
    """
    lhs, rhs, names, first, exempt, equal = row
    if violations_only:
        first, exempt = 0, None
    elif first is None:
        first = hi + 1
    start = lo if evaluate_out else min(max(first, lo), hi + 1)  # first evaluated n
    runs = [(OUT, range(lo, start), (None,) * (start - lo), None)] if lo < start else []
    if start <= hi:
        left, right = _read(lhs, start, hi, tops), _read(rhs, start, hi, tops)
        values = None if violations_only else list(map(operator.sub, left, right))
        at = min(max(first - start, 0), len(left))  # index of the first judged cell
        if at:
            runs.append((OUT, range(start, start + at), values[:at], None))
        special = {}  # index -> status, for each judged cell that does not hold
        if violations_only or (any(values[at:]) if equal
                               else min(values[at:], default=0) < 0):
            fails = map(operator.ne if equal else operator.lt, left[at:], right[at:])
            special = dict.fromkeys(itertools.compress(range(at, len(left)), fails),
                                    VIOLATION if violations_only else FAILS)
        if exempt is not None and at <= exempt - start < len(left):
            special[exempt - start] = EXEMPT
        for i in [*sorted(special), len(left)]:  # runs of holding cells between
            if at < i and not violations_only:
                runs.append((HOLDS, range(start + at, start + i), values[at:i], None))
            if i < len(left):
                witness = None
                if names and special[i] != EXEMPT:
                    witness = {names[0]: str(left[i]), names[1]: str(right[i])}
                runs.append((special[i], (start + i,), (left[i] - right[i],), witness))
            at = i + 1
    return (base, runs) if runs else None


# ---------------------------------------------------------- declarations

def _divides(a: int, d: int) -> bool:
    """a | d+3: a-to-1 applies, and gen-kp has its exempt cell."""
    return (d + 3) % a == 0


def _shift_row(N: int, d: int) -> Row:
    return Row(Side(q_name(1, d)), Side(s_set(d, N)), ("q", "Q"),
               d + 2 if shift_regime(d, N) else None)


def _ceiling_row(a: int, d: int) -> Row:  # q_name(a, d) refuses first: then ceil(d/a) >= 1
    return Row(Side(q_name(a, d)), Side(q_name(1, math.ceil(d / a)), 1, a), ("lhs", "rhs"),
               d + 2 * a)


def _a_to_1_row(a: int, d: int) -> Row:
    if not _divides(a, d):
        raise RefusedInput(f"{a} does not divide d+3 = {d + 3}")
    Q, Q1 = big_q_name(a, d, 1), big_q_name(1, (d + 3) // a - 3, 1)
    return Row(Side(Q, a), Side(Q1), ("lhs", "rhs"), equal=True)


def _modified_st_row(a: int, d: int) -> Row:
    S = big_q_name(a, d, 1)
    m = d + n_hat(a, d) - a  # T's modulus; T is read at n + n_hat(a, n) = a ceil(n/a)
    if m < 3 or a >= m:  # report text, worded as by the tests' reference ``gen_kp_sets``
        raise RefusedInput(f"gen_kp_sets: degenerate T modulus {m} for a={a}, d={d}")
    return Row(Side(big_q_name(a, m - 3, 1), a, a), Side(S), ("rho_T", "rho_S"),
               0 if m != 2 * a else None)


def _delta_row(minus: int, a: int, d: int, exempt: bool = False) -> Row:
    """q_d^(a)(n) >= Q_d^(a)(n) (``counting.big_q_name``), in hypothesis at a = 1
    for Q (Alder's theorem) and at ceil(d/a) >= 105 for Q^- and Q^--; with
    ``exempt``, except at n = d+a+3 when a | d+3."""
    Q = big_q_name(a, d, minus)
    return Row(Side(q_name(a, d)), Side(Q), ("q", "Q"),
               0 if (math.ceil(d / a) >= 105 if minus else a == 1) else None,
               d + a + 3 if exempt and _divides(a, d) else None)


STATEMENTS: dict[str, Statement] = {
    "shift": Statement(("N", "d"), _shift_row, skip_each_n=True),
    "gen-kp": Statement(("a", "d"), functools.partial(_delta_row, 1, exempt=True), shares=False),
    "gen-dkst": Statement(("a", "d"), functools.partial(_delta_row, 2), shares=False),
    "ceiling": Statement(("a", "d"), _ceiling_row),
    "a-to-1": Statement(("a", "d"), _a_to_1_row),
    "modified-st": Statement(("a", "d"), _modified_st_row),
    "delta": Statement(("a", "d"), functools.partial(_delta_row, 0), shares=False),
}

#: search kind -> the statement whose rows it scans
SEARCH_KINDS = {"delta": "delta", "delta_m": "gen-kp", "delta_mm": "gen-dkst",
                "shift": "shift"}


def search_kind(kind: str) -> tuple[str, Statement]:
    """The name of the search ``kind`` (``delta-m`` is ``delta_m``) and the
    statement whose rows it scans, or a refusal naming ``kind`` as given."""
    name = kind.replace("-", "_")
    if name not in SEARCH_KINDS:
        raise RefusedInput(f"unknown search kind {kind!r}")
    return name, STATEMENTS[SEARCH_KINDS[name]]


# ---------------------------------------------------------------- engine

def _rows(statement: Statement, spec: GridSpec):
    """(base params, Row or skip reason) per axis pair, in the spec's order.

    A refused row factory skips its pair.  Factories name tables and read
    none: ``grid`` checks every table horizon later, so a table refusal
    (``counting.MAX_HORIZON``) still refuses the whole grid, as does an
    empty axis.
    """
    first, second = statement.axes
    xs, ys = getattr(spec, f"{first}_values"), getattr(spec, f"{second}_values")
    if not (xs and ys):
        raise RefusedInput(f"empty grid: no {second if xs else first} values")
    for x in xs:
        for y in ys:
            try:
                row = statement.row(x, y)
            except RefusedInput as exc:
                row = str(exc)
            yield {first: x, second: y}, row


def _held(rows: Iterator, spec: GridSpec, readers: collections.Counter,
          tops: collections.Counter, skip_each_n: bool, **how):
    """Yield the block of each (base, Row or skip reason) of ``rows``, in
    order, as it is asked for: a Row's from ``_row`` (with ``tops`` and
    ``how``; none if it has none), after releasing each table it names that
    no later Row reads (``readers`` counts them by name; an uncounted has none)."""
    for base, row in rows:
        if isinstance(row, Row):
            block = _row(base, spec.n_min, spec.n_max, row, tops=tops, **how)
            for name in (row.lhs.count, row.rhs.count):
                readers[name] -= 1
                if readers[name] <= 0:
                    del readers[name], tops[name]
                    release(name)
            if block:
                yield block
        else:
            ns = spec.n_values() if skip_each_n else (None,)
            yield base, [(SKIPPED, ns, (None,) * len(ns), {"reason": row})]


def grid(cmd: str, spec: GridSpec) -> tuple[str, Iterator[tuple[dict, list[tuple]]]]:
    """The report ``cmd`` over ``spec``, as (cmd as the report names it,
    blocks): at most one block per axis pair, in the spec's axis order,
    with cells in n order.  ``verify-<name>`` evaluates ``STATEMENTS[name]``
    (a skipped pair is one cell per n if it says ``skip_each_n``, else one
    cell without n); ``search-<kind>`` (``search_kind``) keeps just the
    cells with lhs < rhs, as violations, scans no skipped pair and ignores
    hypotheses and exempt cells.  A delta-kind violation's params start
    with the kind and it is witnessed by both counts; a shift one has
    neither.  Every refusal comes from this call: it makes the rows and
    checks each table horizon they will read (and, if the statement
    ``shares``, counts each table's readers and last index past n_max).
    The blocks are a generator that evaluates each row when its block is
    asked for, so a reader that lets each go holds one row's tables and one block.
    """
    verb, _, name = cmd.partition("-")
    if verb == "search":
        kind, statement = search_kind(name)
        cmd, how = f"search-{kind}", {"violations_only": True}
    else:
        statement = STATEMENTS[name]
        how = {"evaluate_out": spec.evaluate_out_of_hypothesis}
    hi, readers, tops = spec.n_max, collections.Counter(), collections.Counter()
    for _, row in _rows(statement, spec):
        if isinstance(row, Row):
            reads = any(how.values()) or row.first is not None and row.first <= hi
            for count, m, k in row[:2]:  # read to m ceil(hi/k) if _row evaluates an n
                check_horizon(top := m * -(-hi // k) if reads else 0)
                if statement.shares:  # by table name: Row sides, last index read past hi
                    readers[count] += 1
                    if top > hi:  # built there at once, though read at hi first
                        tops[count] = max(tops[count], top)
    # made again to run, so that none is held: factories name tables and read none
    rows = _rows(statement, spec)
    if verb == "search":  # skipped pairs are not scanned
        rows = (({"kind": kind, **base}, row) if kind != "shift"
                else (base, row._replace(names=None))
                for base, row in rows if isinstance(row, Row))
    return cmd, _held(rows, spec, readers, tops, statement.skip_each_n, **how)
