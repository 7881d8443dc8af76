"""Grid verification of the shift inequality and its consequences.

Each statement walks a finite parameter grid and labels every cell with
one of:

    holds              in hypothesis, the asserted inequality is true
    fails              in hypothesis, the inequality is FALSE (witnessed)
    out-of-hypothesis  outside the stated bounds; evaluated only on
                       request and never counted as a refutation
    exempt             the single cell n = d+a+3 that the generalized
                       Kang-Park statement leaves out when d == -3 (mod a);
                       its actual value is recorded but not asserted
    skipped            an axis pair whose part sets cannot be built, or
                       whose q_d^(a) is undefined; the witness gives the
                       reason

The n-indexed statements are declared once each, in ``STATEMENTS``:

  * shift:       q_d^(1)(n) >= Q_{d-N}^(1,-)(n) for N >= 2,
                 d >= max(63, 46N-79), n >= d+2 (N = 4, d >= 105 is the
                 resolved level-4 case).
  * gen-kp:      delta_minus(a, d, n) >= 0 for ceil(d/a) >= 105, all n,
                 except the exempt cell above.
  * gen-dkst:    delta_minus_minus(a, d, n) >= 0, same bounds, no exemption.
  * ceiling:     q_d^(a)(n) >= q_{ceil(d/a)}^(1)(ceil(n/a)) for n >= d+2a.
  * a-to-1:      Q_d^(a,-)(a n) = Q_{(d+3)/a - 3}^(1,-)(n), where a | d+3.
  * modified-st: rho(T; n + n_hat) >= rho(S; n) for the divisibility-
                 shifted pair gen_kp_sets(a, d), where T starts at a and S
                 dominates T element-wise (``dominates``).
  * delta:       delta(a, d, n) >= 0 at a = 1 (Alder's theorem); only the
                 search scans it, at any a.

Each is a ``Statement`` whose row factory builds an axis pair's part sets
and declares its ``Row``: two count tables, each read at n -> m ceil(n/k),
the first n in hypothesis and an optional exempt cell.  A pair whose sets
cannot be built, or outside ``counting.check_q_domain`` where the row
reads q, is skipped, with the refusal as the reason.  One engine runs
them all: ``verify`` over a grid, ``evaluate_cell`` at one cell and
``search_counterexamples`` (negative cells only), each row through
``_row``, which reads each side as one slice of its table and reports the
row as one block of runs of cells (see ``VerificationReport``).

Verified by their own functions, since they are not n-indexed:

  * anchors:     the three small-n values Q_{d-N}^(1,-)(2d-2N+4) = 2,
                 Q(5d-5N+16) = 29 with its largest-part distribution,
                 Q(7d+13) <= 110 with a per-coordinate distribution cap.
  * xy-diff:     the ten closed-form differences x_i - y_i (i = 3..12),
                 their period-10 growth, and the branch minimum
                 min(d-2N-1, d-6N+17).
  * t-monotone:  rho(T(s,d); n) weakly increasing in s for s <= r_of(d).

Also here: ``check_andrews``, the per-n set-domination count bound
rho(T; n) >= rho(S; n), whose premise is ``dominates``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, NamedTuple

from .counting import (big_q_set, check_q_domain, column,
                       largest_part_counts, rho)
from .partset import (RefusedInput, ResidueClassSet, check_n, pm_set, r_of,
                      s_set, shift_regime, t_set, x_closed, y_closed)

HOLDS = "holds"
FAILS = "fails"
OUT = "out-of-hypothesis"
EXEMPT = "exempt"
SKIPPED = "skipped"
VIOLATION = "violation"

#: default grid horizons: deep enough to be convincing, minutes at desk scale
DEFAULT_N_MAX_A1 = 2000
DEFAULT_N_MAX_GENERAL = 1200
#: elements compared by the modified-st premise (``dominates``)
PREMISE_HORIZON = 200

#: expected largest-part distribution of Q_{d-N}^(1,-) at n = 5d-5N+16
ANCHOR_MID_DISTRIBUTION = (1, 4, 5, 6, 5, 3, 2, 1, 1, 1)
#: per-coordinate caps at n = 7d+13 (variance below these caps is allowed)
ANCHOR_TOP_DISTRIBUTION = (1, 7, 12, 20, 16, 18, 10, 10, 5, 5, 2, 2, 1, 1)
ANCHOR_TOP_TOTAL = 110

#: the ten closed-form differences x_i - y_i for i = 3..12, each as the
#: coefficients (u, v, w) of u*d + v*N + w
XY_DIFFERENCE_FORMS = ((1, -2, 1), (1, -2, -1), (2, -3, -8), (1, -3, 9),
                       (1, -4, 9), (1, -4, 9), (2, -5, 6), (2, -5, 0),
                       (2, -6, 16), (1, -6, 17))


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
    one cell, whose params are the base.  ``records`` builds one object
    per cell, on demand; ``summary``, ``failures`` and ``ok`` read runs."""

    def __init__(self, cmd: str, blocks: list[tuple[dict, list[tuple]]] = ()):
        self.cmd, self.blocks = cmd, list(blocks)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    def add(self, params: dict, status: str, value: int | None = None,
            witness: dict | None = None) -> None:
        """Append a block of one cell with these params."""
        self.blocks.append((params, [(status, (None,), (value,), witness)]))

    def _records(self, status: str | None = None) -> list[CellRecord]:
        return [CellRecord(base if n is None else {**base, "n": n}, st, value, witness)
                for base, runs in self.blocks for st, ns, values, witness in runs
                if status in (None, st) for n, value in zip(ns, values)]
    records = property(_records)

    @property
    def summary(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for _, runs in self.blocks:
            for status, ns, _, _ in runs:
                tally[status] = tally.get(status, 0) + len(ns)
        return tally

    def failures(self) -> list[CellRecord]:
        return self._records(FAILS)

    @property
    def ok(self) -> bool:
        return FAILS not in self.summary


class Side(NamedTuple):
    """One side of a Row: the counts of ``count`` (rho over a set, or q_d^(a)
    for a pair (a, d), as ``counting.column`` reads them) at m * ceil(n / k)."""

    count: ResidueClassSet | tuple[int, int]
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
    ``<axis>_values``) and ``row(x, y)``, which builds the part sets of the
    axis pair and declares its Row (data only: no table is read yet), or
    raises RefusedInput if they cannot be built or a count it reads is
    undefined there.  Such a pair is skipped, with one cell per n if
    ``skip_each_n``, else one cell.  Its report command is
    ``verify-<name>``."""

    axes: tuple[str, str]
    row: Callable[[int, int], Row]
    skip_each_n: bool = False


def n_hat(a: int, n: int) -> int:
    """Least nonnegative integer with a | (n + n_hat)."""
    if a < 1:
        raise RefusedInput(f"a must be >= 1, got {a}")
    return (-n) % a


def _read(side: Side, lo: int, hi: int):
    """The side's counts at n = lo..hi, from its table built at the last index."""
    count, m, k = side
    tab = column(count, m * -(-hi // k))
    if k == 1:
        return tab[m * lo:m * hi + 1:m]
    return [tab[m * -(-n // k)] for n in range(lo, hi + 1)]


def _row(report: VerificationReport, base: dict, lo: int, hi: int, row: Row,
         evaluate_out: bool = False, violations_only: bool = False) -> None:
    """Append one grid row's block at n = lo..hi: lhs against rhs.

    The comparison is asserted as ``Row`` describes; cells outside the
    hypothesis are evaluated only if ``evaluate_out``, and unevaluated ones
    read no table.  The value is lhs - rhs.  With ``violations_only`` every
    cell is evaluated, whatever the hypothesis, and just those with lhs <
    rhs are kept, as violations (if none, no block).  Failing and violation
    cells are witnessed if the row has names.
    """
    lhs, rhs, names, first, exempt, equal = row
    if violations_only:
        first, exempt = 0, None
    elif first is None:
        first = hi + 1
    start = lo if evaluate_out else min(max(first, lo), hi + 1)  # first evaluated n
    runs = [(OUT, range(lo, start), (None,) * (start - lo), None)] if lo < start else []
    if start <= hi:
        left, right = _read(lhs, start, hi), _read(rhs, start, hi)
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
    if runs:
        report.blocks.append((base, runs))


def dominates(S: ResidueClassSet, T: ResidueClassSet, i_max: int,
              a: int = 1) -> bool:
    """True iff T starts at a and, for every i <= i_max, a divides y_i and
    x_i >= y_i, where x_i and y_i are the i-th elements of S and T.

    The premise of the set-domination bound rho(T; n) >= rho(S; n) (a = 1,
    ``check_andrews``) and of its divisibility-shifted form, modified-st.
    """
    return T.element(1) == a and all(
        x >= y and y % a == 0
        for _, x, y in zip(range(i_max), S.elements(), T.elements()))


def check_andrews(S: ResidueClassSet, T: ResidueClassSet,
                  n_max: int) -> VerificationReport:
    """Per-n check of rho(T; n) >= rho(S; n), the set-domination count bound."""
    report = VerificationReport("verify-andrews")
    _row(report, {}, 0, n_max, Row(Side(T), Side(S), ("rho_T", "rho_S")))
    return report


def gen_kp_sets(a: int, d: int) -> tuple[ResidueClassSet, ResidueClassSet]:
    """The comparison pair behind the generalized Kang-Park reduction.

    S realizes Q_d^(a,-); T realizes Q^(a,-) at the smaller modulus
    d + d_hat - a where d_hat = (-d) mod a, so every element of T is
    divisible by a and is dominated by the matching element of S (checked
    by ``dominates``; it fails when the modulus is 2a).
    """
    d_hat = n_hat(a, d)
    S = big_q_set(a, d, 1)
    m = d + d_hat - a
    if m < 3 or a >= m:
        raise RefusedInput(f"gen_kp_sets: degenerate T modulus {m} for a={a}, d={d}")
    T = pm_set(a, m, [m - a])
    return S, T


# ---------------------------------------------------------- declarations

def _divides(a: int, d: int) -> bool:
    """a | d+3: a-to-1 applies, and gen-kp has its exempt cell."""
    return (d + 3) % a == 0


def _shift_row(N: int, d: int) -> Row:
    S = s_set(d, N)
    check_q_domain(1, d)
    return Row(Side((1, d)), Side(S), ("q", "Q"),
               d + 2 if shift_regime(d, N) else None)


def _ceiling_row(a: int, d: int) -> Row:
    check_q_domain(a, d)  # then ceil(d/a) >= 1 too
    return Row(Side((a, d)), Side((1, math.ceil(d / a)), 1, a), ("lhs", "rhs"),
               d + 2 * a)


def _a_to_1_row(a: int, d: int) -> Row:
    if not _divides(a, d):
        raise RefusedInput(f"{a} does not divide d+3 = {d + 3}")
    Q, Q1 = big_q_set(a, d, 1), big_q_set(1, (d + 3) // a - 3, 1)
    return Row(Side(Q, a), Side(Q1), ("lhs", "rhs"), equal=True)


def _modified_st_row(a: int, d: int) -> Row:
    S, T = gen_kp_sets(a, d)  # T is read at n + n_hat(a, n) = a * ceil(n / a)
    return Row(Side(T, a, a), Side(S), ("rho_T", "rho_S"),
               0 if dominates(S, T, PREMISE_HORIZON, a) else None)


def _delta_row(minus: int, a: int, d: int, exempt: bool = False) -> Row:
    """q_d^(a)(n) >= rho(big_q_set(a, d, minus), n), in hypothesis at a = 1
    for Q (Alder's theorem) and at ceil(d/a) >= 105 for Q^- and Q^--; with
    ``exempt``, except at n = d+a+3 when a | d+3."""
    Q = big_q_set(a, d, minus)
    check_q_domain(a, d)
    return Row(Side((a, d)), Side(Q), ("q", "Q"),
               0 if (math.ceil(d / a) >= 105 if minus else a == 1) else None,
               d + a + 3 if exempt and _divides(a, d) else None)


STATEMENTS: dict[str, Statement] = {
    "shift": Statement(("N", "d"), _shift_row, skip_each_n=True),
    "gen-kp": Statement(("a", "d"), functools.partial(_delta_row, 1, exempt=True)),
    "gen-dkst": Statement(("a", "d"), functools.partial(_delta_row, 2)),
    "ceiling": Statement(("a", "d"), _ceiling_row),
    "a-to-1": Statement(("a", "d"), _a_to_1_row),
    "modified-st": Statement(("a", "d"), _modified_st_row),
    "delta": Statement(("a", "d"), functools.partial(_delta_row, 0)),
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

    A refused row factory skips its pair.  Factories build part sets and
    check count domains, nothing else: ``_row`` reads every table later, so
    a table refusal (``counting.MAX_HORIZON``) still refuses the whole grid,
    as does an empty axis.
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


def verify(name: str, spec: GridSpec) -> VerificationReport:
    """Evaluate the statement ``STATEMENTS[name]`` over the grid ``spec``.

    Blocks follow the spec's axis order, one per axis pair, with cells in
    n order.  A skipped axis pair gets one cell per n if the statement says
    ``skip_each_n``, else one cell without n.
    """
    statement = STATEMENTS[name]
    report = VerificationReport(f"verify-{name}")
    for base, row in _rows(statement, spec):
        if isinstance(row, Row):
            _row(report, base, spec.n_min, spec.n_max, row,
                 evaluate_out=spec.evaluate_out_of_hypothesis)
        else:
            ns = spec.n_values() if statement.skip_each_n else (None,)
            report.blocks.append((base, [(SKIPPED, ns, (None,) * len(ns),
                                          {"reason": row})]))
    return report


def evaluate_cell(name: str, n: int, evaluate_out_of_hypothesis: bool = False,
                  **params: int) -> CellRecord:
    """The record of ``verify(name, ...)`` at one cell: the axis values
    ``params`` (``N=2, d=63`` for shift, ``a=4, d=417`` otherwise) and n.
    A skipped pair's record is returned as the grid reports it."""
    spec = GridSpec(**{f"{axis}_values": (params[axis],)
                       for axis in STATEMENTS[name].axes},
                    n_min=n, n_max=n,
                    evaluate_out_of_hypothesis=evaluate_out_of_hypothesis)
    (record,) = verify(name, spec).records
    return record


def search_counterexamples(kind: str, spec: GridSpec) -> VerificationReport:
    """Exhaustively list the cells with lhs < rhs, in scan order.

    ``kind`` is one of delta, delta_m, delta_mm (the rows of delta, gen-kp
    and gen-dkst over (a, d, n)) or shift (the shift rows over (N, d, n)),
    read by ``search_kind``.  Hypotheses and exempt cells do not apply,
    and skipped pairs are not scanned.  A delta-kind record's params start
    with the kind and it is witnessed by both counts; a shift record has
    neither.  The report contains one record per violation; searching is
    informational, never a failure.
    """
    kind, statement = search_kind(kind)
    report = VerificationReport(f"search-{kind}")
    tagged = kind != "shift"
    for base, row in _rows(statement, spec):
        if isinstance(row, str):
            continue
        if tagged:
            base = {"kind": kind, **base}
        else:
            row = row._replace(names=None)
        _row(report, base, spec.n_min, spec.n_max, row, violations_only=True)
    return report


def verify_smalln_anchors(d: int, N: int,
                          evaluate_out: bool = False) -> VerificationReport:
    """The three small-n anchor values of Q_{d-N}^(1,-) used to bridge
    d+2 <= n <= 7d+13, plus the largest-part distributions behind them."""
    report = VerificationReport("verify-anchors")
    hyp = shift_regime(d, N)
    base = {"d": d, "N": N}
    if not hyp and not evaluate_out:
        report.add(base, OUT)
        return report
    S = s_set(d, N)
    n3 = 7 * d + 13
    rho(S, n3)  # the largest anchor first: S's table is built once, at its horizon

    def anchor(name: str, n: int, value: int, ok: bool, witness: dict) -> None:
        report.add({**base, "anchor": name, "n": n},
                   (HOLDS if ok else FAILS) if hyp else OUT, value,
                   None if ok else witness)

    n1 = 2 * d - 2 * N + 4
    v1 = rho(S, n1)
    anchor("2d-2N+4", n1, v1, v1 == 2, {"expected": "2"})

    n2 = 5 * d - 5 * N + 16
    dist2 = largest_part_counts(S, n2, 10)
    v2 = rho(S, n2)
    anchor("5d-5N+16", n2, v2, v2 == 29 and tuple(dist2) == ANCHOR_MID_DISTRIBUTION,
           {"expected": "29", "expected_distribution": list(ANCHOR_MID_DISTRIBUTION),
            "distribution": dist2})

    dist3 = largest_part_counts(S, n3, 14)
    v3 = rho(S, n3)
    anchor("7d+13", n3, v3, v3 <= ANCHOR_TOP_TOTAL and all(
        c <= cap for c, cap in zip(dist3, ANCHOR_TOP_DISTRIBUTION)),
        {"cap": str(ANCHOR_TOP_TOTAL), "distribution_caps":
         list(ANCHOR_TOP_DISTRIBUTION), "distribution": dist3})
    return report


def xy_difference_report(d: int, N: int) -> VerificationReport:
    """The ten closed-form differences, the period-10 relation, and the
    branch minimum min(d-2N-1, d-6N+17) of x_i - y_i over i >= 3."""
    if not (N >= 2 and d >= max(31, 6 * N - 17)):
        raise RefusedInput(f"xy differences: need N >= 2 and "
                           f"d >= max(31, 6N-17), got d={d}, N={N}")
    report = VerificationReport("verify-xy-diff")
    base = {"d": d, "N": N}
    diff = lambda i: x_closed(d, N, i) - y_closed(d, i)

    for i, (u, v, w) in enumerate(XY_DIFFERENCE_FORMS, 3):
        got, want = diff(i), u * d + v * N + w
        report.add({**base, "check": f"difference_i{i}"},
                   HOLDS if got == want else FAILS, got,
                   None if got == want else {"expected": str(want)})

    period_ok = all(diff(i + 10) == diff(i) + (d - 5 * N + 15)
                    for i in range(3, 51))
    report.add({**base, "check": "period_mod_10"},
               HOLDS if period_ok else FAILS, d - 5 * N + 15)

    got_min = min(diff(i) for i in range(3, 201))
    want_min = min(d - 2 * N - 1, d - 6 * N + 17)
    branch = d - 2 * N - 1 if N <= 4 else d - 6 * N + 17
    ok = got_min == want_min == branch and got_min >= 0
    report.add({**base, "check": "branch_minimum"}, HOLDS if ok else FAILS, got_min,
               None if ok else {"expected": str(want_min), "branch": str(branch)})
    return report


def verify_t_monotone(d: int, n_max: int) -> VerificationReport:
    """rho(T(s_lo, d); n) <= rho(T(s_hi, d); n) for 1 <= s_lo <= s_hi <= r_of(d).

    One record per (s_lo, s_hi) pair; the value is the minimum slack over
    n <= n_max and a failing pair carries the first violating n."""
    report = VerificationReport("verify-t-monotone")
    r = r_of(d)
    tables = {}
    for s in range(1, r + 1):
        T = t_set(s, d)
        rho(T, n_max)  # one build at the horizon, or a refusal before any work
        tables[s] = column(T, n_max)[:n_max + 1]
    for s_lo in range(1, r + 1):
        for s_hi in range(s_lo, r + 1):
            slack = [hi - lo for lo, hi in zip(tables[s_lo], tables[s_hi])]
            worst = min(slack)
            witness = None
            if worst < 0:
                witness = {"n": next(i for i, v in enumerate(slack) if v < 0)}
            report.add({"d": d, "s_lo": s_lo, "s_hi": s_hi, "n_max": n_max},
                       HOLDS if worst >= 0 else FAILS, worst, witness)
    return report
