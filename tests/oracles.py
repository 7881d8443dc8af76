"""Independent oracles that the tests pin the counters to.

The brute-force ones are plain recursive enumeration, exponential in n, so
each refuses n beyond a limit unless the caller raises it.  The table
oracles are the plain loops that counting's slice passes replace;
``gap_table`` is also the two-pass form of the q_d^(a) table (grow "at
most k parts", then add it in at off_k) that counting's Horner
evaluation no longer uses.  ``partitions_list`` is the recursive,
list-building walk that ``maps.enumerate_partitions`` streams, in the
same order.  The last helpers are no oracles: ``big_q`` and ``delta``
read one entry of counting's tables under the paper's names, for tests
that check one count at a time; ``check_andrews`` runs
the set-domination bound as one grid row, ``positive_integers`` names
the set of all parts, ``pm_set`` a +-a set made for a test, and
``verify_injection_exhaustive`` runs an inject cell by its fallback
path.  A part set is the name of its rho table, as in the library.

``dominates`` and ``gen_kp_sets`` are the element-wise premise of the
modified-st statement and the pair of sets it compares: the reference
that its closed form, T's modulus m = d + n_hat(a, d) - a other than
2a, is tested against.

The library reads a report only as ``commands._write`` writes it; the
tests read one cell at a time.  ``Report`` holds a report (cmd, blocks)
with ``records`` (one ``CellRecord`` per cell), ``summary`` (cells per
status) and ``ok`` (no failing cell); ``Report.of`` collects the pair
that any command, lemma check or grid returns, and ``verify`` and
``search_counterexamples`` collect ``inequalities.grid``'s.
"""

from typing import NamedTuple
from unittest import mock

from alder import counting, inequalities, injection
from alder.counting import r_of
from alder.inequalities import Row, Side
from alder.report import FAILS, RefusedInput, check_n

#: refuse brute-force enumeration beyond this unless the caller raises it
DEFAULT_BRUTE_LIMIT = 60
#: elements compared by the modified-st premise (``dominates``)
PREMISE_HORIZON = 200


def rho_brute(A: str, n: int, limit: int = DEFAULT_BRUTE_LIMIT) -> int:
    """Oracle for rho over the set of the rho table ``A``: plain recursive
    enumeration of part multisets."""
    if n > limit:
        raise RefusedInput(f"rho_brute: n={n} beyond oracle limit {limit}")
    elements = counting.elements(A, n)

    def walk(remaining: int, max_idx: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for idx in range(max_idx, -1, -1):
            v = elements[idx]
            if v <= remaining:
                total += walk(remaining - v, idx)
        return total

    return walk(n, len(elements) - 1) if n else 1


def q_brute(a: int, d: int, n: int, limit: int = DEFAULT_BRUTE_LIMIT) -> int:
    """Oracle for the q_d^(a) table: enumerate gap->=d part lists smallest-part first."""
    if n > limit:
        raise RefusedInput(f"q_brute: n={n} beyond oracle limit {limit}")

    def walk(remaining: int, lo: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for p in range(lo, remaining + 1):
            total += walk(remaining - p, p + d)
        return total

    return walk(n, a)


def q_lower_bound(d: int, n: int) -> int:
    """max(1, floor((n-d)/2) + 1), a floor for q_d^(1)(n): the partition n
    itself plus the two-part splits (n-k) + k with k <= (n-d)/2."""
    if d < 1 or n < 1:
        raise RefusedInput(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    return max(1, (n - d) // 2 + 1)


def coin_change(elements, horizon: int) -> list[int]:
    """Oracle for the coin-change tables: the number of partitions of each
    n <= horizon into ``elements``, one plain loop per element."""
    dp = [0] * (horizon + 1)
    dp[0] = 1
    for v in elements:
        for m in range(v, horizon + 1):
            dp[m] += dp[m - v]
    return dp


def gap_table(a: int, d: int, horizon: int) -> list[int]:
    """Oracle for the q_d^(a) table: the staircase bijection with plain loops,
    partitions into at most k parts grown one k at a time over the whole
    horizon."""
    out = [1] + [0] * horizon
    atmost = [1] + [0] * horizon
    k, offset = 1, a
    while offset <= horizon:
        for m in range(k, horizon + 1):
            atmost[m] += atmost[m - k]
        for m in range(offset, horizon + 1):
            out[m] += atmost[m - offset]
        k += 1
        offset = a * k + d * k * (k - 1) // 2
    return out


def g_table(d: int, horizon: int) -> list[int]:
    """Oracle for the g_script table: T(r-1, d) by coin change, then one
    descending loop per distinct part d + 2^(r-1) (mod 2d)."""
    r = r_of(d)
    dp = coin_change(counting.elements(counting.t_set(r - 1, d), horizon), horizon)
    for v in range(d + 2 ** (r - 1), horizon + 1, 2 * d):
        for m in range(horizon, v - 1, -1):
            dp[m] += dp[m - v]
    return dp


def largest_part_counts(A: str, n: int, i_max: int) -> list[int]:
    """Oracle for counting.largest_part_counts: the partitions of n whose
    largest part is x_j are those of n - x_j into x_1..x_j."""
    elements = counting.elements(A, n)[:i_max]
    out = [coin_change(elements[:j + 1], n - v)[n - v] for j, v in enumerate(elements)]
    return out + [0] * (i_max - len(out))


def big_q(a: int, d: int, n: int, minus: int = 0) -> int:
    """Q_d^(a)(n), or Q_d^(a,-)(n) and Q_d^(a,--)(n) at ``minus`` 1 and 2."""
    return counting.column(counting.big_q_name(a, d, minus), n)[n]


def delta(a: int, d: int, n: int, minus: int = 0) -> int:
    """q_d^(a)(n) - Q_d^(a)(n), or minus Q_d^(a,-) or Q_d^(a,--) as in big_q."""
    return counting.column(counting.q_name(a, d), n)[n] - big_q(a, d, n, minus)


class CellRecord(NamedTuple):
    params: dict
    status: str
    value: int | None = None
    witness: dict | None = None


class Report:
    """A report (cmd, blocks) whose blocks are a list, read one cell at a time."""

    def __init__(self, cmd: str, blocks: list):
        self.cmd, self.blocks = cmd, blocks

    @classmethod
    def of(cls, report: tuple) -> "Report":
        """The report (cmd, blocks) that a command, lemma or grid returns, collected."""
        cmd, blocks = report
        return cls(cmd, list(blocks))

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


def verify(name: str, spec: inequalities.GridSpec) -> Report:
    """The grid ``verify-<name>`` over ``spec``, collected."""
    return Report.of(inequalities.grid(f"verify-{name}", spec))


def search_counterexamples(kind: str, spec: inequalities.GridSpec) -> Report:
    """The grid ``search-<kind>`` over ``spec``, collected."""
    return Report.of(inequalities.grid(f"search-{kind}", spec))


def first_elements(A: str, i_max: int) -> list[int]:
    """The i_max smallest members of the set of the rho table ``A``:
    1..k*modulus holds k members of each residue class, so it holds i_max
    members once k*|residues| >= i_max + |exclusions|."""
    modulus, residues, exclusions = counting._fields(A)
    k = -(-(i_max + len(exclusions)) // len(residues))
    return counting.elements(A, k * modulus)[:i_max]


def dominates(S: str, T: str, i_max: int, a: int = 1) -> bool:
    """True iff T starts at a and, for every i <= i_max, a divides y_i and
    x_i >= y_i, where x_i and y_i are the i-th elements of S and T.

    The premise of the set-domination bound rho(T; n) >= rho(S; n) (a = 1)
    and of its divisibility-shifted form, modified-st.
    """
    xs, ys = first_elements(S, i_max), first_elements(T, i_max)
    return ys[0] == a and all(x >= y and y % a == 0 for x, y in zip(xs, ys))


def gen_kp_sets(a: int, d: int) -> tuple[str, str]:
    """The comparison pair behind the generalized Kang-Park reduction.

    S realizes Q_d^(a,-); T realizes Q^(a,-) at the smaller modulus
    d + d_hat - a where d_hat = (-d) mod a, so every element of T is
    divisible by a and is dominated by the matching element of S (checked
    by ``dominates``; it fails when the modulus is 2a).
    """
    d_hat = inequalities.n_hat(a, d)
    S = counting.big_q_name(a, d, 1)
    m = d + d_hat - a
    if m < 3 or a >= m:
        raise RefusedInput(f"gen_kp_sets: degenerate T modulus {m} for a={a}, d={d}")
    return S, pm_set(a, m, [m - a])


def check_andrews(S: str, T: str, n_max: int) -> Report:
    """Per-n check of rho(T; n) >= rho(S; n), the set-domination count bound
    whose premise is ``dominates``: one row over n = 0..n_max, with no
    params."""
    return Report("verify-andrews", [
        inequalities._row({}, 0, n_max, Row(Side(T), Side(S), ("rho_T", "rho_S")))])


def positive_integers() -> str:
    """The name of rho over all of 1, 2, 3, ... (modulus 1, residue 0)."""
    return counting.rho_name(1, {0})


def pm_set(a: int, modulus: int, exclusions=()) -> str:
    """The name of rho over {x >= 1 : x == +-a (mod modulus)} minus exclusions.

    When a == modulus - a the two residues coincide and the set is a
    single congruence class.
    """
    return counting.rho_name(modulus, {a % modulus, (modulus - a) % modulus}, set(exclusions))


def partitions_list(A: str, n: int) -> list[dict[int, int]]:
    """Reference for ``maps.enumerate_partitions``: the same partitions as
    {i: p_i} maps, in the same order, by plain recursion into a list."""
    check_n(n)
    elements = counting.elements(A, n)
    out: list[dict[int, int]] = []
    acc: list[tuple[int, int]] = []  # (i, p_i), largest index first

    def walk(idx: int, remaining: int) -> None:
        if remaining == 0:
            out.append(dict(reversed(acc)))
        elif idx == 0:
            m, rest = divmod(remaining, elements[0])
            if rest == 0:
                out.append(dict([(1, m), *reversed(acc)]))
        elif idx > 0:
            v = elements[idx]
            for m in range(remaining // v, 0, -1):
                acc.append((idx + 1, m))
                walk(idx - 1, remaining - m * v)
                acc.pop()
            walk(idx - 1, remaining)

    walk(len(elements) - 1, n)
    return out


def verify_injection_exhaustive(d: int, N: int, n: int, force: bool = False):
    """``injection.verify_injection`` with the structural check switched
    off, so that every evaluated cell is enumerated and mapped by its
    fallback, ``maps._check_exhaustively``: the oracle of the structural
    check, and the only path that produces witnesses, in enumeration order."""
    with mock.patch.object(injection, "_s2_size", lambda *args: None):
        return injection.verify_injection(d, N, n, force)
