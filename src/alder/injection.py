"""Cell-by-cell check of the piecewise injection from partitions over
S(d, N) into partitions over T(5, d): ``alder.maps`` defines its
statistics, its classes S1 and S2 and its pieces phi1 and phi2.

Only S2 needs a walk.  phi1 keeps q_i = p_i for i >= 2 and fixes q_1 by
weight (y_1 = x_1 = 1 and y_2 = x_2 + N - 2), so distinct S1 members
have distinct images, and q_1 >= 0 is the S1 condition itself.  Every
S1 check therefore holds by construction once two premises hold, both
checked per index, not per partition: x_i >= y_i for every i >= 3 with
x_i <= n (so alpha is defined and nonnegative), and d - N - 1 >= 1.
Under them S1 has rho(S, n) - |S2| members, and S2 is empty when
N <= 2.  ``verify_injection`` walks the S2 members alone, maps and checks
each by ``maps._map_checked`` (its image, p_2 >= 8, the piece
separation), as the exhaustive check does every partition, and checks
injectivity within S2.  An S2 image q equals an S1 image iff its
phi1-preimage, p_i = q_i (i >= 2) with p_1 = q_1 - alpha(q) + (N-2) q_2,
has p_1 >= 0; alpha(q) is the statistics' own alpha (``maps._alpha``).
Every x_i and y_i is read from the cell's ``_element_table``, evaluated
once from the closed forms when ``_open_cell`` names S and T.

``maps._check_exhaustively`` enumerates every partition of n and maps
it.  It is the structural check's fallback (and, in the tests, its
oracle): a cell whose premises fail, or where any check fails, is rerun
exhaustively, so its witnesses come in enumeration order.  Only these
two paths map a partition, so only they load ``alder.maps``: a cell
with an empty S2 never does.

In-hypothesis cells satisfy N >= 2, d >= max(63, 46N-79), n >= 7d+14.
Out-of-hypothesis cells run only when forced, and their failures are
reported as exploration data, not refutations.

What ``verify_injection`` caps grows with n: n itself, and rho(S, n),
which never decreases since 1 is in S; the hypothesis is monotone in n.
So the last cell of an n range is over a cap exactly when some cell of
it is; ``verify_range`` checks the first n >= 0, then runs the last cell.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from typing import Iterator, Sequence

from . import counting
from .counting import Elements, shift_regime, x_closed, y_closed
from .report import FAILS, HOLDS, OUT, RefusedInput, cell, check_n

#: largest rho(S, n) a cell may check; checked before any partition is examined
MAX_PARTITIONS = 10 ** 6


def in_hypothesis(d: int, N: int, n: int) -> bool:
    """The regime in which the piecewise injection is asserted to work."""
    return shift_regime(d, N) and n >= 7 * d + 14


class InjectionCellReport:
    """Outcome of checking one (d, N, n) cell: ``size`` is |S^N|, the number
    of partitions of n, which ``s1_size`` and ``s2_size`` split by class."""

    def __init__(self, d: int, N: int, n: int, in_hypothesis: bool, evaluated: bool):
        self.d, self.N, self.n = d, N, n
        self.in_hypothesis, self.evaluated = in_hypothesis, evaluated
        self.size = self.rho_s = self.rho_t = self.s1_size = self.s2_size = 0
        self.checks: dict[str, bool] = {}
        self.witnesses: list[dict] = []

    @property
    def passed(self) -> bool:
        return self.evaluated and all(self.checks.values())

    @property
    def status(self) -> str:
        if not self.in_hypothesis:
            return OUT
        return HOLDS if self.passed else FAILS

    @property
    def block(self) -> tuple[dict, list[tuple]]:
        """The cell as the one-cell block of a report (``report.cell``):
        its value is |S^N| and its witness the counts, the failed checks and
        up to five map witnesses, if it was evaluated."""
        witness: dict | None = None
        if self.evaluated:
            witness = {"rho_S": str(self.rho_s), "rho_T": str(self.rho_t),
                       "s1": self.s1_size, "s2": self.s2_size,
                       "failed_checks": sorted(k for k, v in self.checks.items() if not v)}
            if self.witnesses:
                witness["witnesses"] = self.witnesses[:5]
        return cell({"d": self.d, "N": self.N, "n": self.n}, self.status,
                    self.size if self.evaluated else None, witness)


def _open_cell(d: int, N: int, n: int, force: bool) -> tuple[InjectionCellReport, Elements | None]:
    """A cell's report before any partition is examined, with the cell's
    ``_element_table`` if it is to be checked (None if it is skipped or
    not constructible)."""
    check_n(n)
    hyp = in_hypothesis(d, N, n)
    report = InjectionCellReport(d, N, n, in_hypothesis=hyp, evaluated=hyp or force)
    if not report.evaluated:
        return report, None

    try:
        y_closed(d, 1)  # the target ordering needs r_of(d) >= 5
        S, T = counting.s_set(d, N), counting.t_set(5, d)
    except RefusedInput as exc:
        report.checks["constructible"] = False
        report.witnesses.append({"error": str(exc)})
        return report, None

    report.rho_s = counting.rho(S, n)
    if report.rho_s > MAX_PARTITIONS:
        raise RefusedInput(f"cell d={d}, N={N}, n={n} has {report.rho_s} "
                           f"partitions, more than {MAX_PARTITIONS}")
    report.rho_t = counting.rho(T, n)
    return report, _element_table(d, N, n)


def _element_table(d: int, N: int, n: int) -> Elements:
    """The cell's elements, evaluated once: entry i is (x_i, y_i, x_i - y_i)
    for every i with x_i <= n, and for every i <= 5 whatever n is, since
    phi2 may put a part y_5 into an image; entry 0 is (0, 0, 0)."""
    els = [(0, 0, 0)]
    for i in itertools.count(1):
        x, y = x_closed(d, N, i), y_closed(d, i)
        if x > n and i > 5:
            return els
        els.append((x, y, x - y))


def _settle(report: InjectionCellReport, mapped: int, distinct: int,
            witnesses: list[dict], failed: set[str]) -> None:
    """Set the checks of an evaluated cell whose sizes are filled in:
    ``mapped`` of its partitions have an image, ``distinct`` images in all,
    ``witnesses`` are the first five of ``maps._map_checked`` and
    ``failed`` names every check that one of its witnesses failed."""
    report.witnesses += witnesses
    classified = report.s1_size + report.s2_size == report.size
    report.checks = {
        "classification_partitions": classified,
        "enumeration_matches_rho": report.size == report.rho_s,
        "stats_defined": classified,  # a partition is classified iff its stats are
        "images_valid": mapped == report.size,  # maps._image rejects weight drift
        "injective": distinct == mapped,
        "piece_separation": "piece_separation" not in failed,
        "rho_dominates": report.rho_t >= report.rho_s,
        "p2_lower_bound": "p2_lower_bound" not in failed}


def _s2_members(N: int, n: int, els: Elements) -> Iterator[dict[int, int]]:
    """Every class-S2 partition of n over S(d, N), given the premises.

    Fix p_2 = m >= 1 and write B = n - m x_2.  A multiset {i: p_i} over
    i >= 3 with sum p_i x_i <= B leaves p_1 = B - sum p_i x_i, and

        p_1 + alpha = B - sum p_i y_i,

    so the partition is in S2 iff that is at most cap = (N-2) m - 1.  Both
    p_1 and alpha are nonnegative, so alpha <= cap bounds every branch.
    A branch whose parts all come from indices <= j must still add
    sum y >= need = p_1 + alpha - cap using parts of at most y_j each,
    every one raising alpha by at least min(x_i - y_i, 3 <= i <= j); the
    walk stops trying smaller j once that cannot fit under the cap.  The
    walk keeps an explicit stack of (largest free index, p_1, alpha,
    parts) and skips unused indices, so its depth is the number of
    distinct parts, not the number of indices.
    """
    xs, ys, delta = zip(*els)
    dmin = [*delta[:3], *itertools.accumulate(delta[3:], min)]  # min(delta[3..j])
    for m in range(1, n // xs[2] + 1):
        cap = (N - 2) * m - 1
        if cap < 0:
            continue
        stack = [(len(xs) - 1, n - m * xs[2], 0, ())]
        while stack:
            top, rest, alpha, parts = stack.pop()
            need = rest + alpha - cap
            if need <= 0:
                lam = {1: rest, 2: m} if rest else {2: m}
                lam.update(reversed(parts))
                yield lam
            for j in range(min(top, bisect.bisect_right(xs, rest) - 1), 2, -1):
                if need > 0 and alpha + -(-need // ys[j]) * dmin[j] > cap:
                    break
                most = rest // xs[j]
                if delta[j]:
                    most = min(most, (cap - alpha) // delta[j])
                for k in range(1, most + 1):
                    stack.append((j - 1, rest - k * xs[j], alpha + k * delta[j],
                                  parts + ((j, k),)))


def _s2_size(d: int, N: int, n: int, els: Elements) -> int | None:
    """The number of S2 partitions, if the structural argument settles the
    cell; None if a premise or a check on an S2 member fails."""
    if d - N - 1 < 1 or any(diff < 0 for x, _, diff in els[3:] if x <= n):
        return None
    images: set[bytes] = set()
    failed: list[dict] = []
    for lam in _s2_members(N, n, els):
        if not images:  # the first member: an empty S2 loads no maps
            from . import maps
        _, img = maps._map_checked(lam, d, N, els, failed)
        if failed:
            return None
        key = maps._key(img)
        # img's phi1-preimage (p_i = q_i, i >= 3) is in S1, a partition of n, iff p_1 >= 0
        p1 = img.get(1, 0) + (N - 2) * img.get(2, 0) - maps._alpha(img, els)
        if key in images or p1 >= 0:
            return None
        images.add(key)
    return len(images)  # one per S2 member: a repeated image returned None


def verify_injection(d: int, N: int, n: int, force: bool = False) -> InjectionCellReport:
    """Verify the piecewise injection at one (d, N, n) cell.

    Checks, over all partitions of n over S(d, N): classification
    consistency, image validity (nonnegative, weight n), global
    injectivity including across pieces, the q_2-separation of the beta
    sub-pieces, the count inequality rho(T) >= rho(S), and the p_2 >= 8
    bound for S2 members.  Failed assertions are collected as witnesses;
    the call itself does not raise on them.

    The cell is settled structurally when it can be (see the module
    docstring): only the S2 members are walked and mapped, and the
    report's size is rho(S, n) read from its count table.  When a premise
    or any check fails, the cell is rerun by ``maps._check_exhaustively``,
    so the report, witnesses included, is always the one the exhaustive
    check gives.

    Out-of-hypothesis cells are evaluated only when ``force`` is set and
    are labeled as such, never as failures of the inequality.  Raises
    RefusedInput if n < 0 and, for a cell it evaluates, if n is beyond
    ``counting.MAX_HORIZON`` or rho(S, n) exceeds MAX_PARTITIONS; these
    are checked before any partition is examined.
    """
    report, els = _open_cell(d, N, n, force)
    if els is None:
        return report
    s2_size = _s2_size(d, N, n, els)
    if s2_size is None or report.rho_t < report.rho_s:
        from . import maps
        _settle(report, *maps._check_exhaustively(report, els))
        return report
    report.size, report.s2_size = report.rho_s, s2_size
    report.s1_size = report.size - s2_size
    _settle(report, report.size, report.size, [], set())  # every check holds
    return report


def verify_range(d: int, N: int, n_values: Sequence[int],
                 force: bool = False) -> list[InjectionCellReport]:
    """``verify_injection`` at (d, N, n) for each n of the ascending
    ``n_values``, in order.  The first n is checked and the last cell runs
    first (see the module docstring), so a range over a cap runs no other
    cell."""
    check_n(n_values[0])
    cell = functools.partial(verify_injection, d, N, force=force)
    last = cell(n_values[-1])
    return [*map(cell, n_values[:-1]), last]
