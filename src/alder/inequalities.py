"""Grid verification of the shift inequality and its consequences.

Each verifier walks a finite parameter grid and labels every cell with
one of:

    holds              in hypothesis, the asserted inequality is true
    fails              in hypothesis, the inequality is FALSE (witnessed)
    out-of-hypothesis  outside the stated bounds; evaluated only on
                       request and never counted as a refutation
    exempt             the single cell n = d+a+3 that the generalized
                       Kang-Park statement leaves out when d == -3 (mod a);
                       its actual value is recorded but not asserted
    skipped            parameters for which the quantities are undefined

The statements verified:

  * shift:       q_d^(1)(n) >= Q_{d-N}^(1,-)(n) for N >= 2,
                 d >= max(63, 46N-79), n >= d+2 (N = 4, d >= 105 is the
                 resolved level-4 case).
  * gen-kp:      delta_minus(a, d, n) >= 0 for ceil(d/a) >= 105, all n,
                 except the exempt cell above.
  * gen-dkst:    delta_minus_minus(a, d, n) >= 0, same bounds, no exemption.
  * anchors:     the three small-n values Q_{d-N}^(1,-)(2d-2N+4) = 2,
                 Q(5d-5N+16) = 29 with its largest-part distribution,
                 Q(7d+13) <= 110 with a per-coordinate distribution cap.
  * xy-diff:     the ten closed-form differences x_i - y_i (i = 3..12),
                 their period-10 growth, and the branch minimum
                 min(d-2N-1, d-6N+17).
  * ceiling:     q_d^(a)(n) >= q_{ceil(d/a)}^(1)(ceil(n/a)) for n >= d+2a.
  * a-to-1:      Q_d^(a,-)(a n) = Q_{(d+3)/a - 3}^(1,-)(n) when a | d+3.
  * modified-st: rho(T; n + n_hat) >= rho(S; n) for the divisibility-
                 shifted comparison pair built from (a, d).
  * t-monotone:  rho(T(s,d); n) weakly increasing in s for s <= r_of(d).

Also here: counterexample search (negative delta scans) and the plain
element-domination comparison behind the classical set-inclusion bound.

The n-indexed statements (shift, gen-kp, gen-dkst, ceiling, a-to-1,
modified-st, the Andrews bound) and both searches are declarations over
one row evaluator, ``_row``: an lhs count and an rhs count per n, a
hypothesis predicate and an optional exempt cell.  All run in one
process; each table a row reads is built once, at the row's horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .counting import (big_q, big_q_minus, big_q_minus_minus,
                       largest_part_counts, q_count, rho)
from .partset import (RefusedInput, ResidueClassSet, pm_set, r_of, s_set,
                      shift_regime, t_set, x_closed, y_closed)

HOLDS = "holds"
FAILS = "fails"
OUT = "out-of-hypothesis"
EXEMPT = "exempt"
SKIPPED = "skipped"
VIOLATION = "violation"

#: default grid horizons: deep enough to be convincing, minutes at desk scale
DEFAULT_N_MAX_A1 = 2000
DEFAULT_N_MAX_GENERAL = 1200

#: expected largest-part distribution of Q_{d-N}^(1,-) at n = 5d-5N+16
ANCHOR_MID_DISTRIBUTION = (1, 4, 5, 6, 5, 3, 2, 1, 1, 1)
#: per-coordinate caps at n = 7d+13 (variance below these caps is allowed)
ANCHOR_TOP_DISTRIBUTION = (1, 7, 12, 20, 16, 18, 10, 10, 5, 5, 2, 2, 1, 1)
ANCHOR_TOP_TOTAL = 110

#: the ten closed-form differences x_i - y_i for i = 3..12
XY_DIFFERENCE_FORMS = (
    lambda d, N: d - 2 * N + 1,
    lambda d, N: d - 2 * N - 1,
    lambda d, N: 2 * d - 3 * N - 8,
    lambda d, N: d - 3 * N + 9,
    lambda d, N: d - 4 * N + 9,
    lambda d, N: d - 4 * N + 9,
    lambda d, N: 2 * d - 5 * N + 6,
    lambda d, N: 2 * d - 5 * N,
    lambda d, N: 2 * d - 6 * N + 16,
    lambda d, N: d - 6 * N + 17,
)


@dataclass(frozen=True)
class GridSpec:
    """A finite parameter grid plus evaluation policy.

    Unused dimensions may be left at their defaults; n ranges are always
    inclusive.  ``evaluate_out_of_hypothesis`` controls whether cells
    outside a statement's bounds are computed (they are labeled
    out-of-hypothesis either way).
    """

    a_values: tuple[int, ...] = (1,)
    d_values: tuple[int, ...] = ()
    N_values: tuple[int, ...] = ()
    n_min: int = 1
    n_max: int = 0
    evaluate_out_of_hypothesis: bool = False

    def __post_init__(self):
        if self.n_max < self.n_min:
            raise RefusedInput(f"empty n range [{self.n_min}, {self.n_max}]")
        if not self.a_values and not self.d_values and not self.N_values:
            raise RefusedInput("empty grid")
        if min(self.a_values, default=1) < 1:
            raise RefusedInput(f"a must be >= 1, got {min(self.a_values)}")

    def n_values(self) -> range:
        return range(self.n_min, self.n_max + 1)


@dataclass
class CellRecord:
    params: dict
    status: str
    value: int | None = None
    witness: dict | None = None


@dataclass
class VerificationReport:
    cmd: str
    records: list[CellRecord] = field(default_factory=list)

    @property
    def summary(self) -> dict[str, int]:
        tally: dict[str, int] = {}
        for rec in self.records:
            tally[rec.status] = tally.get(rec.status, 0) + 1
        return tally

    def failures(self) -> list[CellRecord]:
        return [r for r in self.records if r.status == FAILS]

    @property
    def ok(self) -> bool:
        return not self.failures()


def n_hat(a: int, n: int) -> int:
    """Least nonnegative integer with a | (n + n_hat)."""
    if a < 1:
        raise RefusedInput(f"a must be >= 1, got {a}")
    return (-n) % a


def _row(report: VerificationReport, base: dict, n_values, lhs, rhs,
         names: tuple[str, str] | None = None, hyp=None, exempt: int | None = None,
         evaluate_out: bool = False, equal: bool = False,
         violations_only: bool = False) -> None:
    """Append one grid row's records: ``lhs(n)`` against ``rhs(n)`` per n.

    ``lhs(n) >= rhs(n)`` (``==`` if ``equal``) is asserted where ``hyp(n)``
    holds (everywhere if ``hyp`` is None), except at ``n == exempt``; other
    cells are evaluated only if ``evaluate_out``.  The value is lhs - rhs,
    and a failing cell's witness is ``{names[0]: lhs, names[1]: rhs}``.
    With ``violations_only`` just the cells with lhs < rhs are kept, as
    violation records, witnessed if ``names`` is given.

    The last cell is evaluated first: every index map here is
    non-decreasing in n, so each table the row reads is built once, at the
    row's horizon, and every other cell is a lookup.
    """
    row = []
    for n in reversed(n_values):
        in_hyp = hyp is None or hyp(n)
        if not in_hyp and not evaluate_out:
            row.append(CellRecord({**base, "n": n}, OUT))
            continue
        left, right = lhs(n), rhs(n)
        value = left - right
        if violations_only:
            if value >= 0:
                continue
            status = VIOLATION
        elif not in_hyp:
            status = OUT
        elif n == exempt:
            status = EXEMPT
        elif (value == 0) if equal else (value >= 0):
            status = HOLDS
        else:
            status = FAILS
        witness = None
        if names and status in (FAILS, VIOLATION):
            witness = {names[0]: str(left), names[1]: str(right)}
        row.append(CellRecord({**base, "n": n}, status, value, witness))
    report.records.extend(reversed(row))


def check_shift(d: int, N: int, n: int) -> int:
    """q_d^(1)(n) - Q_{d-N}^(1,-)(n); nonnegative inside the shift regime."""
    if d - N + 3 < 3:
        raise RefusedInput(f"check_shift: d-N+3 = {d - N + 3} < 3")
    return q_count(1, d, n) - rho(s_set(d, N), n)


def verify_shift_range(spec: GridSpec) -> VerificationReport:
    """Evaluate the shift inequality over a (N, d, n) grid."""
    report = VerificationReport("verify-shift")
    for N in spec.N_values:
        for d in spec.d_values:
            if d - N + 3 < 3:
                for n in spec.n_values():
                    report.records.append(CellRecord(
                        {"N": N, "d": d, "n": n}, SKIPPED,
                        witness={"reason": f"modulus d-N+3 = {d - N + 3} < 3"}))
                continue
            S = s_set(d, N)
            regime = shift_regime(d, N)
            _row(report, {"N": N, "d": d}, spec.n_values(),
                 lambda n: q_count(1, d, n), lambda n: rho(S, n), ("q", "Q"),
                 hyp=lambda n: regime and n >= d + 2,
                 evaluate_out=spec.evaluate_out_of_hypothesis)
    report.records.sort(key=lambda r: (r.params["N"], r.params["d"], r.params["n"]))
    return report


def check_andrews_premises(S: ResidueClassSet, T: ResidueClassSet,
                           i_max: int) -> bool:
    """True iff T starts at 1 and element-wise S dominates T up to i_max."""
    if T.element(1) != 1:
        return False
    xs, ys = S.elements(), T.elements()
    return all(next(xs) >= next(ys) for _ in range(i_max))


def check_andrews(S: ResidueClassSet, T: ResidueClassSet,
                  n_max: int) -> VerificationReport:
    """Per-n check of rho(T; n) >= rho(S; n), the set-domination count bound."""
    report = VerificationReport("verify-andrews")
    _row(report, {}, range(n_max + 1), lambda n: rho(T, n), lambda n: rho(S, n),
         ("rho_T", "rho_S"))
    return report


def check_ceiling(a: int, d: int, n: int) -> bool:
    """q_d^(a)(n) >= q_{ceil(d/a)}^(1)(ceil(n/a)); asserted for n >= d+2a."""
    return q_count(a, d, n) >= q_count(1, math.ceil(d / a), math.ceil(n / a))


def verify_ceiling(spec: GridSpec) -> VerificationReport:
    report = VerificationReport("verify-ceiling")
    for a in spec.a_values:
        for d in spec.d_values:
            _row(report, {"a": a, "d": d}, spec.n_values(),
                 lambda n: q_count(a, d, n),
                 lambda n: q_count(1, math.ceil(d / a), math.ceil(n / a)),
                 ("lhs", "rhs"), hyp=lambda n: n >= d + 2 * a,
                 evaluate_out=spec.evaluate_out_of_hypothesis)
    return report


def check_a_to_1(a: int, d: int, n: int) -> bool:
    """Q_d^(a,-)(a*n) == Q_{(d+3)/a - 3}^(1,-)(n); requires a | (d+3)."""
    if (d + 3) % a != 0:
        raise RefusedInput(f"check_a_to_1: a={a} does not divide d+3={d + 3}")
    return big_q_minus(a, d, a * n) == big_q_minus(1, (d + 3) // a - 3, n)


def verify_a_to_1(spec: GridSpec) -> VerificationReport:
    report = VerificationReport("verify-a-to-1")
    for a in spec.a_values:
        for d in spec.d_values:
            if (d + 3) % a != 0:
                report.records.append(CellRecord(
                    {"a": a, "d": d}, SKIPPED,
                    witness={"reason": f"{a} does not divide d+3 = {d + 3}"}))
                continue
            if a >= d + 3:
                report.records.append(CellRecord(
                    {"a": a, "d": d}, SKIPPED,
                    witness={"reason": f"Q undefined for a = {a} >= d+3 = {d + 3}"}))
                continue
            _row(report, {"a": a, "d": d}, spec.n_values(),
                 lambda n: big_q_minus(a, d, a * n),
                 lambda n: big_q_minus(1, (d + 3) // a - 3, n),
                 ("lhs", "rhs"), equal=True)
    return report


def check_modified_st(a: int, S: ResidueClassSet, T: ResidueClassSet, n: int,
                      premise_horizon: int = 200) -> bool:
    """rho(T; n + n_hat(a, n)) >= rho(S; n), for T starting at a with all
    elements divisible by a and S element-wise dominating T."""
    ys = T.elements()
    y1 = next(ys)
    if y1 != a:
        raise RefusedInput(f"modified-st premise: T starts at {y1}, expected {a}")
    xs = S.elements()
    y = y1
    for i in range(1, premise_horizon + 1):
        if i > 1:
            y = next(ys)
        x = next(xs)
        if y % a != 0 or x < y:
            raise RefusedInput(
                f"modified-st premise fails at index {i}: x={x}, y={y}, a={a}")
    return rho(T, n + n_hat(a, n)) >= rho(S, n)


def gen_kp_sets(a: int, d: int) -> tuple[ResidueClassSet, ResidueClassSet]:
    """The comparison pair behind the generalized Kang-Park reduction.

    S realizes Q_d^(a,-); T realizes Q^(a,-) at the smaller modulus
    d + d_hat - a where d_hat = (-d) mod a, so every element of T is
    divisible by a and is dominated by the matching element of S.
    """
    d_hat = n_hat(a, d)
    S = pm_set(a, d + 3, [d + 3 - a])
    m = d + d_hat - a
    if m < 3 or a >= m:
        raise RefusedInput(f"gen_kp_sets: degenerate T modulus {m} for a={a}, d={d}")
    T = pm_set(a, m, [m - a])
    return S, T


def verify_modified_st(a: int, d: int, n_max: int) -> VerificationReport:
    """check_modified_st over n = 1..n_max for the gen_kp_sets(a, d) pair."""
    report = VerificationReport("verify-modified-st")
    S, T = gen_kp_sets(a, d)
    _row(report, {"a": a, "d": d}, range(1, n_max + 1),
         lambda n: rho(T, n + n_hat(a, n)), lambda n: rho(S, n),
         ("rho_T", "rho_S"))
    return report


def gen_kp_in_hypothesis(a: int, d: int) -> bool:
    return a >= 1 and d >= 1 and math.ceil(d / a) >= 105


def _verify_gen(cmd: str, big_q_fn, exempt: int | None, a: int, d: int,
                n_max: int, evaluate_out: bool) -> VerificationReport:
    report = VerificationReport(cmd)
    in_hyp = gen_kp_in_hypothesis(a, d)
    _row(report, {"a": a, "d": d}, range(1, n_max + 1),
         lambda n: q_count(a, d, n), lambda n: big_q_fn(a, d, n), ("q", "Q"),
         hyp=lambda n: in_hyp, exempt=exempt, evaluate_out=evaluate_out)
    return report


def verify_gen_kp(a: int, d: int, n_max: int,
                  evaluate_out: bool = False) -> VerificationReport:
    """delta_minus(a, d, n) >= 0 for n <= n_max, with the single exempt
    cell n = d+a+3 when d == -3 (mod a) (its value is recorded, not asserted)."""
    exempt = d + a + 3 if n_hat(a, d + 3) == 0 else None
    return _verify_gen("verify-gen-kp", big_q_minus, exempt,
                       a, d, n_max, evaluate_out)


def verify_gen_dkst(a: int, d: int, n_max: int,
                    evaluate_out: bool = False) -> VerificationReport:
    """delta_minus_minus(a, d, n) >= 0 for n <= n_max; no exempt cell."""
    return _verify_gen("verify-gen-dkst", big_q_minus_minus, None,
                       a, d, n_max, evaluate_out)


def verify_smalln_anchors(d: int, N: int,
                          evaluate_out: bool = False) -> VerificationReport:
    """The three small-n anchor values of Q_{d-N}^(1,-) used to bridge
    d+2 <= n <= 7d+13, plus the largest-part distributions behind them."""
    report = VerificationReport("verify-anchors")
    hyp = shift_regime(d, N)
    base = {"d": d, "N": N}
    if not hyp and not evaluate_out:
        report.records.append(CellRecord(base, OUT))
        return report
    S = s_set(d, N)
    ood = lambda status: status if hyp else OUT

    n1 = 2 * d - 2 * N + 4
    v1 = rho(S, n1)
    report.records.append(CellRecord(
        {**base, "anchor": "2d-2N+4", "n": n1},
        ood(HOLDS if v1 == 2 else FAILS), v1,
        None if v1 == 2 else {"expected": "2"}))

    n2 = 5 * d - 5 * N + 16
    dist2 = tuple(largest_part_counts(S, n2, 10))
    v2 = rho(S, n2)
    ok2 = v2 == 29 and dist2 == ANCHOR_MID_DISTRIBUTION
    report.records.append(CellRecord(
        {**base, "anchor": "5d-5N+16", "n": n2},
        ood(HOLDS if ok2 else FAILS), v2,
        None if ok2 else {"expected": "29", "expected_distribution":
                          list(ANCHOR_MID_DISTRIBUTION),
                          "distribution": list(dist2)}))

    n3 = 7 * d + 13
    dist3 = tuple(largest_part_counts(S, n3, 14))
    v3 = rho(S, n3)
    ok3 = (v3 <= ANCHOR_TOP_TOTAL
           and all(c <= cap for c, cap in zip(dist3, ANCHOR_TOP_DISTRIBUTION)))
    report.records.append(CellRecord(
        {**base, "anchor": "7d+13", "n": n3},
        ood(HOLDS if ok3 else FAILS), v3,
        None if ok3 else {"cap": str(ANCHOR_TOP_TOTAL),
                          "distribution_caps": list(ANCHOR_TOP_DISTRIBUTION),
                          "distribution": list(dist3)}))
    return report


def xy_in_hypothesis(d: int, N: int) -> bool:
    return N >= 2 and d >= max(31, 6 * N - 17)


def xy_difference_report(d: int, N: int, i_horizon: int = 200) -> VerificationReport:
    """The ten closed-form differences, the period-10 relation, and the
    branch minimum min(d-2N-1, d-6N+17) of x_i - y_i over i >= 3."""
    if not xy_in_hypothesis(d, N):
        raise RefusedInput(f"xy differences: need N >= 2 and "
                           f"d >= max(31, 6N-17), got d={d}, N={N}")
    report = VerificationReport("verify-xy-diff")
    base = {"d": d, "N": N}
    diff = lambda i: x_closed(d, N, i) - y_closed(d, i)

    for i in range(3, 13):
        got = diff(i)
        want = XY_DIFFERENCE_FORMS[i - 3](d, N)
        report.records.append(CellRecord(
            {**base, "check": f"difference_i{i}"},
            HOLDS if got == want else FAILS, got,
            None if got == want else {"expected": str(want)}))

    period_ok = all(diff(i + 10) == diff(i) + (d - 5 * N + 15)
                    for i in range(3, 51))
    report.records.append(CellRecord(
        {**base, "check": "period_mod_10"},
        HOLDS if period_ok else FAILS, d - 5 * N + 15))

    got_min = min(diff(i) for i in range(3, i_horizon + 1))
    want_min = min(d - 2 * N - 1, d - 6 * N + 17)
    branch = d - 2 * N - 1 if N <= 4 else d - 6 * N + 17
    ok = got_min == want_min == branch and got_min >= 0
    report.records.append(CellRecord(
        {**base, "check": "branch_minimum"},
        HOLDS if ok else FAILS, got_min,
        None if ok else {"expected": str(want_min), "branch": str(branch)}))
    return report


def check_xy_differences(d: int, N: int, i_horizon: int = 200) -> bool:
    return xy_difference_report(d, N, i_horizon).ok


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
        tables[s] = [rho(T, n) for n in range(n_max + 1)]
    for s_lo in range(1, r + 1):
        for s_hi in range(s_lo, r + 1):
            slack = [hi - lo for lo, hi in zip(tables[s_lo], tables[s_hi])]
            worst = min(slack)
            witness = None
            if worst < 0:
                witness = {"n": next(i for i, v in enumerate(slack) if v < 0)}
            report.records.append(CellRecord(
                {"d": d, "s_lo": s_lo, "s_hi": s_hi, "n_max": n_max},
                HOLDS if worst >= 0 else FAILS, worst, witness))
    return report


#: the Q-side counter each search kind subtracts from q_count(a, d, n)
_SEARCH_KINDS = {
    "delta": big_q,
    "delta_m": big_q_minus,
    "delta_mm": big_q_minus_minus,
}


def search_counterexamples(kind: str, spec: GridSpec) -> VerificationReport:
    """Exhaustively list the cells with a negative value, in scan order.

    ``kind`` is one of delta, delta_m, delta_mm (scanning (a, d, n)) or
    shift (scanning (N, d, n) as in check_shift).  The report contains one
    record per violation; searching is informational, never a failure.
    """
    report = VerificationReport(f"search-{kind}")

    if kind == "shift":
        for N in spec.N_values:
            for d in spec.d_values:
                if d - N + 3 < 3:
                    continue
                S = s_set(d, N)
                _row(report, {"N": N, "d": d}, spec.n_values(),
                     lambda n: q_count(1, d, n), lambda n: rho(S, n),
                     violations_only=True)
        return report

    if kind not in _SEARCH_KINDS:
        raise RefusedInput(f"unknown search kind {kind!r}")
    big_q_fn = _SEARCH_KINDS[kind]
    for a in spec.a_values:
        for d in spec.d_values:
            if a >= d + 3:
                continue
            _row(report, {"kind": kind, "a": a, "d": d}, spec.n_values(),
                 lambda n: q_count(a, d, n), lambda n: big_q_fn(a, d, n),
                 ("q", "Q"), violations_only=True)
    return report
