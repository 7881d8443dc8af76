"""The finite lemma checks behind the injection proof of the shift inequality.

Verified by their own functions, since they are not n-indexed:

  * anchors:     the three small-n values Q_{d-N}^(1,-)(2d-2N+4) = 2,
                 Q(5d-5N+16) = 29 with its largest-part distribution,
                 Q(7d+13) <= 110 with a per-coordinate distribution cap.
  * xy-diff:     the ten closed-form differences x_i - y_i (i = 3..12),
                 their period-10 growth, and the branch minimum
                 min(d-2N-1, d-6N+17).
  * t-monotone:  rho(T(s,d); n) weakly increasing in s for s <= r_of(d).
"""

from __future__ import annotations

from .counting import (column, largest_part_counts, r_of, rho, s_set, shift_regime, t_set,
                       x_closed, y_closed)
from .report import FAILS, HOLDS, OUT, RefusedInput, cell, check_n

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


def verify_smalln_anchors(d: int, N: int, evaluate_out: bool = False) -> tuple[str, list]:
    """The three small-n anchor values of Q_{d-N}^(1,-) used to bridge
    d+2 <= n <= 7d+13, plus the largest-part distributions behind them."""
    hyp = shift_regime(d, N)
    base = {"d": d, "N": N}
    if not hyp and not evaluate_out:
        return "verify-anchors", [cell(base, OUT)]
    blocks = []
    S = s_set(d, N)
    n3 = 7 * d + 13
    rho(S, n3)  # the largest anchor first: S's table is built once, at its horizon

    def anchor(name: str, n: int, value: int, ok: bool, witness: dict) -> None:
        blocks.append(cell({**base, "anchor": name, "n": n},
                           (HOLDS if ok else FAILS) if hyp else OUT, value,
                           None if ok else witness))

    n1 = 2 * d - 2 * N + 4
    v1 = rho(S, n1)
    anchor("2d-2N+4", n1, v1, v1 == 2, {"expected": "2"})

    n2 = 5 * d - 5 * N + 16
    dist2, dist3 = largest_part_counts(S, (n2, n3), len(ANCHOR_TOP_DISTRIBUTION))
    dist2 = dist2[:len(ANCHOR_MID_DISTRIBUTION)]
    v2 = rho(S, n2)
    anchor("5d-5N+16", n2, v2, v2 == 29 and tuple(dist2) == ANCHOR_MID_DISTRIBUTION,
           {"expected": "29", "expected_distribution": list(ANCHOR_MID_DISTRIBUTION),
            "distribution": dist2})

    v3 = rho(S, n3)
    anchor("7d+13", n3, v3, v3 <= ANCHOR_TOP_TOTAL and all(
        c <= cap for c, cap in zip(dist3, ANCHOR_TOP_DISTRIBUTION)),
        {"cap": str(ANCHOR_TOP_TOTAL), "distribution_caps":
         list(ANCHOR_TOP_DISTRIBUTION), "distribution": dist3})
    return "verify-anchors", blocks


def xy_difference_report(d: int, N: int) -> tuple[str, list]:
    """The ten closed-form differences, the period-10 relation, and the
    branch minimum min(d-2N-1, d-6N+17) of x_i - y_i over i >= 3."""
    if not (N >= 2 and d >= max(31, 6 * N - 17)):
        raise RefusedInput(f"xy differences: need N >= 2 and "
                           f"d >= max(31, 6N-17), got d={d}, N={N}")
    blocks, base = [], {"d": d, "N": N}
    diff = lambda i: x_closed(d, N, i) - y_closed(d, i)

    for i, (u, v, w) in enumerate(XY_DIFFERENCE_FORMS, 3):
        got, want = diff(i), u * d + v * N + w
        blocks.append(cell({**base, "check": f"difference_i{i}"},
                           HOLDS if got == want else FAILS, got,
                           None if got == want else {"expected": str(want)}))

    period_ok = all(diff(i + 10) == diff(i) + (d - 5 * N + 15)
                    for i in range(3, 51))
    blocks.append(cell({**base, "check": "period_mod_10"},
                       HOLDS if period_ok else FAILS, d - 5 * N + 15))

    got_min = min(diff(i) for i in range(3, 201))
    want_min = min(d - 2 * N - 1, d - 6 * N + 17)
    branch = d - 2 * N - 1 if N <= 4 else d - 6 * N + 17
    ok = got_min == want_min == branch and got_min >= 0
    blocks.append(cell({**base, "check": "branch_minimum"}, HOLDS if ok else FAILS, got_min,
                       None if ok else {"expected": str(want_min), "branch": str(branch)}))
    return "verify-xy-diff", blocks


def verify_t_monotone(d: int, n_max: int) -> tuple[str, list]:
    """rho(T(s_lo, d); n) <= rho(T(s_hi, d); n) for 1 <= s_lo <= s_hi <= r_of(d).

    One record per (s_lo, s_hi) pair; the value is the minimum slack over
    n <= n_max and a failing pair carries the first violating n."""
    blocks, r = [], r_of(d)
    check_n(n_max)  # a refusal before any work; each table is one build at n_max
    tables = {s: column(t_set(s, d), n_max)[:n_max + 1] for s in range(1, r + 1)}
    for s_lo in range(1, r + 1):
        for s_hi in range(s_lo, r + 1):
            slack = [hi - lo for lo, hi in zip(tables[s_lo], tables[s_hi])]
            worst = min(slack)
            witness = None
            if worst < 0:
                witness = {"n": next(i for i, v in enumerate(slack) if v < 0)}
            blocks.append(cell({"d": d, "s_lo": s_lo, "s_hi": s_hi, "n_max": n_max},
                               HOLDS if worst >= 0 else FAILS, worst, witness))
    return "verify-t-monotone", blocks
