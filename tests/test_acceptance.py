"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion is an exact integer comparison (tolerance zero); the
stated runtime budgets are asserted as well.  Run with ``pytest -s``
to see the per-criterion lines as they complete.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager

from alder.counting import column, g_name, q_name, rho, s_set, t_set
from alder.inequalities import EXEMPT, HOLDS, OUT, GridSpec
from alder.lemmas import verify_smalln_anchors, xy_difference_report
from alder.injection import in_hypothesis, verify_injection
from conftest import child_env
from oracles import (Report, delta, pm_set, q_brute, q_lower_bound, rho_brute,
                     search_counterexamples, verify)


@contextmanager
def criterion(num: int, budget_s: float | None, desc: str):
    """Time a criterion body; budget_s is asserted when the spec states one."""
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL {desc}")
        raise
    elapsed = time.monotonic() - started
    if budget_s is None:
        print(f"ACCEPTANCE {num:2d} PASS {desc} ({elapsed:.1f}s)")
        return
    status = "PASS" if elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status} {desc} ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def test_criterion_01_classical_identities():
    with criterion(1, 10, "Euler / Rogers-Ramanujan / Schur deltas, n <= 200"):
        for n in range(201):
            assert delta(1, 1, n) == 0
            assert delta(1, 2, n) == 0
            assert delta(2, 2, n) == 0
            assert delta(1, 3, n) >= 0


def test_criterion_02_small_n_anchors():
    with criterion(2, 5, "anchor values of Q_61^(1,-) at d=63, N=2"):
        report = Report.of(verify_smalln_anchors(63, 2))
        assert report.ok
        S = s_set(63, 2)
        assert rho(S, 126) == 2
        assert rho(S, 321) == 29
        assert rho(S, 454) <= 110


def test_criterion_03_difference_table():
    with criterion(3, 1, "x_i - y_i closed forms and branch minimum"):
        for d, N in [(31, 2), (63, 2), (63, 5), (105, 4), (200, 8)]:
            report = Report.of(xy_difference_report(d, N))
            assert report.ok
            branch = d - 2 * N - 1 if N <= 4 else d - 6 * N + 17
            assert report.records[-1].value == \
                min(d - 2 * N - 1, d - 6 * N + 17) == branch


def test_criterion_04_injection_verification():
    cells = [(63, 2, n) for n in range(455, 461)] + \
            [(63, 3, n) for n in range(455, 461)] + \
            [(105, 4, n) for n in range(749, 753)]
    with criterion(4, 120, f"injection checks on {len(cells)} cells "
                           f"(S2 walked, S1 by construction)"):
        for d, N, n in cells:
            (rec,) = Report("inject", [verify_injection(d, N, n)]).records
            assert in_hypothesis(d, N, n) and rec.status == "holds", (d, N, n)
            failed = rec.witness["failed_checks"]
            assert "images_valid" not in failed
            assert "injective" not in failed
            assert "piece_separation" not in failed
            assert "rho_dominates" not in failed
            assert "p2_lower_bound" not in failed


def shift_grid_pairs():
    for N in (2, 3, 4, 5):
        D = max(63, 46 * N - 79)
        for d in (D, D + 1, D + 2):
            yield N, d


def test_criterion_05_shift_grid():
    with criterion(5, 300, "shift inequality, N in 2..5, 3 d each, n <= 2000"):
        for N, d in shift_grid_pairs():
            spec = GridSpec(N_values=(N,), d_values=(d,), n_min=d + 2, n_max=2000)
            report = verify("shift", spec)
            assert report.summary == {HOLDS: 2000 - (d + 2) + 1}, (N, d)


def test_criterion_06_littlelemon_grid():
    with criterion(6, 180, "level-4 shift, d in 105..110, n in 107..2000"):
        spec = GridSpec(N_values=(4,), d_values=tuple(range(105, 111)),
                        n_min=107, n_max=2000)
        report = verify("shift", spec)
        assert report.ok
        assert report.summary[HOLDS] == sum(2000 - (d + 2) + 1
                                            for d in range(105, 111))
        # cells below d+2 for d > 105 are labeled, never failed
        assert report.summary.get(OUT, 0) == sum(d + 2 - 107
                                                 for d in range(105, 111))


def test_criterion_07_gen_kp():
    with criterion(7, None, "generalized Kang-Park: (4,417) n<=1000, (3,315) n<=800"):
        # oracle-confirm the exceptional cell before trusting the grid
        assert q_brute(4, 417, 424, limit=424) == 1
        assert rho_brute(pm_set(4, 420, [416]), 424, limit=424) == 2
        report = verify("gen-kp", GridSpec(a_values=(4,), d_values=(417,), n_max=1000))
        assert report.ok
        statuses = {rec.params["n"]: rec for rec in report.records}
        assert statuses[424].status == EXEMPT and statuses[424].value == -1
        assert all(rec.status == HOLDS for n, rec in statuses.items() if n != 424)

        report = verify("gen-kp", GridSpec(a_values=(3,), d_values=(315,), n_max=800))
        assert report.ok
        assert all(rec.value >= 0 for rec in report.records)


def test_criterion_08_gen_dkst():
    with criterion(8, None, "two-exclusion variant: (4,417), (2,212), (3,315), n<=1000"):
        for a, d in [(4, 417), (2, 212), (3, 315)]:
            report = verify("gen-dkst", GridSpec(a_values=(a,), d_values=(d,),
                                                 n_max=1000))
            assert report.ok and EXEMPT not in report.summary, (a, d)
            assert report.summary[HOLDS] == 1000
            assert delta(a, d, d + a + 3, minus=2) >= 0  # former exception


def test_criterion_09_kang_park_search():
    with criterion(9, None, "negative deltas exist for a=2: search d<=10, n<=100"):
        assert q_brute(2, 3, 6) == 1
        assert rho_brute(pm_set(2, 6), 6) == 2
        spec = GridSpec(a_values=(2,), d_values=tuple(range(1, 11)), n_max=100)
        report = search_counterexamples("delta", spec)
        assert report.records
        hits = {(rec.params["d"], rec.params["n"]): rec.value
                for rec in report.records}
        assert hits[(3, 6)] == -1


def test_criterion_10_oracle_equivalence():
    with criterion(10, 60, "q table == q_brute, rho == enumeration, plus spot checks"):
        for a in range(1, 9):
            for d in range(1, 9):
                q = column(q_name(a, d), 40)
                for n in range(41):
                    assert q[n] == q_brute(a, d, n)
                if a < d + 3:
                    sets = [pm_set(a, d + 3),
                            pm_set(a, d + 3, [d + 3 - a]),
                            pm_set(a, d + 3, {a, d + 3 - a})]
                    for A in sets:
                        for n in range(41):
                            assert rho(A, n) == rho_brute(A, n)
        rng = random.Random(20260811)
        for _ in range(60):
            a, d, n = rng.randint(1, 8), rng.randint(2, 12), rng.randint(41, 90)
            assert column(q_name(a, d), n)[n] == q_brute(a, d, n, limit=n)
        for _ in range(40):
            a, d, n = rng.randint(1, 6), rng.randint(1, 10), rng.randint(41, 80)
            if a >= d + 3:
                a = 1
            A = pm_set(a, d + 3, [d + 3 - a] if d + 3 - a != a else [])
            assert rho(A, n) == rho_brute(A, n, limit=n)


def test_criterion_11_bound_chain():
    with criterion(11, None, "q >= G >= rho(T5) and q >= floor bound, d in {63,105}"):
        for d in (63, 105):
            n_max = 5 * d + 100
            q, g, t5 = (column(name, n_max)
                        for name in (q_name(1, d), g_name(d), t_set(5, d)))
            for n in range(5 * d, n_max + 1):
                assert q[n] >= g[n] >= t5[n], (d, n)
                assert q[n] >= q_lower_bound(d, n), (d, n)


def test_criterion_12_report_determinism():
    with criterion(12, None, "criterion-5 and inject reports byte-identical "
                             "at jobs 1 vs 8"):
        runs = [["verify", "shift", "--N", str(N), "--d", f"{d_lo}..{d_lo + 2}",
                 "--n-min", str(d_lo + 2), "--n-max", "2000"]
                for N, d_lo in [(2, 63), (3, 63), (4, 105), (5, 151)]]
        # inject is the command that fans its cells out over worker processes
        runs.append(["inject", "--d", "63", "--N", "3", "--n", "455..600"])
        for argv in runs:
            argv = [sys.executable, "-m", "alder", *argv]
            one = subprocess.run([*argv, "--jobs", "1"], capture_output=True,
                                 check=True, env=child_env())
            eight = subprocess.run([*argv, "--jobs", "8"], capture_output=True,
                                   check=True, env=child_env())
            assert one.stdout == eight.stdout and one.stdout, argv
