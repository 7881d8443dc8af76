"""Grid statements, the comparison lemmas, and counterexample search."""

import collections
import itertools
import math

import pytest

from alder import counting, inequalities, lemmas
from alder.counting import column, q_name, rho, s_set, t_set
from alder.inequalities import (EXEMPT, FAILS, HOLDS, OUT, SKIPPED,
                                STATEMENTS, GridSpec, n_hat)
from alder.lemmas import verify_smalln_anchors, verify_t_monotone, xy_difference_report
from alder.report import RefusedInput
from oracles import (PREMISE_HORIZON, Report, big_q, check_andrews, dominates,
                     first_elements, gen_kp_sets, pm_set, positive_integers,
                     q_brute, rho_brute, search_counterexamples, verify)


def verify_pair(name, a, d, n_max, **spec):
    """``verify(name, ...)`` over n = 1..n_max at the single pair (a, d)."""
    return verify(name, GridSpec(a_values=(a,), d_values=(d,), n_max=n_max, **spec))


def verify_shift(N, d, n_min, n_max, **spec):
    """``verify("shift", ...)`` over n = n_min..n_max at the single pair (N, d)."""
    return verify("shift", GridSpec(N_values=(N,), d_values=(d,), n_min=n_min,
                                    n_max=n_max, **spec))


class TestNHat:
    @pytest.mark.parametrize("a,n,expected", [(4, 7, 1), (1, 9, 0), (5, 10, 0),
                                              (3, 1, 2)])
    def test_examples(self, a, n, expected):
        assert n_hat(a, n) == expected


class TestCheckShift:
    def test_at_case1_anchor(self):
        (rec,) = verify_shift(2, 63, 126, 126).records
        assert rec.status == HOLDS
        assert rec.value == column(q_name(1, 63), 126)[126] - 2 >= 0

    def test_littlelemon_start(self):
        (rec,) = verify_shift(4, 105, 107, 107).records
        assert rec.status == HOLDS and rec.value >= 0

    def test_n1_both_sides_one(self):
        (rec,) = verify_shift(2, 63, 1, 1, evaluate_out_of_hypothesis=True).records
        assert rec.status == OUT and rec.value == 0

    def test_rejects_tiny_modulus(self):
        # d-N+3 = 2: no such residue set; the grid has always skipped the cell
        (rec,) = verify_shift(4, 3, 10, 10).records
        assert rec.status == SKIPPED and rec.value is None
        assert rec.witness == {"reason": "modulus d-N+3 = 2 < 3"}


class TestVerifyShiftRange:
    def test_small_in_hypothesis_grid(self):
        spec = GridSpec(d_values=(63, 64), N_values=(2,), n_min=66, n_max=400)
        report = verify("shift", spec)
        assert report.ok
        assert report.summary == {HOLDS: 2 * 335}

    def test_out_of_hypothesis_is_labeled_not_failed(self):
        spec = GridSpec(d_values=(12,), N_values=(4,), n_min=50, n_max=50,
                        evaluate_out_of_hypothesis=True)
        report = verify("shift", spec)
        (rec,) = report.records
        assert rec.status == OUT
        assert report.ok

    def test_unevaluated_out_of_hypothesis_has_no_value(self):
        spec = GridSpec(d_values=(63,), N_values=(2,), n_min=1, n_max=5)
        report = verify("shift", spec)
        assert all(r.status == OUT and r.value is None for r in report.records)

    def test_invalid_cells_skipped(self):
        spec = GridSpec(d_values=(3,), N_values=(4,), n_min=1, n_max=3)
        report = verify("shift", spec)
        assert {r.status for r in report.records} == {SKIPPED}
        assert [r.params["n"] for r in report.records] == [1, 2, 3]

    def test_agrees_with_enumeration(self):
        from alder.maps import enumerate_partitions
        d, N, n = 63, 2, 130
        assert verify_shift(N, d, n, n).records[0].value == \
            column(q_name(1, d), n)[n] - len(list(enumerate_partitions(s_set(d, N), n)))


class TestAndrews:
    def test_equality_at_n2_satisfies_premises(self):
        # x_1 = y_1 = 1 and x_2 = y_2 = d+2 at N = 2; indices >= 3 dominate
        assert dominates(s_set(63, 2), t_set(5, 63), 200)

    def test_premises_fail_only_at_i2_for_n3(self):
        S, T = s_set(63, 3), t_set(5, 63)
        assert not dominates(S, T, 200)
        xs, ys = first_elements(S, 200), first_elements(T, 200)
        failing = [i for i in range(1, 201) if xs[i - 1] < ys[i - 1]]
        assert failing == [2]   # x_2 = 64 < 65 = y_2

    def test_unrestricted_dominates(self):
        T = positive_integers()
        S = s_set(63, 2)
        assert dominates(S, T, 100)
        assert check_andrews(S, T, 80).ok

    def test_identity_pair(self):
        T = t_set(5, 63)
        assert dominates(T, T, 100)
        report = check_andrews(T, T, 60)
        assert report.ok and all(r.value == 0 for r in report.records)


class TestCeiling:
    def test_example(self):
        assert column(q_name(2, 5), 9)[9] == 2 and column(q_name(1, 3), 5)[5] == 2
        assert verify_pair("ceiling", 2, 5, 9, n_min=9).summary == {HOLDS: 1}

    def test_a1_reduces_to_identity(self):
        assert all(verify_pair("ceiling", 1, d, d + 39, n_min=d + 2).summary == {HOLDS: 38}
                   for d in (1, 5, 20))

    def test_grid(self):
        spec = GridSpec(a_values=(1, 2, 3, 4), d_values=tuple(range(1, 41)),
                        n_min=1, n_max=300)
        report = verify("ceiling", spec)
        assert report.ok
        assert report.summary[HOLDS] > 0 and FAILS not in report.summary


class TestAToOne:
    def test_example(self):
        assert big_q(2, 5, 10, minus=1) == 2 == big_q(1, 1, 5, minus=1)
        assert verify_pair("a-to-1", 2, 5, 5, n_min=5).summary == {HOLDS: 1}

    def test_a1_identity(self):
        assert all(verify_pair("a-to-1", 1, d, 59, n_min=0).summary == {HOLDS: 60}
                   for d in (1, 4, 9))

    def test_rejects_nondivisor(self):
        # the grid has always skipped the whole (a, d) pair, with one record
        (rec,) = verify_pair("a-to-1", 2, 4, 10, n_min=10).records
        assert rec.status == SKIPPED and rec.params == {"a": 2, "d": 4}
        assert rec.witness == {"reason": "2 does not divide d+3 = 7"}

    def test_grid(self):
        for a in (2, 3, 4):
            d_values = tuple(a * k - 3 for k in range(2, 31))
            spec = GridSpec(a_values=(a,), d_values=d_values, n_min=0, n_max=200)
            assert verify("a-to-1", spec).ok

    def test_degenerate_cells_skipped_not_fatal(self):
        # a = d+3 leaves no meaningful +-a residue pair; the grid skips it
        spec = GridSpec(a_values=(2, 3, 4), d_values=tuple(range(1, 10)),
                        n_min=0, n_max=30)
        report = verify("a-to-1", spec)
        assert report.ok
        skipped = [r for r in report.records if r.status == SKIPPED]
        assert {"a": 4, "d": 1} in [r.params for r in skipped]


class TestModifiedSt:
    def test_zero_shift_when_divisible(self):
        S, T = gen_kp_sets(4, 417)
        assert n_hat(4, 8) == 0
        assert verify_pair("modified-st", 4, 417, 8, n_min=8).summary == {HOLDS: 1}

    def test_gen_kp_pair_structure(self):
        S, T = gen_kp_sets(4, 417)
        # d_hat = 3, so T has modulus 417+3-4 = 416 and starts at 4
        xs, ys = first_elements(S, 200), first_elements(T, 200)
        assert xs[0] == ys[0] == 4
        for i in range(1, 201):
            x, y = xs[i - 1], ys[i - 1]
            assert y % 4 == 0 and x >= y
        assert xs[1] == 420 + 4 and ys[1] == 416 + 4

    def test_closed_form_premise_matches_the_reference(self):
        # the row's premise, T's modulus m = d + n_hat(a, d) - a other than 2a,
        # against the element-wise check on the two sets, and each refusal
        # against the reference's, word for word
        for a in range(1, 31):
            for d in range(1, 301):
                try:
                    S, T = gen_kp_sets(a, d)
                except RefusedInput as exc:
                    with pytest.raises(RefusedInput) as refused:
                        inequalities._modified_st_row(a, d)
                    assert str(refused.value) == str(exc), (a, d)
                    continue
                premise = dominates(S, T, PREMISE_HORIZON, a)
                assert inequalities._modified_st_row(a, d).first == (0 if premise else None), \
                    (a, d)

    def test_premise_failure_rejected(self):
        bad_T = pm_set(2, 10)       # starts at 2, fine; but use a = 4
        S = pm_set(4, 20)
        assert not dominates(S, bad_T, 200, a=4)
        assert dominates(S, pm_set(4, 12), 200, a=4)

    def test_grid(self):
        report = verify_pair("modified-st", 4, 417, 1500)
        assert report.ok
        report = verify_pair("modified-st", 3, 315, 800)
        assert report.ok

    def test_failed_premise_is_out_of_hypothesis(self):
        # a pair is out of hypothesis iff its premise fails; on this sweep
        # that is exactly when T's modulus d + d_hat - a is 2a, where +-a
        # collapses to one class and the exclusion m - a = a removes T's
        # first element.  Such cells are evaluated only on request.
        failed = []
        grid = verify("modified-st", GridSpec(a_values=tuple(range(1, 13)),
                                              d_values=tuple(range(1, 400)), n_min=1, n_max=1))
        for rec in grid.records:
            a, d = rec.params["a"], rec.params["d"]
            try:
                S, T = gen_kp_sets(a, d)
            except RefusedInput:
                continue
            assert rec.params["n"] == 1
            assert (rec.status == OUT) == (not dominates(S, T, 200, a)), (a, d)
            if rec.status == OUT:
                failed.append((a, d))
                assert d + n_hat(a, d) - a == 2 * a, (a, d)
        assert len(failed) == 77
        report = verify_pair("modified-st", 3, 9, 80)
        assert report.ok and report.summary == {OUT: 80}
        forced = verify_pair("modified-st", 3, 9, 80, evaluate_out_of_hypothesis=True)
        assert forced.ok and forced.summary == {OUT: 80}
        assert min(r.value for r in forced.records) < 0


class TestGenKp:
    def test_exceptional_cell_and_rest(self):
        report = verify_pair("gen-kp", 4, 417, 1000)
        assert report.ok
        by_status = {}
        for rec in report.records:
            by_status.setdefault(rec.status, []).append(rec)
        assert len(by_status[EXEMPT]) == 1
        exempt = by_status[EXEMPT][0]
        assert exempt.params["n"] == 424 and exempt.value == -1
        assert FAILS not in by_status

    def test_exempt_value_oracle_confirmed(self):
        assert q_brute(4, 417, 424, limit=424) == 1
        assert rho_brute(pm_set(4, 420, [416]), 424, limit=424) == 2

    def test_a3_no_failures_and_exempt_nonnegative(self):
        report = verify_pair("gen-kp", 3, 315, 500)
        assert report.ok
        exempts = [r for r in report.records if r.status == EXEMPT]
        assert [r.params["n"] for r in exempts] == [321]
        assert exempts[0].value >= 0  # a <= 3 keeps even the exempt cell true

    def test_a1_no_failures(self):
        report = verify_pair("gen-kp", 1, 105, 300)
        assert report.ok
        assert sum(1 for r in report.records if r.status == EXEMPT) == 1

    def test_exemption_only_when_d_is_minus_3_mod_a(self):
        report = verify_pair("gen-kp", 4, 418, 500)   # 418 + 3 = 421 not div by 4
        assert EXEMPT not in report.summary
        assert report.ok

    def test_no_exempt_cell_below_d_plus_a_plus_3(self):
        report = verify_pair("gen-kp", 4, 417, 400)   # exempt cell would be n = 424
        assert EXEMPT not in report.summary
        assert report.ok

    def test_out_of_hypothesis_labeled(self):
        report = verify_pair("gen-kp", 4, 100, 50)    # ceil(100/4) = 25 < 105
        assert all(r.status == OUT for r in report.records)
        assert report.ok


class TestGenDkst:
    @pytest.mark.parametrize("a,d", [(4, 417), (2, 212), (3, 315)])
    def test_no_failures_no_exemptions(self, a, d):
        report = verify_pair("gen-dkst", a, d, 500)
        assert report.ok
        assert EXEMPT not in report.summary
        assert report.summary[HOLDS] == 500

    def test_small_n_cells_are_zero(self):
        report = verify_pair("gen-dkst", 4, 417, 3)
        assert all(r.value == 0 for r in report.records)


class TestAnchors:
    @pytest.mark.parametrize("d,N", [(63, 2), (105, 4), (200, 5)])
    def test_anchors_hold(self, d, N):
        report = Report.of(verify_smalln_anchors(d, N))
        assert report.ok
        values = {r.params["anchor"]: r.value for r in report.records}
        assert values["2d-2N+4"] == 2
        assert values["5d-5N+16"] == 29
        assert values["7d+13"] <= 110

    def test_out_of_hypothesis(self):
        report = Report.of(verify_smalln_anchors(40, 2))
        assert report.records[0].status == OUT

    def test_s_table_is_built_once_at_the_largest_anchor(self, monkeypatch):
        stores = []

        class Log(dict):
            def __setitem__(self, key, table):
                stores.append((key, len(table)))
                super().__setitem__(key, table)

        monkeypatch.setattr(counting, "_tables", Log())
        assert Report.of(verify_smalln_anchors(63, 2)).ok
        assert stores == [("rho.m64.r1,63.x63", 7 * 63 + 13 + 1)]


class TestXyDifferences:
    @pytest.mark.parametrize("d,N", [(31, 2), (63, 2), (63, 5), (105, 4), (200, 8)])
    def test_pass(self, d, N):
        assert Report.of(xy_difference_report(d, N)).ok

    def test_branch_minimum_values(self):
        rep = Report.of(xy_difference_report(63, 2))
        assert rep.records[-1].value == 58    # d-2N-1 branch (N <= 4)
        rep = Report.of(xy_difference_report(63, 5))
        assert rep.records[-1].value == 50    # d-6N+17 branch (N >= 5)

    def test_rejects_out_of_hypothesis(self):
        with pytest.raises(ValueError):
            xy_difference_report(30, 2)
        with pytest.raises(ValueError):
            xy_difference_report(31, 9)      # 6N-17 = 37 > 31


class TestTMonotone:
    def test_63(self):
        report = Report.of(verify_t_monotone(63, 200))
        assert report.ok
        assert len(report.records) == 21     # pairs with 1 <= lo <= hi <= 6

    def test_failing_pair_names_its_first_violating_n(self, monkeypatch):
        # rho(T(2, 7); n) patched 10 low at n = 4 and 20 low at n = 6
        real = lemmas.column

        def column(count, n):
            table = list(real(count, n))
            if count == t_set(2, 7):
                table[4] -= 10
                table[6] -= 20
            return table

        monkeypatch.setattr(lemmas, "column", column)
        failing = [r for r in Report.of(verify_t_monotone(7, 10)).records
                   if r.status != HOLDS]
        assert failing == [({"d": 7, "s_lo": 1, "s_hi": 2, "n_max": 10}, FAILS, -20,
                            {"n": 4})]


class TestSearch:
    def test_kang_park_observation(self):
        spec = GridSpec(a_values=(2,), d_values=tuple(range(1, 11)), n_max=100)
        report = search_counterexamples("delta", spec)
        cells = {(r.params["d"], r.params["n"]): r.value for r in report.records}
        assert cells
        assert cells[(3, 6)] == -1

    def test_classical_regimes_clean(self):
        spec = GridSpec(a_values=(1,), d_values=(1, 2, 3), n_max=200)
        assert not search_counterexamples("delta", spec).records

    def test_delta_m_clean_at_a1_in_hypothesis(self):
        spec = GridSpec(a_values=(1,), d_values=tuple(range(105, 111)), n_max=500)
        assert not search_counterexamples("delta_m", spec).records

    def test_delta_mm_clean_in_hypothesis(self):
        spec = GridSpec(a_values=(3,), d_values=tuple(range(315, 321)), n_max=800)
        assert not search_counterexamples("delta_mm", spec).records

    def test_delta_mm_clean_over_ceiling_window(self):
        # ceil(d/a) in [105, 107] for each a up to 4
        for a in range(1, 5):
            d_values = tuple(range(104 * a + 1, 107 * a + 1))
            spec = GridSpec(a_values=(a,), d_values=d_values, n_max=1200)
            assert not search_counterexamples("delta_mm", spec).records, a

    def test_shift_kind(self):
        spec = GridSpec(N_values=(2,), d_values=(63,), n_min=65, n_max=200)
        assert not search_counterexamples("shift", spec).records

    def test_deterministic_order(self):
        spec = GridSpec(a_values=(2,), d_values=tuple(range(1, 8)), n_max=60)
        first = search_counterexamples("delta", spec)
        second = search_counterexamples("delta", spec)
        assert [r.params for r in first.records] == [r.params for r in second.records]

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            search_counterexamples("nope", GridSpec(a_values=(1,),
                                                    d_values=(1,), n_max=5))


class TestEvaluateCell:
    """Evaluating one cell: a grid with n_min == n_max."""

    CELLS = {  # statement -> (axis values, grid horizon)
        "shift": ({"N": 2, "d": 63}, 200),
        "gen-kp": ({"a": 4, "d": 417}, 500),
        "gen-dkst": ({"a": 3, "d": 315}, 400),
        "ceiling": ({"a": 3, "d": 5}, 60),
        "a-to-1": ({"a": 3, "d": 6}, 60),
        "modified-st": ({"a": 4, "d": 417}, 500),
        "delta": ({"a": 2, "d": 3}, 60),
    }

    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    @pytest.mark.parametrize("force", [False, True])
    def test_equals_the_grid_record(self, name, force):
        params, n_max = self.CELLS[name]
        spec = GridSpec(**{f"{k}_values": (v,) for k, v in params.items()},
                        n_min=0, n_max=n_max, evaluate_out_of_hypothesis=force)
        grid = verify(name, spec).records
        assert len(grid) == n_max + 1
        for rec in grid:
            n = rec.params["n"]
            one = GridSpec(**{f"{k}_values": (v,) for k, v in params.items()},
                           n_min=n, n_max=n, evaluate_out_of_hypothesis=force)
            assert verify(name, one).records == [rec]


def paper_cells(name, n_max, a=1, d=0, N=0):
    """(in hypothesis, lhs, rhs) of each grid cell n = 0..n_max, from whole
    tables read at the paper's index maps and its hypotheses as stated there."""
    ns = range(n_max + 1)
    if name == "shift":
        q, S = column(q_name(1, d), n_max), column(s_set(d, N), n_max)
        return [(N >= 2 and d >= max(63, 46 * N - 79) and n >= d + 2, q[n], S[n])
                for n in ns]
    if name == "ceiling":
        q = column(q_name(a, d), n_max)
        q1 = column(q_name(1, math.ceil(d / a)), math.ceil(n_max / a))
        return [(n >= d + 2 * a, q[n], q1[math.ceil(n / a)]) for n in ns]
    if name == "a-to-1":
        return [(True, big_q(a, d, a * n, minus=1), big_q(1, (d + 3) // a - 3, n, minus=1))
                for n in ns]
    if name == "modified-st":
        S, T = gen_kp_sets(a, d)
        premise = dominates(S, T, 200, a)
        return [(premise, rho(T, n + n_hat(a, n)), rho(S, n)) for n in ns]
    minus = {"delta": 0, "gen-kp": 1, "gen-dkst": 2}[name]
    in_hypothesis = a == 1 if name == "delta" else math.ceil(d / a) >= 105
    q = column(q_name(a, d), n_max)
    return [(in_hypothesis, q[n], big_q(a, d, n, minus)) for n in ns]


class TestColumnReads:
    """The grid reads each side as one table slice; pin every record to the
    paper's statement, over tables built apart from the grid's."""

    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    @pytest.mark.parametrize("force", [False, True])
    def test_grid_records_match_per_n_counts(self, name, force, monkeypatch):
        params, n_max = TestEvaluateCell.CELLS[name]
        spec = GridSpec(**{f"{k}_values": (v,) for k, v in params.items()},
                        n_min=0, n_max=n_max, evaluate_out_of_hypothesis=force)
        monkeypatch.setattr(counting, "_tables", {})
        grid = verify(name, spec).records
        monkeypatch.setattr(counting, "_tables", {})
        a, d = params.get("a"), params["d"]
        exempt = d + a + 3 if name == "gen-kp" and (d + 3) % a == 0 else None
        cells = paper_cells(name, n_max, **params)
        statuses = {}
        for rec in grid:
            n = rec.params["n"]
            in_hypothesis, lhs, rhs = cells[n]
            if not in_hypothesis:
                want = (OUT, lhs - rhs if force else None)
            elif n == exempt:
                want = (EXEMPT, lhs - rhs)
            elif lhs == rhs if name == "a-to-1" else lhs >= rhs:
                want = (HOLDS, lhs - rhs)
            else:
                want = (FAILS, lhs - rhs)
            assert (rec.status, rec.value) == want, n
            statuses[n] = rec.status
        assert sorted(statuses) == list(range(n_max + 1))
        # the first-n thresholds, on both sides of the boundary
        if name == "shift":
            assert (statuses[d + 1], statuses[d + 2]) == (OUT, HOLDS)
        if name == "ceiling":
            assert (statuses[d + 2 * a - 1], statuses[d + 2 * a]) == (OUT, HOLDS)
        if name == "gen-kp":
            assert statuses[exempt] == EXEMPT


class TestRelease:
    """A grid holds a table only until the last row that reads it has run."""

    class Log(dict):
        """Stand-in for ``counting._tables``: every key stored, in order, and
        the number of tables held after each store."""

        def __init__(self):
            super().__init__()
            self.stored, self.held = [], []

        def __setitem__(self, key, table):
            super().__setitem__(key, table)
            self.stored.append(key)
            self.held.append(len(self))

    def test_delta_search_holds_one_rows_tables(self, monkeypatch):
        # delta rows share no table: q(a, d) and Q(a, d) per pair
        spec = GridSpec(a_values=(1, 2), d_values=tuple(range(1, 13)), n_max=200)
        monkeypatch.setattr(counting, "_tables", {})
        monkeypatch.setattr(inequalities, "release", lambda name: None)
        kept = search_counterexamples("delta", spec).records
        assert len(counting._tables) == 2 * 24
        monkeypatch.setattr(inequalities, "release", counting.release)
        log = self.Log()
        monkeypatch.setattr(counting, "_tables", log)
        assert search_counterexamples("delta", spec).records == kept
        assert len(log.stored) == 2 * 24 and max(log.held) == 2
        assert log == {}

    @pytest.mark.parametrize("name,axes", [
        # q(1, d) is read across N, S(d, N) along d - N, and the N = 4, 5
        # rows (out of the shift regime) read nothing
        ("shift", {"N_values": (2, 3, 4, 5), "d_values": tuple(range(63, 71))}),
        # q(1, ceil(d/a)) is read by the a = 1 row and again at a = 2, 3
        ("ceiling", {"a_values": (1, 2, 3), "d_values": tuple(range(1, 13))}),
        # S of (a, d) is T of up to a later rows, read past n_max when a does
        # not divide it (a = 3 here)
        ("modified-st", {"a_values": (1, 2, 3), "d_values": tuple(range(1, 40))}),
        # Q_d^(1,-) is read on both sides of the a = 1 row, and again at a = 2
        ("a-to-1", {"a_values": (1, 2), "d_values": tuple(range(1, 30))})])
    def test_shared_tables_built_once(self, monkeypatch, name, axes):
        log = self.Log()
        monkeypatch.setattr(counting, "_tables", log)
        assert verify(name, GridSpec(n_max=200, **axes)).ok
        assert log.stored and len(set(log.stored)) == len(log.stored)
        assert log == {}

    @pytest.mark.parametrize("name,axes", [
        ("modified-st", {"a_values": (1, 2, 3), "d_values": tuple(range(1, 40))}),
        ("a-to-1", {"a_values": (1, 2), "d_values": tuple(range(1, 30))})])
    def test_consumed_grid_leaves_no_plan(self, monkeypatch, name, axes):
        # the plan's reader counts and read-past-n_max indices, as grid hands
        # them to _held: a fully consumed grid has let every name go from both
        plans, real = [], inequalities._held

        def spy(rows, spec, readers, tops, *args, **how):
            plans.append((readers, tops, dict(tops)))
            return real(rows, spec, readers, tops, *args, **how)

        monkeypatch.setattr(inequalities, "_held", spy)
        assert verify(name, GridSpec(n_max=200, **axes)).ok
        (readers, tops, planned), = plans
        assert planned  # some table is read past n_max
        assert not readers and not tops

    @pytest.mark.parametrize("name,a_values,tables", [
        # 200 rows, each with its own Q set; at n <= 1 none is in hypothesis,
        # so none reads a table
        ("gen-kp", (1, 2), 0),
        # an a = 1 row reads Q_d^(1,-) on both sides; of the a = 2 rows (odd
        # d), those at d = 5, 7, ..., 99 read again the Q^(1,-) table of an
        # a = 1 row, and those at d = 1, 3 read Q_(-1)^(1,-) and Q_0^(1,-)
        ("a-to-1", (1, 2), 100 + 50 + 2)])
    def test_grid_keeps_no_part_set(self, monkeypatch, name, a_values, tables):
        # a part set is its table's name, so a grid holds one only while it
        # holds the table
        log = self.Log()
        monkeypatch.setattr(counting, "_tables", log)
        verify(name, GridSpec(a_values=a_values, d_values=tuple(range(1, 101)), n_max=1))
        # each table built once, and released after its last reader
        assert len(set(log.stored)) == len(log.stored) == tables
        assert log == {}

    @pytest.mark.parametrize("name", sorted(STATEMENTS))
    def test_statement_shares_if_its_rows_name_one_table(self, name):
        # the rows naming each table over a small grid, from the row factory
        # alone.  Rows (a, d) and (d+3-a, d) of gen-dkst and delta name one Q
        # table; such a mirrored pair is the only repeat a statement that
        # does not share may have (its table is rebuilt for the second row)
        statement = STATEMENTS[name]
        xs, ys = ((2, 3, 4, 5), range(63, 71)) if name == "shift" else (range(1, 7),
                                                                        range(1, 13))
        rows = collections.defaultdict(set)
        for x, y in itertools.product(xs, ys):
            try:
                row = statement.row(x, y)
            except RefusedInput:
                continue
            for side in row[:2]:
                rows[side.count].add((x, y))
        mirrored = lambda pairs: all(pairs == {(a, d), (d + 3 - a, d)} for a, d in pairs)
        repeats = [pairs for pairs in rows.values() if len(pairs) > 1]
        assert statement.shares == (not all(map(mirrored, repeats)))

    def test_released_table_is_rebuilt(self, monkeypatch):
        builds = []
        real = counting._build_gap_table
        monkeypatch.setattr(counting, "_tables", {})
        monkeypatch.setattr(counting, "_build_gap_table",
                            lambda *args: builds.append(args) or real(*args))
        spec = GridSpec(a_values=(2,), d_values=(1, 2), n_max=60)
        first = search_counterexamples("delta", spec).records
        assert search_counterexamples("delta", spec).records == first
        assert builds == [(2, 1, 64), (2, 2, 64)] * 2


class TestGrid:
    """``grid`` refuses when called and evaluates each row when asked for it."""

    @pytest.mark.parametrize("cmd,axes", [
        ("verify-shift", {"N_values": (2,), "d_values": (63,)}),
        ("search-delta", {"a_values": (1, 2), "d_values": (1,)})])
    def test_refusals_come_from_the_call(self, monkeypatch, cmd, axes):
        monkeypatch.setattr(inequalities, "_row", lambda *args, **kwargs: pytest.fail())
        with pytest.raises(RefusedInput, match="horizon cap"):
            inequalities.grid(cmd, GridSpec(n_max=counting.MAX_HORIZON + 1, **axes))
        with pytest.raises(RefusedInput, match="empty grid: no d values"):
            inequalities.grid(cmd, GridSpec(n_max=5, **{**axes, "d_values": ()}))
        with pytest.raises(RefusedInput, match="unknown search kind 'Q'"):
            inequalities.grid("search-Q", GridSpec(n_max=5, **axes))

    def test_each_row_runs_when_its_block_is_asked_for(self, monkeypatch):
        real, ran = inequalities._row, []
        monkeypatch.setattr(inequalities, "_row", lambda base, *args, **kwargs: (
            ran.append(base) or real(base, *args, **kwargs)))
        spec = GridSpec(a_values=(1,), d_values=(1, 2, 3), n_max=20)
        cmd, blocks = inequalities.grid("verify-delta", spec)
        assert cmd == "verify-delta" and ran == []
        assert next(blocks)[0] == {"a": 1, "d": 1} and ran == [{"a": 1, "d": 1}]
        assert [base for base, _ in blocks] == [{"a": 1, "d": 2}, {"a": 1, "d": 3}]
        assert list(blocks) == [] and len(ran) == 3
        report = verify("delta", spec)
        assert (report.cmd, report.blocks) == (cmd, [
            block for block in inequalities.grid("verify-delta", spec)[1]])

    def test_search_command_names_the_kind_as_the_report_does(self):
        spec = GridSpec(a_values=(1, 2, 3, 4), d_values=tuple(range(1, 13)), n_max=60)
        cmd, blocks = inequalities.grid("search-delta-m", spec)
        assert cmd == "search-delta_m"
        report = search_counterexamples("delta-m", spec)
        assert (report.cmd, report.blocks) == (cmd, list(blocks))


class TestGridSpec:
    def test_rejects_empty_n_range(self):
        with pytest.raises(ValueError):
            GridSpec(d_values=(5,), n_min=10, n_max=5)

    def test_rejects_an_empty_axis(self):
        # only the statement knows its axes, so the engine refuses, not GridSpec
        with pytest.raises(RefusedInput, match="empty grid: no d values"):
            verify("shift", GridSpec(N_values=(2,), n_max=5))
        with pytest.raises(RefusedInput, match="empty grid: no d values"):
            verify("gen-kp", GridSpec(d_values=(), n_max=5))
        with pytest.raises(RefusedInput, match="empty grid: no N values"):
            search_counterexamples("shift", GridSpec(d_values=(63,), n_max=5))

    def test_rejects_negative_n_min(self):
        with pytest.raises(RefusedInput, match="n must be >= 0, got -1"):
            GridSpec(d_values=(5,), n_min=-1, n_max=5)
        assert GridSpec(d_values=(5,), n_min=0, n_max=5).n_values() == range(6)
