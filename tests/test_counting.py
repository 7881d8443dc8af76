"""Counting operations against their enumeration oracles and known identities."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alder import cli, counting
from alder.counting import (column, elements, g_name, largest_part_counts, q_name, r_of, rho,
                            rho_name, s_set, t_set)
import oracles
from oracles import (big_q, delta, pm_set, positive_integers, q_brute, q_lower_bound,
                     rho_brute)


class TestRho:
    def test_empty_partition(self):
        assert rho(s_set(63, 2), 0) == 1
        assert rho(t_set(5, 63), 0) == 1

    def test_paper_anchor(self):
        assert rho(s_set(63, 2), 126) == 2

    def test_t5_66(self):
        # 1^66 and 65 + 1
        assert rho(t_set(5, 63), 66) == 2

    def test_matches_brute_on_small_sets(self):
        for A in (pm_set(1, 4), pm_set(2, 5), pm_set(1, 6, [5]), t_set(2, 3)):
            for n in range(41):
                assert rho(A, n) == rho_brute(A, n)

    @given(st.integers(min_value=3, max_value=9), st.data())
    @settings(max_examples=40)
    def test_weakly_increasing_when_1_in_set(self, m, data):
        extra = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1),
                                  max_size=2))
        A = rho_name(m, {1} | extra)
        values = [rho(A, n) for n in range(60)]
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            rho(t_set(5, 63), -1)


class TestQCount:
    @pytest.mark.parametrize("a,d,n,expected", [
        (1, 1, 5, 3),    # 5; 4+1; 3+2
        (2, 3, 6, 1),    # only 6 (4+2 has gap 2 < 3)
        (1, 63, 65, 2),  # 65; 64+1
    ])
    def test_examples(self, a, d, n, expected):
        assert column(q_name(a, d), n)[n] == expected

    def test_boundary_values(self):
        q = column(q_name(3, 5), 3)
        assert q[0] == 1
        assert q[3] == 1
        assert q[2] == 0
        assert q[1] == 0

    def test_monotone_in_n_for_a1(self):
        for d in (1, 2, 5, 63):
            vals = column(q_name(1, d), 120)[:121]
            assert all(lo <= hi for lo, hi in zip(vals, vals[1:]))

    def test_matches_brute(self):
        for a in range(1, 5):
            for d in range(1, 5):
                q = column(q_name(a, d), 30)
                for n in range(31):
                    assert q[n] == q_brute(a, d, n)

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=36))
    @settings(max_examples=80)
    def test_matches_brute_random(self, a, d, n):
        assert column(q_name(a, d), n)[n] == q_brute(a, d, n)


class TestQBrute:
    def test_examples(self):
        assert q_brute(1, 1, 5) == 3
        assert q_brute(4, 9, 4) == 1   # single part a
        assert q_brute(4, 9, 3) == 0

    def test_first_rogers_ramanujan_instance(self):
        # gap-2-distinct partitions of 9 vs parts == +-1 (mod 5)
        assert q_brute(1, 2, 9) == rho_brute(pm_set(1, 5), 9)

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            q_brute(1, 1, 61)
        assert q_brute(1, 40, 61, limit=100) == column(q_name(1, 40), 61)[61]


class TestBigQ:
    def test_example(self):
        assert big_q(2, 3, 6) == 2  # 2+2+2; 2+4

    def test_minus_paper_value(self):
        assert big_q(1, 61, 321, minus=1) == 29

    def test_minus_minus_single_part(self):
        assert big_q(4, 417, 424, minus=2) == 1

    def test_minus_vs_set(self):
        # Q_{d-N}^(1,-) is rho over s_set(d, N)
        for (d, N) in [(63, 2), (63, 3), (105, 4)]:
            for n in (0, 1, 64, 126, 200):
                assert big_q(1, d - N, n, minus=1) == rho(s_set(d, N), n)

    def test_coincident_residue_handled(self):
        # a = (d+3)/2: one residue class; the two exclusions collapse
        assert big_q(3, 3, 6) == rho_brute(pm_set(3, 6), 6)
        assert big_q(3, 3, 9, minus=1) == big_q(3, 3, 9, minus=2)

    def test_rejects_large_a(self):
        with pytest.raises(ValueError):
            big_q(6, 3, 10)

    def test_against_brute(self):
        for a in range(1, 6):
            for d in range(1, 6):
                if a >= d + 3:
                    continue
                for n in range(31):
                    A = pm_set(a, d + 3)
                    assert big_q(a, d, n) == rho_brute(A, n)


class TestDelta:
    def test_euler_sample(self):
        assert all(delta(1, 1, n) == 0 for n in range(61))

    def test_kang_park_witness(self):
        assert delta(2, 3, 6) == -1

    def test_delta_minus_exceptional_cell(self):
        assert delta(4, 417, 424, minus=1) == -1
        # both sides pinned by the enumeration oracles
        assert q_brute(4, 417, 424, limit=424) == 1
        assert rho_brute(pm_set(4, 420, [416]), 424, limit=424) == 2

    def test_minus_minus_at_same_cell(self):
        assert delta(4, 417, 424, minus=2) == 0

    def test_qminus_not_monotone_for_large_a(self):
        # big_q(4, 417, ., minus=1) descends somewhere below 500 (e.g. after
        # n = d+a+3); recorded as an existence scan, no single cell pinned.
        descents = [n for n in range(1, 500)
                    if big_q(4, 417, n + 1, minus=1) < big_q(4, 417, n, minus=1)]
        assert descents


class TestGScript:
    def test_weight_zero(self):
        assert column(g_name(63), 0)[0] == 1
        assert column(g_name(105), 0)[0] == 1

    def test_brute_comparison(self):
        # pairs (D, U): distinct parts from the d+2^(r-1) (mod 2d) class,
        # unrestricted parts from T(r-1, d)
        def g_oracle(d, n):
            r = r_of(d)
            T = t_set(r - 1, d)
            first = d + 2 ** (r - 1)
            progression = list(range(first, n + 1, 2 * d))

            def walk(idx, remaining):
                if idx == len(progression):
                    return rho_brute(T, remaining, limit=remaining)
                total = walk(idx + 1, remaining)  # skip this distinct part
                if progression[idx] <= remaining:
                    total += walk(idx + 1, remaining - progression[idx])
                return total

            return walk(0, n)

        for d in (4, 31, 63):
            g = column(g_name(d), 130)
            for n in (0, 1, 50, 95, 96, 130):
                assert g[n] == g_oracle(d, n)

    def test_example_63_95(self):
        # the lone distinct part 95 plus the five T-only partitions
        assert column(g_name(63), 95)[95] == rho(t_set(5, 63), 95) + 1 == 6

    def test_chain_at_5d(self):
        for d in (63, 105):
            n = 5 * d
            assert column(q_name(1, d), n)[n] >= column(g_name(d), n)[n] >= rho(t_set(5, d), n)

    def test_q_dominates_t5_window(self):
        for d in (63, 64, 105):
            n_max = 5 * d + 100
            q, t5 = column(q_name(1, d), n_max), column(t_set(5, d), n_max)
            for n in range(5 * d, n_max + 1):
                assert q[n] >= t5[n]

    def test_rejects_r_below_2(self):
        with pytest.raises(ValueError, match=r"^kind g: need r_of\(d\) >= 2, got d=2$"):
            column(g_name(2), 10)


class TestLScript:
    def test_values(self):
        assert rho(t_set(r_of(15), 15), 0) == 1
        assert rho(t_set(r_of(31), 31), 33) == 2   # 1^33 and the part 33 = d+2
        assert rho(t_set(r_of(63), 63), 1) == 1


class TestQLowerBound:
    @pytest.mark.parametrize("d,n,expected", [(63, 65, 2), (10, 5, 1),
                                              (63, 189, 64)])
    def test_examples(self, d, n, expected):
        assert q_lower_bound(d, n) == expected

    def test_bounds_q_count(self):
        for d in (1, 7, 63, 127):
            q = column(q_name(1, d), 1000)
            for n in range(1, 1001):
                assert q[n] >= q_lower_bound(d, n)
        assert column(q_name(1, 63), 189)[189] >= 64


class TestTMonotoneCounts:
    @pytest.mark.parametrize("d", [31, 63, 127])
    def test_rho_monotone_in_s(self, d):
        r = r_of(d)
        tables = {s: [rho(t_set(s, d), n) for n in range(401)]
                  for s in range(1, r + 1)}
        for a in range(1, r + 1):
            for b in range(a, r + 1):
                assert all(x <= y for x, y in zip(tables[a], tables[b]))


class TestLargestPartCounts:
    def test_distribution_at_anchor(self):
        [dist] = largest_part_counts(s_set(63, 2), (321,), 10)
        assert dist == [1, 4, 5, 6, 5, 3, 2, 1, 1, 1]
        assert sum(dist) == rho(s_set(63, 2), 321)

    def test_agrees_with_enumeration(self):
        from alder.maps import enumerate_partitions
        A = s_set(63, 2)
        n = 130
        per_largest = {}
        for lam in enumerate_partitions(A, n):
            top = max(lam)
            per_largest[top] = per_largest.get(top, 0) + 1
        [dist] = largest_part_counts(A, (n,), 6)
        assert dist == [per_largest.get(i, 0) for i in range(1, 7)]


class TestTables:
    def test_entry_zero_is_one(self):
        assert column(s_set(63, 2), 10)[0] == 1

    def test_ascending_reads_double_the_horizon(self, monkeypatch):
        # a library caller that reads rho in ascending n with no table held
        # pays one build per doubling, not per n
        class Log(dict):
            def __setitem__(self, key, table):
                horizons.append(len(table) - 1)
                super().__setitem__(key, table)

        horizons = []
        monkeypatch.setattr(counting, "_tables", Log())
        A = pm_set(2, 11)
        assert [rho(A, n) for n in range(1001)] == list(column(A, 1000)[:1001])
        assert horizons == [64, 128, 256, 512, 1024]

    def test_horizon_cap_refuses_before_building(self, monkeypatch):
        monkeypatch.setattr(counting, "MAX_HORIZON", 100)
        A = pm_set(2, 11)
        key = A
        counting._tables.pop(key, None)
        assert rho(key, 70) == rho_brute(A, 70, limit=70)
        # regrowth would double to 140; it is clamped so n = 100 still builds
        rho(key, 90)
        assert len(counting._tables[key]) == 101
        assert rho(key, 100) == counting._tables[key][100]
        counting._tables.pop(key)
        with pytest.raises(ValueError, match="horizon cap"):
            rho(key, 101)
        assert key not in counting._tables

    def test_rebuild_reproducible(self):
        A = pm_set(1, 7)
        first = [rho(A, n) for n in range(50)]
        counting._tables.clear()
        assert [rho(A, n) for n in range(50)] == first

    def test_words_exactly_while_every_count_fits(self, monkeypatch):
        # p(n), rho over every positive integer, first passes 2^64 at n = 417
        monkeypatch.setattr(counting, "_tables", {})
        every = positive_integers()
        built = counting._build(every, 417)
        assert built[416] == 17873792969689876004 < 2 ** 64 <= built[417]
        words = column(every, 416)
        assert isinstance(words, memoryview) and words.readonly and len(words) == 417
        assert list(words) == built[:417] and words[416] == built[416]
        assert list(words[5:400:7]) == built[5:400:7]  # a grid side's strided read
        counting.release(every)
        ints = column(every, 417)
        assert type(ints) is tuple and ints[:418] == tuple(built)
        assert list(ints) == counting._build(every, len(ints) - 1)


def _pm_sets(M):
    """pm_set(a, M, E) for every a with 2a != M and every E of {a, M-a, a+M}."""
    for a in range(1, M):
        if 2 * a != M:
            members = sorted({a, M - a, a + M})
            for size in range(len(members) + 1):
                for exclusions in combinations(members, size):
                    yield pm_set(a, M, exclusions)


class TestTripleProductTables:
    """The +-r (mod M) tables against the coin-change builder they replace."""

    def test_pm_sets_match_coin_change(self):
        for M in range(3, 40):
            for A in _pm_sets(M):
                assert counting._build_pm_table(A, 150) == \
                    counting._build_part_table(A, 150), A

    def test_s_sets_match_coin_change(self):
        for d in range(31, 80):
            for N in range(2, 10):
                A = s_set(d, N)
                assert counting._build_pm_table(A, 400) == \
                    counting._build_part_table(A, 400), A

    @pytest.mark.parametrize("A", [pm_set(1, 7), pm_set(2, 7, [5]),
                                   pm_set(3, 8, [3, 5, 11]), s_set(31, 9)],
                             ids=lambda A: A.removeprefix("rho."))
    def test_dense_sets_match_at_large_horizon(self, A):
        assert counting._build_pm_table(A, 3000) == counting._build_part_table(A, 3000)

    def test_horizon_at_and_below_the_first_terms(self):
        for h in range(10):  # the excluded part 8 below, at and above the horizon
            assert counting._build_pm_table(pm_set(3, 11, [8]), h) == \
                counting._build_part_table(pm_set(3, 11, [8]), h)

    @pytest.fixture
    def builds(self, monkeypatch):
        """Record which builder each table takes; tables start empty."""
        log = []
        for name in ("_build_pm_table", "_build_part_table"):
            real = getattr(counting, name)

            def spy(A, horizon, name=name, real=real):
                log.append(name)
                return real(A, horizon)

            monkeypatch.setattr(counting, name, spy)
        monkeypatch.setattr(counting, "_tables", {})
        return log

    def test_pm_and_s_sets_take_the_closed_form(self, builds):
        big_q(2, 4, 100)
        big_q(1, 61, 321, minus=1)
        big_q(4, 417, 424, minus=2)
        rho(s_set(63, 3), 200)
        assert builds == ["_build_pm_table"] * 4

    def test_t_sets_and_single_classes_take_coin_change(self, builds):
        rho(t_set(5, 63), 200)
        rho(t_set(r_of(31), 31), 100)  # the l kind
        big_q(3, 3, 60)  # 3 == 6 - 3: one residue class
        rho(positive_integers(), 50)
        rho(rho_name(10, {1, 3}), 50)  # two classes, 1 + 3 != 10
        assert builds == ["_build_part_table"] * 5

    def test_count_builds_each_table_once_at_the_range_horizon(self, monkeypatch, capsys):
        class Log(dict):
            stores = 0

            def __setitem__(self, key, table):
                assert key not in self, f"{key} regrown"
                Log.stores += 1
                super().__setitem__(key, table)

        monkeypatch.setattr(counting, "_tables", Log())
        assert cli.main("count --kind delta --a 2 --d 4 --n 1..4000".split()) == 0
        capsys.readouterr()
        assert Log.stores == 2
        assert {k: len(v) for k, v in counting._tables.items()} == \
            {"q.a2.d4": 4001, "rho.m7.r2,5": 4001}


class TestSlicePasses:
    """The table builders' slice passes against the plain loops of oracles."""

    def test_add_multiples_on_both_sides_of_v_squared(self):
        rng = random.Random(5)
        for size in (1, 2, 15, 16, 17, 50):
            for v in range(1, size + 2):  # v*v below, at and above len(dp)
                dp = [rng.randrange(-9, 10) for _ in range(size)]
                want = dp[:]
                for m in range(v, size):
                    want[m] += want[m - v]
                counting._add_multiples(dp, v)
                assert dp == want, (size, v)

    @pytest.mark.parametrize("d", [3, 7, 15, 31, 63, 100, 255])
    def test_t_sets_and_g_script(self, d):
        for s in range(1, r_of(d) + 1):
            T = t_set(s, d)
            assert counting._build_part_table(T, 1500) == \
                oracles.coin_change(elements(T, 1500), 1500), s
        assert counting._build_g_table(d, 3000) == oracles.g_table(d, 3000)

    @pytest.mark.parametrize("a,d", [(1, 1), (1, 4), (2, 3), (5, 30), (4, 417), (2, 4), (3, 4)])
    def test_gap_tables(self, a, d):
        offsets = [a * k + d * k * (k - 1) // 2 for k in range(1, 5)]
        # below a no k fits; around off_k the k-th staircase term comes in;
        # 4000 is the horizon of the count_stream benchmark's q(1..3, 4) tables
        horizons = {0, 1, a - 1, 700, 4000, *(o + e for o in offsets for e in (-1, 0, 1))}
        for horizon in sorted(horizons):
            assert counting._build_gap_table(a, d, horizon) == \
                oracles.gap_table(a, d, horizon), horizon

    def test_anchor_largest_part_counts(self):
        # one pass to the largest n gives each n's counts, as verify anchors reads them
        for d in range(63, 90, 3):
            for N in range(2, 6):
                S = s_set(d, N)
                for ns, i_max in (((5 * d - 5 * N + 16, 7 * d + 13), 14), ((0,), 3),
                                  ((7 * d + 13, 0, d - N + 2, d - N + 1), 10)):
                    got = counting.largest_part_counts(S, ns, i_max)
                    for n, dist in zip(ns, got, strict=True):
                        assert dist == oracles.largest_part_counts(S, n, i_max), (d, N, n)


class TestIdentityOracles:
    """Whole tables from two builders, equated by classical identities: Euler's
    (distinct parts against odd parts) and both Rogers-Ramanujan identities
    (Andrews, The Theory of Partitions, ch. 7), i.e. delta(1, 1, n) = 0 and
    delta(1, 2, n) = delta(2, 2, n) = 0 for every n <= H."""

    H = 5000

    @pytest.mark.parametrize("a,d", [(1, 1), (1, 2), (2, 2)],
                             ids=["euler", "rogers-ramanujan-1", "rogers-ramanujan-2"])
    def test_gap_table_equals_triple_product_table(self, a, d):
        assert counting._build_gap_table(a, d, self.H) == \
            counting._build_pm_table(pm_set(a, d + 3), self.H)


class TestRandomSpotChecks:
    def test_seeded_larger_instances(self):
        rng = random.Random(20260811)
        for _ in range(30):
            a = rng.randint(1, 8)
            d = rng.randint(2, 12)
            n = rng.randint(41, 90)
            assert column(q_name(a, d), n)[n] == q_brute(a, d, n, limit=n)
