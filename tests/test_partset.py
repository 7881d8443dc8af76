"""Part-set names, enumeration, and the closed-form element maps.

The families T(s, d) and S(d, N) are table names (``counting.t_set`` and
``s_set``); their members are walked with ``counting.elements``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alder.counting import big_q_name, elements, r_of, rho_name, s_set, t_set, x_closed, y_closed
from oracles import first_elements, pm_set, positive_integers

XY_GRID = [(31, 2), (63, 2), (63, 3), (63, 5), (105, 4), (200, 8)]


def members(modulus, residues, exclusions, limit):
    """{x >= 1 : x mod modulus in residues} minus exclusions, up to limit, by
    its definition."""
    return [x for x in range(1, limit + 1) if x % modulus in residues and x not in exclusions]


class TestElements:
    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_matches_membership(self, m, data):
        # any modulus (m = 1 with residue 0 is every positive integer), any
        # residues, and exclusions that are members
        residues = data.draw(st.sets(st.integers(min_value=0, max_value=m - 1), min_size=1))
        exclusions = data.draw(st.sets(st.sampled_from(members(m, residues, (), 3 * m)),
                                       max_size=3))
        limit = data.draw(st.integers(min_value=0, max_value=5 * m))
        assert elements(rho_name(m, residues, exclusions), limit) == \
            members(m, residues, exclusions, limit)

    @given(st.integers(min_value=1, max_value=300), st.data())
    @settings(max_examples=60)
    def test_every_maker_matches_membership(self, d, data):
        limit = data.draw(st.integers(min_value=0, max_value=4 * d + 8))
        a, minus = data.draw(st.integers(min_value=1, max_value=d + 2)), data.draw(
            st.integers(min_value=0, max_value=2))
        m = d + 3
        assert elements(big_q_name(a, d, minus), limit) == \
            members(m, {a, m - a}, ((), {m - a}, {a, m - a})[minus], limit)
        N = data.draw(st.integers(min_value=0, max_value=d))
        m = d - N + 3
        assert elements(s_set(d, N), limit) == members(m, {1, m - 1}, {m - 1}, limit)
        s = data.draw(st.integers(min_value=1, max_value=r_of(d)))
        assert elements(t_set(s, d), limit) == \
            members(2 * d, {1, *(d + 2 ** j for j in range(1, s))}, (), limit)

    def test_membership(self):
        A = elements(rho_name(64, {1, 63}, {63}), 130)
        assert 1 in A and 65 in A and 127 in A
        assert 63 not in A          # excluded
        assert 64 not in A          # wrong residue
        assert 0 not in A and -1 not in A

    def test_compared_by_name(self):
        # a set is known by its table name, which S(63, 2) shares
        A = rho_name(64, {1, 63}, {63})
        assert A == s_set(63, 2) == "rho.m64.r1,63.x63"
        assert A != rho_name(64, {1, 63})

    def test_elements_increasing_and_indexed(self):
        A = t_set(5, 63)
        els = elements(A, 300)
        assert els == sorted(els)
        assert els[0] == 1
        assert first_elements(A, len(els)) == els
        assert all(y_closed(63, i + 1) == v for i, v in enumerate(els))

    def test_positive_integers(self):
        P = positive_integers()
        assert elements(P, 5) == [1, 2, 3, 4, 5]
        assert first_elements(P, 1) == [1]

    def test_exclusion_of_first_base_element(self):
        A = pm_set(2, 6, [2])
        assert first_elements(A, 1) == [4]
        assert elements(A, 15) == [4, 8, 10, 14]


class TestROf:
    @pytest.mark.parametrize("d,expected", [(1, 1), (63, 6), (31, 5),
                                            (62, 5), (2, 1), (7, 3)])
    def test_examples(self, d, expected):
        assert r_of(d) == expected

    @given(st.integers(min_value=1, max_value=10 ** 9))
    def test_defining_inequality(self, d):
        r = r_of(d)
        assert 2 ** r - 1 <= d < 2 ** (r + 1) - 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            r_of(0)


class TestTSet:
    def test_t5_63(self):
        assert t_set(5, 63) == "rho.m126.r1,65,67,71,79"

    def test_s1_has_single_residue(self):
        assert t_set(1, 10) == "rho.m20.r1"

    def test_s2_31(self):
        assert t_set(2, 31) == "rho.m62.r1,33"

    @pytest.mark.parametrize("s,d", [(5, 12), (3, 3), (2, 2), (4, 7)])
    def test_rejects_collisions(self, s, d):
        assert s > r_of(d)
        with pytest.raises(ValueError):
            t_set(s, d)

    def test_accepts_up_to_r(self):
        for d in (1, 3, 15, 31, 63, 100):
            for s in range(1, r_of(d) + 1):
                t_set(s, d)


class TestSSet:
    def test_63_2(self):
        A = s_set(63, 2)
        assert A == "rho.m64.r1,63.x63"
        assert elements(A, 130) == [1, 65, 127, 129]

    def test_105_4(self):
        assert s_set(105, 4) == "rho.m104.r1,103.x103"

    def test_second_element_is_d_minus_n_plus_4(self):
        assert first_elements(s_set(63, 2), 2)[1] == x_closed(63, 2, 2) == 65
        assert first_elements(s_set(63, 3), 2)[1] == x_closed(63, 3, 2) == 64

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            s_set(2, 3)

    def test_one_set_per_modulus(self):
        # S(d, N) depends on d - N only; a shift grid holds one name per diagonal
        assert s_set(64, 3) is s_set(63, 2) is s_set(70, 9)
        assert s_set(64, 2) is not s_set(63, 2)


class TestElementExamples:
    def test_t_set_elements(self):
        assert first_elements(t_set(5, 63), 5)[4] == 79
        assert first_elements(t_set(5, 63), 6)[5] == 127  # = 2d+1

    def test_s_set_element(self):
        assert first_elements(s_set(63, 2), 4)[3] == 129


class TestClosedForms:
    def test_element_rejects_bad_index(self):
        # the i-th element of T(5, d) or S(d, N) is its closed form, from i = 1
        with pytest.raises(ValueError):
            y_closed(63, 0)
        with pytest.raises(ValueError):
            x_closed(63, 2, 0)

    @pytest.mark.parametrize("d,N", XY_GRID)
    def test_x_closed_matches_enumeration(self, d, N):
        for i, v in enumerate(elements(s_set(d, N), x_closed(d, N, 201)), start=1):
            if i > 200:
                break
            assert x_closed(d, N, i) == v

    @pytest.mark.parametrize("d", [31, 63, 105, 127, 200])
    def test_y_closed_matches_enumeration(self, d):
        for i, v in enumerate(elements(t_set(5, d), y_closed(d, 201)), start=1):
            if i > 200:
                break
            assert y_closed(d, i) == v

    def test_difference_examples(self):
        assert x_closed(63, 2, 3) - y_closed(63, 3) == 60    # d-2N+1
        assert x_closed(63, 2, 12) - y_closed(63, 12) == 68  # d-6N+17
        assert y_closed(63, 11) == 253                       # 4d+1

    def test_y_closed_rejects_small_d(self):
        with pytest.raises(ValueError):
            y_closed(30, 1)

    @pytest.mark.parametrize("d,N", XY_GRID)
    def test_period_relations(self, d, N):
        m = d - N + 3
        for i in range(1, 51):
            assert y_closed(d, i + 10) == y_closed(d, i) + 4 * d
            if i >= 3:
                assert x_closed(d, N, i + 10) == x_closed(d, N, i) + 5 * m

    @given(st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=300))
    @settings(max_examples=60)
    def test_minimum_difference_branch(self, N, d_offset):
        d = max(31, 6 * N - 17) + d_offset
        got = min(x_closed(d, N, i) - y_closed(d, i) for i in range(3, 201))
        assert got == min(d - 2 * N - 1, d - 6 * N + 17)
        assert got == (d - 2 * N - 1 if N <= 4 else d - 6 * N + 17)
        assert got >= 0

    def test_column_monotonicity(self):
        # more columns can only pull the i-th element down
        for d in (31, 63):
            for a in range(1, r_of(d) + 1):
                for b in range(a, r_of(d) + 1):
                    ta, tb = (first_elements(t_set(s, d), 60) for s in (a, b))
                    for i in range(1, 61):
                        assert ta[i - 1] >= tb[i - 1]


class TestPmSet:
    def test_plain(self):
        A = pm_set(2, 6)
        assert A == "rho.m6.r2,4"
        assert elements(A, 11) == [2, 4, 8, 10]

    def test_coincident_residues(self):
        assert pm_set(3, 6) == "rho.m6.r3"

    def test_key_is_canonical(self):
        assert pm_set(1, 64, [63]) == s_set(63, 2)
