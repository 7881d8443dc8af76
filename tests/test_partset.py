"""Part-set construction, enumeration, and the closed-form element maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alder.partset import (ResidueClassSet, pm_set, positive_integers, r_of,
                           s_set, t_set, x_closed, y_closed)

XY_GRID = [(31, 2), (63, 2), (63, 3), (63, 5), (105, 4), (200, 8)]


class TestResidueClassSet:
    def test_membership(self):
        A = ResidueClassSet(64, {1, 63}, {63})
        assert 1 in A and 65 in A and 127 in A
        assert 63 not in A          # excluded
        assert 64 not in A          # wrong residue
        assert 0 not in A and -1 not in A

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidueClassSet(0, {0})
        with pytest.raises(ValueError):
            ResidueClassSet(5, set())
        with pytest.raises(ValueError):
            ResidueClassSet(5, {5})
        with pytest.raises(ValueError):
            ResidueClassSet(5, {1}, {2})   # exclusion not a member
        with pytest.raises(ValueError):
            ResidueClassSet(5, {1}, {-1})

    def test_immutable_and_compared_by_key(self):
        A = ResidueClassSet(64, {1, 63}, {63})
        with pytest.raises(AttributeError):
            A.modulus = 65
        with pytest.raises(AttributeError):
            A.extra = 1
        assert A == s_set(63, 2) and hash(A) == hash(s_set(63, 2))
        assert A != ResidueClassSet(64, {1, 63}) and A.key() == "m64.r1,63.x63"

    def test_elements_increasing_and_indexed(self):
        A = t_set(5, 63)
        els = A.elements_upto(300)
        assert els == sorted(els)
        assert els[0] == 1
        assert all(A.element(i + 1) == v for i, v in enumerate(els))

    def test_positive_integers(self):
        P = positive_integers()
        assert P.elements_upto(5) == [1, 2, 3, 4, 5]
        assert P.element(1) == 1

    def test_element_rejects_bad_index(self):
        with pytest.raises(ValueError):
            t_set(5, 63).element(0)

    def test_exclusion_of_first_base_element(self):
        A = pm_set(2, 6, [2])
        assert A.element(1) == 4
        assert A.elements_upto(15) == [4, 8, 10, 14]


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
        A = t_set(5, 63)
        assert A.modulus == 126
        assert A.residues == frozenset({1, 65, 67, 71, 79})
        assert not A.exclusions

    def test_s1_has_single_residue(self):
        A = t_set(1, 10)
        assert A.modulus == 20 and A.residues == frozenset({1})

    def test_s2_31(self):
        A = t_set(2, 31)
        assert A.modulus == 62 and A.residues == frozenset({1, 33})

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
        assert (A.modulus, A.residues, A.exclusions) == \
            (64, frozenset({1, 63}), frozenset({63}))
        assert A.elements_upto(130) == [1, 65, 127, 129]

    def test_105_4(self):
        A = s_set(105, 4)
        assert (A.modulus, A.residues, A.exclusions) == \
            (104, frozenset({1, 103}), frozenset({103}))

    def test_second_element_is_d_minus_n_plus_4(self):
        assert s_set(63, 2).element(2) == 65
        assert s_set(63, 3).element(2) == 64

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            s_set(2, 3)


class TestElementExamples:
    def test_t_set_elements(self):
        assert t_set(5, 63).element(5) == 79
        assert t_set(5, 63).element(6) == 127  # = 2d+1

    def test_s_set_element(self):
        assert s_set(63, 2).element(4) == 129


class TestClosedForms:
    @pytest.mark.parametrize("d,N", XY_GRID)
    def test_x_closed_matches_enumeration(self, d, N):
        A = s_set(d, N)
        for i, v in enumerate(A.elements_upto(x_closed(d, N, 201)), start=1):
            if i > 200:
                break
            assert x_closed(d, N, i) == v

    @pytest.mark.parametrize("d", [31, 63, 105, 127, 200])
    def test_y_closed_matches_enumeration(self, d):
        A = t_set(5, d)
        for i, v in enumerate(A.elements_upto(y_closed(d, 201)), start=1):
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
                    ta, tb = t_set(a, d), t_set(b, d)
                    for i in range(1, 61):
                        assert ta.element(i) >= tb.element(i)


class TestPmSet:
    def test_plain(self):
        A = pm_set(2, 6)
        assert A.residues == frozenset({2, 4})
        assert A.elements_upto(11) == [2, 4, 8, 10]

    def test_coincident_residues(self):
        A = pm_set(3, 6)
        assert A.residues == frozenset({3})

    def test_key_is_canonical(self):
        assert pm_set(1, 64, [63]).key() == s_set(63, 2).key()
