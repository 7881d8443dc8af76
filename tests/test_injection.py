"""The piecewise injection: statistics, both map pieces, cell verification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alder.counting import rho
from alder.injection import (DEFAULT_ENUM_HORIZON, HypothesisViolation,
                             IndexedPartition, MapViolation, enumerate_s,
                             in_hypothesis, phi, phi1, phi2, stats,
                             verify_injection)
from alder.partset import s_set, shift_regime, x_closed, y_closed


def make_lam(d, N, mults):
    return IndexedPartition.from_mults(s_set(d, N), mults)


class TestIndexedPartition:
    def test_weight(self):
        lam = make_lam(63, 2, {1: 61, 2: 1})
        assert lam.weight == 61 + 65
        assert lam.multiplicity(2) == 1
        assert lam.multiplicity(9) == 0

    def test_drops_zero_mults(self):
        lam = make_lam(63, 2, {1: 5, 3: 0})
        assert lam.mult == ((1, 5),)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_lam(63, 2, {1: -1})


class TestEnumerateS:
    def test_two_partitions_of_126(self):
        parts = enumerate_s(63, 2, 126)
        assert len(parts) == 2
        assert {p.mult for p in parts} == {((1, 126),), ((1, 61), (2, 1))}

    def test_zero_and_tiny(self):
        assert [p.mult for p in enumerate_s(63, 2, 0)] == [()]
        assert [p.mult for p in enumerate_s(63, 2, 2)] == [((1, 2),)]

    @pytest.mark.parametrize("d,N,n", [(63, 2, 130), (63, 3, 200), (105, 4, 120)])
    def test_count_matches_rho(self, d, N, n):
        assert len(enumerate_s(d, N, n)) == rho(s_set(d, N), n)

    def test_deterministic_order(self):
        assert [p.mult for p in enumerate_s(63, 2, 130)] == \
            [p.mult for p in enumerate_s(63, 2, 130)]

    def test_horizon(self):
        with pytest.raises(ValueError):
            enumerate_s(63, 2, DEFAULT_ENUM_HORIZON + 1)


class TestStats:
    def test_all_x2(self):
        st_ = stats(make_lam(63, 2, {2: 7}), 63, 2)
        assert (st_.alpha, st_.epsilon, st_.beta, st_.cls) == (0, 1, 0, "S1")

    def test_empty(self):
        st_ = stats(make_lam(63, 2, {}), 63, 2)
        assert (st_.alpha, st_.epsilon, st_.beta, st_.cls) == (0, 0, 0, "S1")

    def test_s2_member(self):
        st_ = stats(make_lam(63, 3, {1: 7, 2: 8}), 63, 3)
        assert (st_.alpha, st_.epsilon, st_.beta, st_.cls) == (0, 0, 0, "S2")

    def test_alpha_uses_difference_table(self):
        lam = make_lam(63, 2, {3: 2, 12: 1})
        st_ = stats(lam, 63, 2)
        assert st_.alpha == 2 * 60 + 68

    def test_rejects_negative_difference(self):
        # d = 31, N = 10 is outside d >= max(31, 6N-17): x_12 < y_12
        assert x_closed(31, 10, 12) - y_closed(31, 12) < 0
        with pytest.raises(HypothesisViolation):
            stats(make_lam(31, 10, {12: 1}), 31, 10)


class TestPhi1:
    def test_all_x2_goes_to_y2(self):
        img = phi1(make_lam(63, 2, {2: 7}), 63, 2)
        assert img.mult == ((2, 7),)
        assert img.weight == 7 * 65

    def test_identity_on_ones(self):
        img = phi1(make_lam(63, 2, {1: 126}), 63, 2)
        assert img.mult == ((1, 126),)

    def test_empty(self):
        assert phi1(make_lam(63, 2, {}), 63, 2).mult == ()

    def test_surplus_moves_to_q1(self):
        # N = 3: q_1 = p_1 + alpha - p_2
        lam = make_lam(63, 3, {1: 10, 2: 4, 3: 1})
        img = phi1(lam, 63, 3)
        alpha = x_closed(63, 3, 3) - y_closed(63, 3)
        assert img.multiplicity(1) == 10 + alpha - 4
        assert img.weight == lam.weight

    def test_negative_q1_is_a_violation(self):
        # engineered outside S1 (dispatch would never send this here)
        lam = make_lam(63, 3, {2: 5})
        with pytest.raises(MapViolation):
            phi1(lam, 63, 3)


class TestPhi2:
    def test_worked_example(self):
        lam = make_lam(63, 3, {1: 7, 2: 8})
        assert lam.weight == 519
        img = phi2(lam, 63, 3)
        assert img.multiplicity(1) == 203   # 7 + 8*49/2
        assert img.multiplicity(2) == 0
        assert img.multiplicity(5) == 4
        assert img.weight == 519            # 203*1 + 4*79

    def test_even_p2_means_q2_equals_2beta(self):
        lam = make_lam(63, 3, {1: 4, 2: 6})
        img = phi2(lam, 63, 3)
        assert img.multiplicity(2) == 2 * stats(lam, 63, 3).beta == 0

    def test_beta_one_synthetic(self):
        # (d, N) = (151, 5): p_1 = 150 >= d-N-1 = 145 pushes beta to 1
        lam = make_lam(151, 5, {1: 150, 2: 60})
        st_ = stats(lam, 151, 5)
        assert st_.cls == "S2" and st_.beta == 1
        img = phi2(lam, 151, 5, st_)
        assert img.multiplicity(2) == 2
        assert img.multiplicity(5) == 28
        assert img.weight == lam.weight == 9150

    def test_piece_separation_via_q2(self):
        lam_b1 = make_lam(151, 5, {1: 150, 2: 60})
        lam_b0 = make_lam(151, 5, {1: 10, 2: 60})
        img1 = phi2(lam_b1, 151, 5)
        img0 = phi2(lam_b0, 151, 5)
        assert stats(lam_b1, 151, 5).beta != stats(lam_b0, 151, 5).beta
        assert img1.multiplicity(2) != img0.multiplicity(2)


class TestPhiDispatch:
    def test_dispatch(self):
        s1 = make_lam(63, 3, {1: 10, 2: 4})
        s2 = make_lam(63, 3, {1: 7, 2: 8})
        assert phi(s1, 63, 3).mult == phi1(s1, 63, 3).mult
        assert phi(s2, 63, 3).mult == phi2(s2, 63, 3).mult

    @given(st.integers(min_value=0, max_value=58),
           st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=120)
    def test_weight_preserved_or_violation_out_of_hypothesis(self, p1, p2, p4, p7):
        d, N = 63, 3
        lam = make_lam(d, N, {1: p1, 2: p2, 4: p4, 7: p7})
        try:
            img = phi(lam, d, N)
        except MapViolation:
            # the maps only promise nonnegativity once n >= 7d+14
            assert lam.weight < 7 * d + 14
        else:
            assert img.weight == lam.weight
            assert all(m >= 0 for _, m in img.mult)


class TestLemmaBounds:
    @given(st.dictionaries(st.integers(min_value=1, max_value=14),
                           st.integers(min_value=0, max_value=30), max_size=6))
    @settings(max_examples=100)
    def test_no_s2_at_n_equals_2(self, mults):
        # at N = 2 the class test is p_1 + alpha >= 0, which alpha >= 0 settles
        lam = make_lam(63, 2, mults)
        assert stats(lam, 63, 2).cls == "S1"

    def test_p2_bound_holds_at_weaker_d_bounds(self):
        # d = 35, N = 3 is inside the p_2 >= 8 regime (d >= max(31, 9N-13,
        # 13N-31)) but outside the injection's d >= max(63, 46N-79)
        d, N = 35, 3
        assert d >= max(31, 9 * N - 13, 13 * N - 31)
        assert d < 63
        for n in range(7 * d + 14, 7 * d + 17):
            for lam in enumerate_s(d, N, n):
                st_ = stats(lam, d, N)
                if st_.cls == "S2":
                    assert lam.multiplicity(2) >= 8


class TestVerifyInjection:
    def test_s2_empty_at_n2(self):
        rep = verify_injection(63, 2, 455)
        assert rep.status == "holds"
        assert rep.s2_size == 0 and rep.note == "S2 empty"
        assert rep.size == rep.rho_s == rep.s1_size

    def test_nonempty_s2_cell(self):
        rep = verify_injection(63, 3, 519)
        assert rep.status == "holds"
        assert rep.s2_size == 1
        assert rep.checks["p2_lower_bound"]

    @pytest.mark.parametrize("d,N,n", [(63, 2, 456), (63, 3, 455), (105, 4, 749)])
    def test_cells_pass(self, d, N, n):
        rep = verify_injection(d, N, n)
        assert rep.status == "holds"
        assert rep.checks["injective"] and rep.checks["rho_dominates"]
        assert rep.rho_t >= rep.rho_s == rep.size

    def test_out_of_hypothesis_unforced_is_skipped(self):
        rep = verify_injection(63, 2, 454)
        assert not rep.in_hypothesis and not rep.evaluated
        assert rep.status == "out-of-hypothesis"

    def test_out_of_hypothesis_forced_runs_and_labels(self):
        rep = verify_injection(63, 2, 454, force=True)
        assert rep.status == "out-of-hypothesis"
        assert rep.evaluated and rep.size == rep.rho_s

    def test_unbuildable_cell_reports_error(self):
        # t_set(5, 12) does not exist; forced run must not crash
        rep = verify_injection(12, 4, 100, force=True)
        assert rep.status == "out-of-hypothesis"
        assert rep.checks.get("constructible") is False

    def test_forced_cell_where_target_order_breaks(self):
        # t_set(5, 20) exists but the element closed form needs d >= 31
        rep = verify_injection(20, 2, 150, force=True)
        assert rep.status == "out-of-hypothesis"
        assert rep.checks.get("constructible") is False

    def test_in_hypothesis_predicate(self):
        assert in_hypothesis(63, 2, 455)
        assert not in_hypothesis(63, 2, 454)
        assert not in_hypothesis(62, 2, 1000)
        assert not in_hypothesis(105, 4, 748) and in_hypothesis(105, 4, 749)
        assert not in_hypothesis(104, 4, 10000)
        # the (d, N) regime shared with the shift grid and the anchors
        assert shift_regime(63, 2) and shift_regime(63, 3)
        assert not shift_regime(62, 3) and not shift_regime(1000, 1)
        assert shift_regime(151, 5) and not shift_regime(150, 5)
        assert not in_hypothesis(150, 5, 10 ** 6)

    def test_horizon_rejected(self):
        with pytest.raises(ValueError):
            verify_injection(63, 2, 600, horizon=500)
