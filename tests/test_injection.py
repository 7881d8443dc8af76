"""The piecewise injection: statistics, both map pieces, cell verification."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alder import injection, maps
from alder.counting import (MAX_HORIZON, elements, rho, s_set, shift_regime, t_set, x_closed,
                            y_closed)
from alder.injection import in_hypothesis, verify_injection, verify_range
from alder.maps import (HypothesisViolation, MapViolation, enumerate_partitions,
                        phi1, phi2, stats)
from alder.report import RefusedInput
from oracles import partitions_list, pm_set, positive_integers, verify_injection_exhaustive


def weight_s(lam, d, N):
    return sum(m * x_closed(d, N, i) for i, m in lam.items())


def weight_t(img, d):
    return sum(m * y_closed(d, i) for i, m in img.items())


def table(d, N):
    """The element table of (d, N) to n = 2000, which holds every part and
    image index of the partitions these tests map."""
    return injection._element_table(d, N, 2000)


def mapped(phi, lam, d, N):
    """The piece ``phi`` applied to lam, whatever lam's class."""
    els = table(d, N)
    return phi(lam, d, N, els, stats(lam, d, N, els))


def apply_map(lam, d, N):
    return mapped(phi1 if stats(lam, d, N, table(d, N)).cls == "S1" else phi2, lam, d, N)


def reference_order(A, n):
    """The enumeration order before the smallest part took the remainder in
    one step: every multiplicity of every index is tried, highest first."""
    xs = elements(A, n)
    out, acc = [], []

    def walk(idx, remaining):
        if remaining == 0:
            out.append(dict(sorted(acc)))
            return
        if idx < 0:
            return
        for m in range(remaining // xs[idx], -1, -1):
            if m:
                acc.append((idx + 1, m))
            walk(idx - 1, remaining - m * xs[idx])
            if m:
                acc.pop()

    walk(len(xs) - 1, n)
    return out


class TestEnumerateS:
    def test_two_partitions_of_126(self):
        parts = list(enumerate_partitions(s_set(63, 2), 126))
        assert parts == [{1: 61, 2: 1}, {1: 126}]
        assert list(parts[0]) == [1, 2]

    def test_zero_and_tiny(self):
        assert list(enumerate_partitions(s_set(63, 2), 0)) == [{}]
        assert list(enumerate_partitions(s_set(63, 2), 2)) == [{1: 2}]

    @pytest.mark.parametrize("d,N,n", [(63, 2, 130), (63, 3, 200), (105, 4, 120)])
    def test_count_matches_rho(self, d, N, n):
        assert len(list(enumerate_partitions(s_set(d, N), n))) == rho(s_set(d, N), n)

    def test_deterministic_order(self):
        assert list(enumerate_partitions(s_set(63, 2), 130)) == \
            list(enumerate_partitions(s_set(63, 2), 130))


class TestEnumeratePartitions:
    SETS = [pm_set(2, 7), pm_set(5, 11), pm_set(1, 7), positive_integers(),
            t_set(5, 31), s_set(31, 9)]

    @pytest.mark.parametrize("A", SETS, ids=lambda A: A.removeprefix("rho."))
    def test_maps_are_the_partitions_counted_by_rho(self, A):
        for n in range(0, 41):
            parts = list(enumerate_partitions(A, n))
            assert len(parts) == rho(A, n)
            xs = elements(A, n)
            for lam in parts:
                assert list(lam) == sorted(lam)
                assert all(m > 0 for m in lam.values())
                assert sum(m * xs[i - 1] for i, m in lam.items()) == n
            assert len({tuple(lam.items()) for lam in parts}) == len(parts)

    ORDER_CASES = [(pm_set(2, 7), 40), (pm_set(5, 11), 60), (s_set(31, 9), 150),
                   (s_set(63, 3), 300)]

    @pytest.mark.parametrize("A,n", ORDER_CASES,  # short ids: the i-th set and its n
                             ids=[f"A{i}-{n}" for i, (_, n) in enumerate(ORDER_CASES)])
    def test_order_unchanged(self, A, n):
        assert list(enumerate_partitions(A, n)) == reference_order(A, n)

    @pytest.mark.parametrize("A", SETS, ids=lambda A: A.removeprefix("rho."))
    def test_streams_the_reference_sequence(self, A):
        walk = enumerate_partitions(A, 40)
        assert iter(walk) is walk  # a stream, not a list
        for n in (0, 1, 5, 17, 40):
            assert list(enumerate_partitions(A, n)) == partitions_list(A, n), n
        S = s_set(31, 9)
        assert list(enumerate_partitions(S, 300)) == partitions_list(S, 300)

    def test_edges(self):
        A = pm_set(5, 11)
        assert list(enumerate_partitions(A, 0)) == [{}]
        assert list(enumerate_partitions(A, 4)) == []
        assert list(enumerate_partitions(A, 7)) == []
        assert list(enumerate_partitions(A, 5)) == [{1: 1}]
        with pytest.raises(ValueError):
            list(enumerate_partitions(A, -1))


class TestStats:
    def test_all_x2(self):
        st_ = stats({2: 7}, 63, 2, table(63, 2))
        assert (st_.alpha, st_.epsilon, st_.beta, st_.cls) == (0, 1, 0, "S1")

    def test_empty(self):
        st_ = stats({}, 63, 2, table(63, 2))
        assert (st_.alpha, st_.epsilon, st_.beta, st_.cls) == (0, 0, 0, "S1")

    def test_s2_member(self):
        st_ = stats({1: 7, 2: 8}, 63, 3, table(63, 3))
        assert (st_.alpha, st_.epsilon, st_.beta, st_.cls) == (0, 0, 0, "S2")

    def test_alpha_uses_difference_table(self):
        lam = {3: 2, 12: 1}
        st_ = stats(lam, 63, 2, table(63, 2))
        assert st_.alpha == 2 * 60 + 68

    def test_rejects_negative_difference(self):
        # d = 31, N = 10 is outside d >= max(31, 6N-17): x_12 < y_12
        assert x_closed(31, 10, 12) - y_closed(31, 12) < 0
        with pytest.raises(HypothesisViolation):
            stats({12: 1}, 31, 10, table(31, 10))


class TestPhi1:
    def test_all_x2_goes_to_y2(self):
        img = mapped(phi1, {2: 7}, 63, 2)
        assert img == {2: 7}
        assert weight_t(img, 63) == 7 * 65

    def test_identity_on_ones(self):
        assert mapped(phi1, {1: 126}, 63, 2) == {1: 126}

    def test_empty(self):
        assert mapped(phi1, {}, 63, 2) == {}

    def test_surplus_moves_to_q1(self):
        # N = 3: q_1 = p_1 + alpha - p_2
        lam = {1: 10, 2: 4, 3: 1}
        img = mapped(phi1, lam, 63, 3)
        alpha = x_closed(63, 3, 3) - y_closed(63, 3)
        assert img[1] == 10 + alpha - 4
        assert weight_t(img, 63) == weight_s(lam, 63, 3)

    def test_negative_q1_is_a_violation(self):
        # engineered outside S1 (dispatch would never send this here)
        with pytest.raises(MapViolation) as exc:
            mapped(phi1, {2: 5}, 63, 3)
        assert exc.value.witness == {"piece": "phi1", "source": {2: 5},
                                     "negative": {1: -5}}

    def test_weight_mismatch_is_a_violation(self):
        # no piece changes the weight; _image checks it of any q it is given
        with pytest.raises(MapViolation, match="changed the weight 3 -> 2") as exc:
            maps._image({1: 3}, 63, 2, table(63, 2), {1: 2}, "phi1")
        assert exc.value.witness == {"piece": "phi1", "source": {1: 3},
                                     "image": {1: 2}, "weight": 2, "expected": 3}


class TestPhi2:
    def test_worked_example(self):
        lam = {1: 7, 2: 8}
        assert weight_s(lam, 63, 3) == 519
        img = mapped(phi2, lam, 63, 3)
        assert img == {1: 203, 5: 4}   # q_1 = 7 + 8*49/2, q_2 = 0
        assert weight_t(img, 63) == 519  # 203*1 + 4*79

    def test_even_p2_means_q2_equals_2beta(self):
        lam = {1: 4, 2: 6}
        img = mapped(phi2, lam, 63, 3)
        assert img.get(2, 0) == 2 * stats(lam, 63, 3, table(63, 3)).beta == 0

    def test_beta_one_synthetic(self):
        # (d, N) = (151, 5): p_1 = 150 >= d-N-1 = 145 pushes beta to 1
        lam = {1: 150, 2: 60}
        st_ = stats(lam, 151, 5, table(151, 5))
        assert st_.cls == "S2" and st_.beta == 1
        img = phi2(lam, 151, 5, table(151, 5), st_)
        assert img[2] == 2
        assert img[5] == 28
        assert weight_t(img, 151) == weight_s(lam, 151, 5) == 9150

    def test_piece_separation_via_q2(self):
        lam_b1 = {1: 150, 2: 60}
        lam_b0 = {1: 10, 2: 60}
        img1 = mapped(phi2, lam_b1, 151, 5)
        img0 = mapped(phi2, lam_b0, 151, 5)
        els = table(151, 5)
        assert stats(lam_b1, 151, 5, els).beta != stats(lam_b0, 151, 5, els).beta
        assert img1.get(2, 0) != img0.get(2, 0)


class TestPhiDispatch:
    def test_dispatch(self, monkeypatch):
        # the exhaustive check sends each class to its own piece
        seen = []
        for name in ("phi1", "phi2"):
            def spy(lam, d, N, els, st_, real=getattr(maps, name), name=name):
                seen.append((name, stats(lam, d, N, els).cls))
                return real(lam, d, N, els, st_)
            monkeypatch.setattr(maps, name, spy)
        rep = verify_injection_exhaustive(63, 3, 519)
        assert rep.s1_size > 0 and rep.s2_size > 0
        assert sorted(set(seen)) == [("phi1", "S1"), ("phi2", "S2")]
        assert len(seen) == rep.size

    @given(st.integers(min_value=0, max_value=58),
           st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=2),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=120)
    def test_weight_preserved_or_violation_out_of_hypothesis(self, p1, p2, p4, p7):
        d, N = 63, 3
        lam = {i: m for i, m in {1: p1, 2: p2, 4: p4, 7: p7}.items() if m}
        try:
            img = apply_map(lam, d, N)
        except MapViolation:
            # the maps only promise nonnegativity once n >= 7d+14
            assert weight_s(lam, d, N) < 7 * d + 14
        else:
            assert weight_t(img, d) == weight_s(lam, d, N)
            assert all(m > 0 for m in img.values())


class TestLemmaBounds:
    @given(st.dictionaries(st.integers(min_value=1, max_value=14),
                           st.integers(min_value=0, max_value=30), max_size=6))
    @settings(max_examples=100)
    def test_no_s2_at_n_equals_2(self, mults):
        # at N = 2 the class test is p_1 + alpha >= 0, which alpha >= 0 settles
        lam = {i: m for i, m in sorted(mults.items()) if m}
        assert stats(lam, 63, 2, table(63, 2)).cls == "S1"

    def test_p2_bound_holds_at_weaker_d_bounds(self):
        # d = 35, N = 3 is inside the p_2 >= 8 regime (d >= max(31, 9N-13,
        # 13N-31)) but outside the injection's d >= max(63, 46N-79)
        d, N = 35, 3
        assert d >= max(31, 9 * N - 13, 13 * N - 31)
        assert d < 63
        for n in range(7 * d + 14, 7 * d + 17):
            for lam in enumerate_partitions(s_set(d, N), n):
                st_ = stats(lam, d, N, table(d, N))
                if st_.cls == "S2":
                    assert lam[2] >= 8


class TestVerifyInjection:
    def test_s2_empty_at_n2(self):
        rep = verify_injection(63, 2, 455)
        assert rep.status == "holds"
        assert rep.s2_size == 0
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
        # n beyond the table horizon cap is refused before any table is built
        with pytest.raises(ValueError, match="horizon cap"):
            verify_injection(63, 2, MAX_HORIZON + 1)

    def test_negative_n_rejected(self):
        for force in (False, True):
            with pytest.raises(ValueError, match="n must be >= 0"):
                verify_injection(63, 2, -5, force=force)

    def test_partition_cap_refused_before_enumeration(self, monkeypatch):
        d, N, n = 63, 2, 520
        rho_s = rho(s_set(d, N), n)
        monkeypatch.setattr(injection, "MAX_PARTITIONS", rho_s)
        assert verify_injection(d, N, n).size == rho_s
        monkeypatch.setattr(injection, "MAX_PARTITIONS", rho_s - 1)

        def never(A, n):
            raise AssertionError("enumerated a cell over the cap")

        monkeypatch.setattr(maps, "enumerate_partitions", never)
        with pytest.raises(ValueError, match=f"{rho_s} partitions"):
            verify_injection(d, N, n)


def _sweep_cells():
    """Cells over d = 31..250 and N = 2..12 with rho(S, n) <= 10^4: small n,
    n around 7d+14, and forced d = 31/40 cells whose exhaustive check
    fails with every kind of witness."""
    cells = {(31, 5, 427), (31, 7, 305), (31, 9, 183), (31, 8, 161),
             (40, 5, 184), (31, 10, 122), (63, 3, 519), (151, 5, 1140),
             (63, 2, 18 * 63), (250, 3, 18 * 250), (31, 12, 11 * 31),
             (31, 30, 10)}  # d - N - 1 = 0: stats is undefined
    for d in (31, 40, 63, 127, 250):
        for N in range(2, 13):
            for n in (0, d, 5 * d, 7 * d + 13, 7 * d + 14, 8 * d, 11 * d):
                cells.add((d, N, n))
    for d, N, n in sorted(cells):
        try:
            if rho(s_set(d, N), n) <= 10 ** 4:
                yield d, N, n
        except RefusedInput:
            yield d, N, n  # not constructible: both paths report it alike


def _witness_kind(witness):
    if "error" in witness:
        return "stats"
    if "check" in witness:
        return witness["check"]
    return witness["piece"] + (".negative" if "negative" in witness else ".weight")


class TestStructuralCheck:
    """verify_injection against its oracle, verify_injection_exhaustive."""

    def test_agrees_with_the_exhaustive_check(self):
        witnessed = set()
        s2_passing = 0
        for d, N, n in _sweep_cells():
            # an in-hypothesis cell is evaluated alike with and without force
            for force in (False,) if in_hypothesis(d, N, n) else (False, True):
                rep = verify_injection(d, N, n, force)
                oracle = verify_injection_exhaustive(d, N, n, force)
                assert vars(rep) == vars(oracle), \
                    (d, N, n, force)
                assert list(rep.checks) == list(oracle.checks)
                s2_passing += rep.s2_size > 0 and rep.passed
                witnessed.update(map(_witness_kind, oracle.witnesses))
                witnessed.update(k for k, v in oracle.checks.items() if not v)
        assert s2_passing > 0
        assert {"stats", "p2_lower_bound", "phi2.negative", "injective"} <= witnessed

    def test_s2_walk_yields_exactly_the_s2_partitions(self):
        # (32, 12, 69), (31, 11, 71) and (32, 9, 107) each have a member
        # that fits the alpha budget exactly, at the walk's pruning bound
        for d, N, n in [(63, 3, 519), (151, 5, 1140), (31, 5, 427), (40, 5, 184),
                        (63, 4, 900), (100, 6, 1300), (32, 12, 69), (31, 11, 71),
                        (32, 9, 107)]:
            S, els = s_set(d, N), injection._element_table(d, N, n)
            walked = [tuple(lam.items())
                      for lam in injection._s2_members(N, n, els)]
            assert len(walked) == len(set(walked))
            assert set(walked) == {tuple(lam.items())
                                   for lam in enumerate_partitions(S, n)
                                   if stats(lam, d, N, els).cls == "S2"}, (d, N, n)

    def test_passing_cells_neither_enumerate_nor_map_s1(self, monkeypatch):
        def never(*args):
            raise AssertionError("walked S1")

        monkeypatch.setattr(maps, "enumerate_partitions", never)
        monkeypatch.setattr(maps, "phi1", never)
        rep = verify_injection(63, 3, 519)
        assert rep.status == "holds" and rep.s2_size == 1
        # near the partition cap: 785,314 partitions, none of them walked
        rep = verify_injection(63, 2, 2000)
        assert rep.status == "holds" and rep.size == rep.s1_size == 785314

    @pytest.fixture
    def enumerated(self, monkeypatch):
        """The n of every exhaustive enumeration, in call order."""
        calls = []
        real = maps.enumerate_partitions
        monkeypatch.setattr(maps, "enumerate_partitions",
                            lambda A, n: calls.append(n) or real(A, n))
        return calls

    def test_failing_premise_alone_reaches_the_oracle(self, monkeypatch, enumerated):
        # d = 31, N = 10: x_12 < y_12 and x_12 <= 183.  The S2 walk is
        # emptied, so only the premise can send the cell to the oracle.
        assert x_closed(31, 10, 12) < y_closed(31, 12) and x_closed(31, 10, 12) <= 183
        monkeypatch.setattr(injection, "_s2_members", lambda *args: iter(()))
        rep = verify_injection(31, 10, 183, force=True)
        assert enumerated == [183]
        assert not rep.checks["stats_defined"]
        assert rep.witnesses[0]["error"].startswith("x_12 - y_12")

    def test_colliding_s2_images_reach_the_oracle(self, monkeypatch, enumerated):
        # each S2 member walked twice: two S2 partitions with one image
        walk = injection._s2_members
        monkeypatch.setattr(injection, "_s2_members", lambda *args: [*walk(*args)] * 2)
        rep = verify_injection(63, 3, 519)
        assert enumerated == [519]
        assert rep.status == "holds" and rep.s2_size == 1

    def test_s1_collision_at_p1_zero_reaches_the_oracle(self, monkeypatch, enumerated):
        # the forced cell's one S2 member {1: 11, 2: 13} (beta = 0) settles
        # structurally.  phi2 patched to give it the phi1 image of {3: 7}, an
        # S1 partition of 427 with p_1 = 0: its preimage p_1 is exactly 0
        assert verify_injection(31, 3, 427, force=True).s2_size == 1 and enumerated == []
        assert list(injection._s2_members(3, 427, injection._element_table(31, 3, 427))) \
            == [{1: 11, 2: 13}]
        image = mapped(phi1, {3: 7}, 31, 3)
        assert weight_t(image, 31) == 7 * x_closed(31, 3, 3) == 427
        monkeypatch.setattr(maps, "phi2", lambda *args: image)
        verify_injection(31, 3, 427, force=True)
        assert enumerated == [427]

    def test_p2_boundary_witnessed(self, enumerated):
        # the forced cell's one S2 member {2: 7} is walked and fails p_2 >= 8;
        # the rerun reports it, the witness formatted as in the report
        els = injection._element_table(31, 3, 224)
        assert list(injection._s2_members(3, 224, els)) == [{2: 7}]
        rep = verify_injection(31, 3, 224, force=True)
        assert enumerated == [224]
        assert rep.s2_size == 1 and not rep.checks["p2_lower_bound"]
        assert json.dumps(rep.block[1][0][3]["witnesses"], separators=(",", ":")) == \
            '[{"check":"p2_lower_bound","source":{"2":7},"p2":7}]'

    def test_checks_failed_after_the_fifth_witness_are_kept(self):
        # the forced cell has 50 witnesses: its first five are stats errors,
        # and p2_lower_bound fails only from the 44th on
        d, N, n = 31, 9, 300
        failed, els = [], injection._element_table(d, N, n)
        for lam in partitions_list(s_set(d, N), n):
            maps._map_checked(lam, d, N, els, failed)
        assert len(failed) == 50 and all("error" in w for w in failed[:5])
        rep = verify_injection(d, N, n, force=True)
        assert rep.witnesses == failed[:5]
        assert [k for k, v in rep.checks.items() if not v] == [
            "classification_partitions", "stats_defined", "images_valid",
            "injective", "p2_lower_bound"]

    def test_piece_separation_failure_witnessed(self, monkeypatch, enumerated):
        # phi2 patched to put q_2 = 2 in piece beta = 1 of a beta = 0 member
        real = maps.phi2
        monkeypatch.setattr(maps, "phi2", lambda *args: {**real(*args), 2: 2})
        rep = verify_injection(63, 3, 519)
        assert enumerated == [519]
        assert [k for k, v in rep.checks.items() if not v] == ["piece_separation"]
        assert rep.witnesses == [{"check": "piece_separation", "source": {1: 7, 2: 8},
                                  "beta": 0, "q2": 2}]


class TestElementTable:
    @pytest.mark.parametrize("d", [31, 40, 63, 127])
    def test_is_the_elements_of_both_sets(self, d):
        # x_i for every x_i <= n and y_i alike, and both to i = 5 at least
        for N in range(2, 12):
            for n in (0, 1, 64, 2 * d, 7 * d + 14, 11 * d):
                els = injection._element_table(d, N, n)
                xs = elements(s_set(d, N), max(n, els[-1][0]))
                ys = elements(t_set(5, d), els[-1][1])
                assert els == [(0, 0, 0), *((x, y, x - y) for x, y in zip(xs, ys))]
                assert len(els) - 1 == max(5, len(elements(s_set(d, N), n))), (d, N, n)

    def test_y5_past_n(self):
        # the forced cell maps its S2 member {2: 2} to {1: 17, 5: 1}, with
        # x_5 = 92 > n: the table holds y_5 = d + 16 for that image
        els = injection._element_table(31, 3, 64)
        assert els[5] == (92, 47, 45)
        assert mapped(phi2, {2: 2}, 31, 3) == {1: 17, 5: 1}
        rep = verify_injection(31, 3, 64, force=True)
        assert rep.s2_size == 1 and not rep.passed


class TestVerifyRange:
    def test_cells_come_back_in_input_order(self):
        # (63, 3) has S2 members from n = 455 on, so each cell walks some
        cells = range(455, 471)
        assert [rep.block for rep in verify_range(63, 3, cells)] == \
            [verify_injection(63, 3, n).block for n in cells]

    def test_last_cell_runs_first(self, monkeypatch):
        ran = []
        monkeypatch.setattr(injection, "verify_injection",
                            lambda d, N, n, force: ran.append(n) or n)
        assert verify_range(63, 2, (455, 456, 457)) == [455, 456, 457]
        assert ran == [457, 455, 456]
        with pytest.raises(RefusedInput, match="n must be >= 0, got -1"):
            verify_range(63, 2, (-1, 0, 1))
        assert ran == [457, 455, 456]  # a negative first n runs no cell
