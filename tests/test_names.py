"""A count table's name is its one identity: each row side's name against
the name formatted here from its part set's definition, names read back
into their fields, entries stored under literal names, and the part sets
a grid enumerates (only to build a table)."""

import math

import pytest

from alder import cache, cli, counting
from alder.counting import r_of
from alder.inequalities import STATEMENTS, GridSpec, n_hat
from alder.report import RefusedInput
from oracles import pm_set, search_counterexamples, verify


def q(a, d):
    return f"q.a{a}.d{d}"


def rho(modulus, residues, exclusions=()):
    """The name of rho over {x >= 1 : x mod modulus in residues} minus
    exclusions, from those fields."""
    rs, xs = (",".join(map(str, sorted(set(v)))) for v in (residues, exclusions))
    return f"rho.m{modulus}.r{rs}" + (f".x{xs}" if xs else "")


def pm(a, modulus, exclusions=()):
    """The name of rho over x == +-a (mod modulus) minus exclusions."""
    return rho(modulus, {a % modulus, (modulus - a) % modulus}, exclusions)


def t_family(s, d):
    """T(s, d) by its definition: x == 1, d+2, d+4, ..., d+2^(s-1) (mod 2d)."""
    return rho(2 * d, [1, *(d + 2 ** j for j in range(1, s))])


def s_family(d, N):
    """S(d, N) by its definition: x == +-1 (mod d-N+3), minus d-N+2."""
    return pm(1, d - N + 3, [d - N + 2])


def big_q(a, d, minus):
    """The name of Q_d^(a), Q_d^(a,-) or Q_d^(a,--) from its set, or None
    outside 1 <= a < d+3."""
    if not 1 <= a < d + 3:
        return None
    return pm(a, d + 3, ((), (d + 3 - a,), (a, d + 3 - a))[minus])


def expected_sides(name, x, y):
    """The (lhs, rhs) names of statement ``name``'s row at the axis pair
    (x, y), each from its part set's key or (a, d), or None if the pair is
    outside the domain of a count it reads."""
    if name == "shift":
        N, d = x, y
        if d - N + 3 < 3 or d < 1:
            return None
        S = s_family(d, N)
        assert S == big_q(1, d - N, 1)  # S(d, N) is the set of Q_{d-N}^(1,-)
        return q(1, d), S
    a, d = x, y
    if name == "ceiling":
        return (q(a, d), q(1, math.ceil(d / a))) if d >= 1 else None
    if name == "a-to-1":
        if (d + 3) % a:
            return None
        lhs, rhs = big_q(a, d, 1), big_q(1, (d + 3) // a - 3, 1)
        return (lhs, rhs) if lhs and rhs else None
    if name == "modified-st":
        m = d + n_hat(a, d) - a
        if big_q(a, d, 1) is None or m < 3 or a >= m:
            return None
        return pm(a, m, [m - a]), big_q(a, d, 1)
    minus = {"delta": 0, "gen-kp": 1, "gen-dkst": 2}[name]
    Q = big_q(a, d, minus)
    return (q(a, d), Q) if Q and d >= 1 else None


AXES = {"N": range(0, 6), "a": range(1, 7), "d": range(0, 13)}


@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_each_side_names_its_part_set(name):
    statement = STATEMENTS[name]
    first, second = statement.axes
    seen = 0
    for x in AXES[first]:
        for y in AXES[second]:
            expected = expected_sides(name, x, y)
            try:
                row = statement.row(x, y)
            except RefusedInput:
                assert expected is None, (name, x, y)
                continue
            assert (row.lhs.count, row.rhs.count) == expected, (name, x, y)
            seen += 1
            for side in row[:2]:  # each rho name reads back into the fields it is made of
                if side.count.startswith("rho."):
                    assert rho(*counting._fields(side.count)) == side.count
    assert seen


@pytest.mark.parametrize("minus", [0, 1, 2])
def test_single_residue_q_sets(minus):
    # 2a = d+3: the two residues +-a are one class, and Q^(--) excludes a once
    assert counting.big_q_name(3, 3, minus) == big_q(3, 3, minus)
    assert rho(*counting._fields(counting.big_q_name(3, 3, minus))) == pm(
        3, 6, ((), (3,), (3, 3))[minus])


def test_named_sets_match_their_families():
    for d in range(1, 70):
        for s in range(1, r_of(d) + 1):
            assert counting.t_set(s, d) == t_family(s, d)
        for N in range(0, d + 1):
            assert counting.s_set(d, N) == s_family(d, N) == big_q(1, d - N, 1)
    # S(63, 2) and Q_61^(1,-) are one name, so one table
    assert counting.s_set(63, 2) == counting.big_q_name(1, 61, 1) == pm_set(1, 64, [63])


@pytest.mark.parametrize("name,make,build", [
    ("q.a5.d300", lambda: counting.q_name(5, 300),
     lambda h: counting._build_gap_table(5, 300, h)),
    ("rho.m308.r5,303.x303", lambda: counting.big_q_name(5, 305, 1),
     lambda h: counting._build_pm_table("rho.m308.r5,303.x303", h)),
    ("g.d63", lambda: counting.g_name(63), lambda h: counting._build_g_table(63, h))])
def test_entries_under_literal_names_load_without_a_build(tmp_path, monkeypatch,
                                                          name, make, build):
    counts = build(700)
    cache.store(tmp_path, name, counts)
    for builder in ("_build", "_build_pm_table", "_build_part_table", "_build_gap_table",
                    "_build_g_table"):
        monkeypatch.setattr(counting, builder, lambda *args: pytest.fail("built"))
    monkeypatch.setattr(counting, "_tables", {})
    counting.set_cache_dir(tmp_path)
    assert make() == name
    assert list(counting.column(name, 700)) == counts


class TestWork:
    """A row factory names its tables: a grid enumerates a part set only
    to build a rho table, so a warm cache enumerates none."""

    GRIDS = [
        ("verify", "shift", {"N_values": (2, 3), "d_values": tuple(range(63, 73)),
                             "n_max": 80}),
        ("verify", "gen-kp", {"a_values": (1, 2, 3), "d_values": tuple(range(1, 40)),
                              "n_max": 1}),
        ("verify", "gen-dkst", {"a_values": (1, 2), "d_values": tuple(range(1, 30)),
                                "n_max": 30, "evaluate_out_of_hypothesis": True}),
        ("verify", "ceiling", {"a_values": (1, 2, 3), "d_values": tuple(range(1, 20)),
                               "n_max": 40}),
        ("verify", "a-to-1", {"a_values": (1, 2, 3), "d_values": tuple(range(1, 30)),
                              "n_max": 30}),
        ("verify", "delta", {"a_values": (1, 2), "d_values": tuple(range(1, 20)),
                             "n_max": 30}),
        ("search", "delta", {"a_values": (1, 2), "d_values": tuple(range(1, 20)),
                             "n_max": 40}),
        ("search", "shift", {"N_values": (2, 3, 4), "d_values": tuple(range(5, 25)),
                             "n_max": 40}),
        ("verify", "modified-st", {"a_values": (1, 2, 3), "d_values": tuple(range(1, 40)),
                                   "n_max": 30, "evaluate_out_of_hypothesis": True})]

    @pytest.fixture
    def work(self, monkeypatch):
        """Lists of the part sets enumerated and the rho tables built, by name."""
        walked, built = [], []
        elements = counting.elements
        monkeypatch.setattr(counting, "elements", lambda name, limit:
                            walked.append(name) or elements(name, limit))
        for builder in ("_build_pm_table", "_build_part_table"):
            build = getattr(counting, builder)
            monkeypatch.setattr(counting, builder, lambda name, h, build=build:
                                built.append(name) or build(name, h))
        monkeypatch.setattr(counting, "_tables", {})
        return walked, built

    @staticmethod
    def run(verb, name, spec):
        return (verify if verb == "verify" else search_counterexamples)(name, spec).records

    @pytest.mark.parametrize("verb,name,axes", GRIDS)
    def test_sets_only_for_builds(self, work, verb, name, axes):
        walked, built = work
        self.run(verb, name, GridSpec(**axes))
        assert len(walked) <= len(set(built))

    @pytest.mark.parametrize("verb,name,axes", GRIDS)
    def test_warm_cache_builds_no_set(self, tmp_path, work, verb, name, axes):
        walked, built = work
        counting.set_cache_dir(tmp_path)
        cold = self.run(verb, name, GridSpec(**axes))
        del walked[:], built[:]
        counting._tables.clear()
        assert self.run(verb, name, GridSpec(**axes)) == cold
        assert walked == [] and built == []

    @pytest.mark.parametrize("argv,walks", [
        # a structural cell walks no set: only the T table's coin-change
        # build does, as the S table is a triple product
        ("inject --d 63 --N 2 --n 455..470", 1),
        ("inject --d 63 --N 3 --n 450..700", 1),
        # the S table walks none, then one walk for both largest-part distributions
        ("verify anchors --d 63 --N 2", 1)])
    def test_cells_build_sets_only_for_tables(self, work, capsys, argv, walks):
        walked, built = work
        assert cli.main(argv.split()) == 0
        capsys.readouterr()
        assert len(walked) == walks and len(built) == (1 if argv.startswith("verify") else 2)
