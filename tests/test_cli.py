"""CLI surface: formats, exit codes, caching, determinism across --jobs."""

import collections
import contextlib
import csv
import hashlib
import importlib
import io
import json
import struct
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alder import cache, cli, commands, counting, inequalities, injection, maps
from alder.counting import s_set
from alder.report import RefusedInput
from conftest import child_env, rewrite_entry
from oracles import gen_kp_sets, search_counterexamples, verify


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


class TestCount:
    def test_delta_stream_of_zeros(self, capsys):
        code, out, _ = run_cli(
            ["count", "--kind", "delta", "--a", "1", "--d", "1", "--n", "1..20"],
            capsys)
        assert code == 0
        lines = json_lines(out)
        records, summary = lines[:-1], lines[-1]
        assert len(records) == 20
        assert all(rec["value"] == "0" for rec in records)
        assert summary["summary"]["cells"] == 20

    def test_rho_over_t(self, capsys):
        code, out, _ = run_cli(
            ["count", "--kind", "rho", "--set", "T", "--s", "5", "--d", "63",
             "--n", "0"], capsys)
        assert code == 0
        assert json_lines(out)[0]["value"] == "1"

    def test_qm_paper_value(self, capsys):
        code, out, _ = run_cli(
            ["count", "--kind", "Qm", "--a", "1", "--d", "61", "--n", "321"],
            capsys)
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["value"] == "29"
        assert rec["params"] == {"kind": "Qm", "a": 1, "d": 61, "n": 321}

    def test_canonical_field_order(self, capsys):
        _, out, _ = run_cli(
            ["count", "--kind", "q", "--a", "1", "--d", "5", "--n", "7"], capsys)
        first = out.splitlines()[0]
        assert list(json.loads(first).keys()) == \
            ["v", "cmd", "params", "status", "value", "witness"]

    def test_usage_errors_exit_2(self, capsys):
        assert run_cli(["count", "--kind", "q", "--n", "5"], capsys)[0] == 2
        assert run_cli(["count", "--kind", "nope", "--a", "1", "--d", "1",
                        "--n", "5"], capsys)[0] == 2
        assert run_cli(["count", "--kind", "rho", "--set", "T", "--s", "9",
                        "--d", "3", "--n", "5"], capsys)[0] == 2  # collision
        assert run_cli(["count", "--kind", "q", "--a", "1", "--d", "1",
                        "--n", "9..3"], capsys)[0] == 2
        assert run_cli(["count", "--kind", "q", "--a", "1", "--d", "1",
                        "--n", "5", "--jobs", "0"], capsys)[0] == 2
        for theorem in ("a-to-1", "gen-kp", "gen-dkst", "modified-st"):  # a >= 1
            assert run_cli(["verify", theorem, "--a", "0", "--d", "5",
                            "--n-max", "10"], capsys)[0] == 2
        for force in ([], ["--force"]):  # n >= 0, as for inject
            assert run_cli(["verify", "shift", "--N", "2", "--d", "63", "--n-min",
                            "-3", "--n-max", "70", *force], capsys)[0] == 2
            assert run_cli(["verify", "gen-kp", "--a", "2", "--d", "19", "--n-min",
                            "-2", "--n-max", "3", *force], capsys)[0] == 2
        for argv in ("count --kind rho --set T --d 63 --n 5",  # a missing flag
                     "count --kind rho --set S --d 63 --n 5",
                     "count --kind rho --d 63 --n 5",
                     "count --kind g --n 5",
                     "search --kind bogus --d 1 --n-max 5",
                     "verify gen-kp --d 5 --n-max 5",
                     "verify anchors --d 63",
                     "count --kind q --a 1 --d 1 --n=-1",  # a value out of domain
                     "count --kind g --d 63 --n=-1",
                     "count --kind g --d 2 --n 5",  # r_of(2) = 1: no G table
                     "count --kind Q --a 0 --d 4 --n 5"):
            assert run_cli(argv.split(), capsys)[:2] == (2, ""), argv

    @pytest.mark.parametrize("argv,refusal", [
        ("rho --set T --d 5", "rho over T needs --s and --d"),
        ("rho --set T --s 2", "rho over T needs --s and --d"),
        ("rho --set S --d 63", "rho over S needs --N and --d"),
        ("rho --d 63", "rho needs --set T or --set S"),
        ("g --d 2", "kind g: need r_of(d) >= 2, got d=2")])  # the CLI's name of the count
    def test_count_refusals_name_what_is_missing(self, capsys, argv, refusal):
        code, out, err = run_cli(["count", "--kind", *argv.split(), "--n", "5"], capsys)
        assert (code, out, err) == (2, "", f"error: {refusal}\n")

    @pytest.mark.parametrize("argv", [
        "count --kind q --a 1 --d 1 --n 5",
        "search --kind delta --a 1 --d 1 --n-max 5"])
    def test_force_only_where_hypotheses_apply(self, capsys, argv):
        # count has no hypotheses and search ignores them: --force did nothing
        assert run_cli(argv.split(), capsys)[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv.split(), "--force"])
        assert exc.value.code == 2

    def test_over_long_range_exits_2(self, capsys):
        # one value over the cap; with --a 0, code that built the range first
        # would fail cheaply at its first cell, with another message
        code, out, err = run_cli(
            ["count", "--kind", "q", "--a", "0", "--d", "1", "--n",
             f"1..{commands.MAX_RANGE_VALUES + 1}"], capsys)
        assert code == 2 and out == ""
        assert f"more than {commands.MAX_RANGE_VALUES}" in err

    def test_over_horizon_cap_exits_2(self, capsys):
        code, out, err = run_cli(
            ["count", "--kind", "q", "--a", "1", "--d", "2", "--n",
             str(counting.MAX_HORIZON + 1)], capsys)
        assert code == 2 and out == ""
        assert f"beyond the table horizon cap {counting.MAX_HORIZON}" in err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def broken(count, n):
            raise RuntimeError("table invariant broken")
        monkeypatch.setattr(counting, "column", broken)  # count's one table read
        code, out, err = run_cli(
            ["count", "--kind", "q", "--a", "1", "--d", "2", "--n", "1..3"], capsys)
        assert code == 3 and out == ""
        assert "internal error: RuntimeError: table invariant broken" in err

    @pytest.mark.parametrize("argv,target", [
        ("count --kind q --a 1 --d 2 --n 1..3", "counting"),
        ("inject --d 63 --N 2 --n 455", "injection")])
    def test_invariant_value_error_exits_3(self, capsys, monkeypatch, argv, target):
        # only refused input (RefusedInput) is a usage error; a plain
        # ValueError is a broken invariant, so an internal error
        def broken(*args, **kwargs):
            raise ValueError("invariant broken")
        if target == "counting":
            monkeypatch.setattr(counting, "column", broken)
        else:
            monkeypatch.setattr(injection, "verify_injection", broken)
        code, out, err = run_cli(argv.split(), capsys)
        assert code == 3 and out == ""
        assert "internal error: ValueError: invariant broken" in err

    def test_delta_mm_hyphen_alias(self, capsys):
        code, out, _ = run_cli(
            ["count", "--kind", "delta-mm", "--a", "4", "--d", "417",
             "--n", "424"], capsys)
        assert code == 0
        assert json_lines(out)[0]["value"] == "0"


class TestVerify:
    def test_xy_diff_exit_0(self, capsys):
        code, out, _ = run_cli(["verify", "xy-diff", "--d", "63", "--N", "2"],
                               capsys)
        assert code == 0
        assert json_lines(out)[-1]["summary"]["holds"] == 12

    def test_gen_kp_exempt_cell(self, capsys):
        code, out, _ = run_cli(
            ["verify", "gen-kp", "--a", "4", "--d", "417", "--n-max", "500"],
            capsys)
        assert code == 0
        exempt = [rec for rec in json_lines(out)[:-1]
                  if rec["status"] == "exempt"]
        assert len(exempt) == 1
        assert exempt[0]["params"]["n"] == 424 and exempt[0]["value"] == "-1"

    def test_littlelemon_alias(self, capsys):
        code, out, _ = run_cli(
            ["verify", "littlelemon", "--d", "105", "--n-min", "107",
             "--n-max", "300"], capsys)
        assert code == 0
        assert json_lines(out)[-1]["summary"]["holds"] == 194

    def test_littlelemon_takes_only_N_4(self, capsys):
        # littlelemon is shift at N = 4; another --N is refused, not replaced
        for N in ("3", "2..4"):
            code, out, err = run_cli(["verify", "littlelemon", "--d", "105",
                                      "--N", N, "--n-max", "110"], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: littlelemon is shift at N = 4, got --N {N}\n"
        code, out, _ = run_cli(["verify", "littlelemon", "--d", "105", "--N", "4",
                                "--n-max", "110"], capsys)
        assert code == 0 and json_lines(out)[-1]["summary"]["holds"] == 4

    def test_anchors(self, capsys):
        code, out, _ = run_cli(["verify", "anchors", "--d", "63", "--N", "2"],
                               capsys)
        assert code == 0

    def test_failure_exits_1(self, capsys, monkeypatch):
        # no in-hypothesis failures exist mathematically, so force one
        column = inequalities.column  # a rho table of 10**6s; q tables stay
        monkeypatch.setattr(inequalities, "column", lambda count, n: (
            column(count, n) if count.startswith("q.") else (10 ** 6,) * (n + 1)))
        code, out, _ = run_cli(
            ["verify", "shift", "--N", "2", "--d", "63", "--n-min", "65",
             "--n-max", "65"], capsys)
        assert code == 1
        rec = json_lines(out)[0]
        assert rec["status"] == "fails"
        assert rec["witness"] == {"q": "2", "Q": "1000000"}
        assert rec["value"] == "-999998"

    def test_forced_ceiling_cell_has_no_witness(self, capsys):
        code, out, _ = run_cli(
            ["verify", "ceiling", "--a", "2", "--d", "1", "--n-max", "1",
             "--force"], capsys)
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["status"] == "out-of-hypothesis"
        assert rec["value"] == "-1" and rec["witness"] is None

    def test_t_monotone(self, capsys):
        code, out, _ = run_cli(
            ["verify", "t-monotone", "--d", "63", "--n-max", "150"], capsys)
        assert code == 0

    def test_modified_st(self, capsys):
        code, _, _ = run_cli(
            ["verify", "modified-st", "--a", "4", "--d", "417",
             "--n-max", "100"], capsys)
        assert code == 0

    def test_ranges_must_be_single_where_required(self, capsys):
        code, _, _ = run_cli(
            ["verify", "anchors", "--d", "63..64", "--N", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("theorem", ["gen-kp", "gen-dkst", "modified-st"])
    def test_a_d_statements_take_ranges(self, capsys, theorem):
        code, out, _ = run_cli(
            ["verify", theorem, "--a", "3..4", "--d", "315..316", "--n-min", "20",
             "--n-max", "25"], capsys)
        assert code == 0
        params = [(r["params"]["a"], r["params"]["d"], r["params"]["n"])
                  for r in json_lines(out)[:-1]]
        assert params == [(a, d, n) for a in (3, 4) for d in (315, 316)
                          for n in range(20, 26)]

    def test_n_min_honoured(self, capsys):
        code, out, _ = run_cli(
            ["verify", "gen-kp", "--a", "4", "--d", "417", "--n-min", "420",
             "--n-max", "425"], capsys)
        assert code == 0
        records = json_lines(out)[:-1]
        assert [rec["params"]["n"] for rec in records] == list(range(420, 426))
        assert [rec["params"]["n"] for rec in records
                if rec["status"] == "exempt"] == [424]
        assert json_lines(out)[-1]["summary"] == {"cells": 6, "exempt": 1, "holds": 5}

    def test_default_horizon_applied(self, capsys):
        code, out, _ = run_cli(["verify", "gen-kp", "--a", "4", "--d", "417"],
                               capsys)
        assert code == 0
        assert json_lines(out)[-1]["summary"]["cells"] == 1200  # a >= 2 default
        code, out, _ = run_cli(
            ["verify", "t-monotone", "--d", "31"], capsys)
        assert code == 0
        assert json_lines(out)[:-1][0]["params"]["n_max"] == 2000

    @pytest.mark.parametrize("argv", [
        "shift --N 2 --d 63 --n-max -5", "shift --N 2 --d 63 --n-max 0",
        "t-monotone --d 63 --n-max -5"])
    def test_explicit_n_max_below_1_exits_2(self, capsys, argv):
        # only an omitted --n-max takes the default horizon; a given one is
        # refused like any other input, as search refuses it
        code, out, err = run_cli(["verify", *argv.split()], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_t_monotone_refuses_negative_n_max_before_any_build(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "_tables", {})
        code, out, err = run_cli("verify t-monotone --d 5 --n-max -3".split(), capsys)
        assert (code, out, err) == (2, "", "error: n must be >= 0, got -3\n")
        assert counting._tables == {}

    def test_n_max_over_horizon_cap_exits_2(self, capsys):
        # refused at the first table build, before any smaller table is built;
        # a table refusal refuses the grid, it never skips the pair
        for argv in (["shift", "--N", "2", "--d", "63"], ["t-monotone", "--d", "31"],
                     ["gen-kp", "--a", "2", "--d", "19", "--force"],
                     ["ceiling", "--a", "2", "--d", "3"],
                     ["a-to-1", "--a", "2", "--d", "5"],
                     ["modified-st", "--a", "4", "--d", "417"]):
            built = set(counting._tables)
            code, out, err = run_cli(
                ["verify", *argv, "--n-max", str(counting.MAX_HORIZON + 1)], capsys)
            assert code == 2 and out == ""
            assert "horizon cap" in err
            assert set(counting._tables) == built

    @pytest.mark.parametrize("argv,n_max", [
        # the first rows fit; then a = 2 reads Q at 2 n_max, a = 3 reads T at
        # 3 ceil(n_max / 3)
        ("a-to-1 --a 1..2 --d 5", counting.MAX_HORIZON // 2 + 1),
        ("modified-st --a 1..3 --d 417 --force", counting.MAX_HORIZON)])
    def test_over_horizon_grid_refused_before_any_build(self, capsys, monkeypatch,
                                                        argv, n_max):
        built = []
        for name in ("_build_pm_table", "_build_part_table", "_build_gap_table",
                     "_build_g_table"):
            monkeypatch.setattr(counting, name, lambda *args, name=name: built.append(name))
        code, out, err = run_cli(["verify", *argv.split(), "--n-max", str(n_max)], capsys)
        assert code == 2 and out == ""
        assert f"beyond the table horizon cap {counting.MAX_HORIZON}" in err
        assert built == []

    @pytest.mark.parametrize("argv", [
        "rho --set T --s 1 --d 1", "rho --set S --N 2 --d 63", "g --d 63", "l --d 63",
        "q --a 1 --d 1", "delta --a 2 --d 4", "Q --a 1 --d 4",
        "q --a 0 --d 1", "rho --set T --s 0 --d 5",
        "rho --set S --N 9 --d 5"])  # invalid twice: the n refusal comes first
    def test_negative_first_n_refused_before_any_build(self, capsys, monkeypatch, argv):
        built = []
        for name in ("_build_pm_table", "_build_part_table", "_build_gap_table",
                     "_build_g_table"):
            monkeypatch.setattr(counting, name, lambda *args, name=name: built.append(name))
        code, out, err = run_cli(["count", "--kind", *argv.split(), "--n=-3..5000"], capsys)
        assert code == 2 and out == ""
        assert err == "error: n must be >= 0, got -3\n"
        assert built == []

    def test_over_horizon_grid_without_evaluated_cells_accepted(self, capsys, monkeypatch):
        # ceil(d/a) < 105 puts every cell out of hypothesis: nothing is read
        monkeypatch.setattr(counting, "MAX_HORIZON", 50)
        code, out, _ = run_cli(["verify", "gen-kp", "--a", "1..2", "--d", "10",
                                "--n-max", "60"], capsys)
        assert code == 0
        assert json_lines(out)[-1]["summary"] == {"cells": 120, "out-of-hypothesis": 120}

    @pytest.mark.parametrize("argv,refusal", [
        ("verify gen-kp --a -3..5 --d 10 --n-max 20", "a must be >= 1, got -3"),
        ("search --kind delta --a -3..5 --d 10 --n-max 20", "a must be >= 1, got -3"),
        ("count --kind q --a 1 --d 1 --n -3..5", "n must be >= 0, got -3"),
        ("inject --d 63 --N 2 --n -3..5", "n must be >= 0, got -3")])
    def test_negative_range_gets_its_own_refusal(self, capsys, argv, refusal):
        # not argparse's "expected one argument": the range reaches its check
        code, out, err = run_cli(argv.split(), capsys)
        assert code == 2 and out == ""
        assert err == f"error: {refusal}\n"

    def test_unbuildable_modified_st_pairs_skipped(self, capsys):
        # a degenerate T modulus skips its pair, with the reference refusal as
        # the reason; the grid goes on
        code, out, _ = run_cli(["verify", "modified-st", "--a", "1..12", "--d",
                                "1..399", "--n-max", "5"], capsys)
        assert code == 0
        want = {}
        for a in range(1, 13):
            for d in range(1, 400):
                try:
                    gen_kp_sets(a, d)
                except RefusedInput as exc:
                    want[(a, d)] = str(exc)
        lines = json_lines(out)
        skipped = {(r["params"]["a"], r["params"]["d"]): r["witness"]["reason"]
                   for r in lines[:-1] if r["status"] == "skipped"}
        assert skipped == want and len(want) == 157
        assert lines[-1]["summary"]["out-of-hypothesis"] == 77 * 5  # T modulus 2a

    @pytest.mark.parametrize("theorem", ["gen-kp", "gen-dkst"])
    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_undefined_q_pairs_skipped(self, capsys, theorem, force):
        code, out, _ = run_cli(["verify", theorem, "--a", "1..8", "--d", "1..3",
                                "--n-max", "5", *force], capsys)
        assert code == 0
        records = json_lines(out)[:-1]
        skipped = [r for r in records if r["status"] == "skipped"]
        assert [(r["params"], r["witness"]) for r in skipped] == [
            ({"a": a, "d": d}, {"reason": f"Q undefined for a = {a} >= d+3 = {d + 3}"})
            for a in range(1, 9) for d in range(1, 4) if a >= d + 3]
        assert len(skipped) == 12
        assert len(records) == 12 + 5 * 12  # one record per skipped pair

    @pytest.mark.parametrize("argv", [
        "verify gen-kp --a 1", "verify gen-kp --a 1 --force",
        "verify gen-dkst --a 1", "verify gen-dkst --a 1 --force",
        "verify ceiling --a 1", "verify ceiling --a 1 --force",
        "verify shift --N 0", "verify shift --N 0 --force",
        "search --kind delta --a 1", "search --kind shift --N 0"])
    def test_pairs_outside_the_q_domain_skipped(self, capsys, argv):
        # q_d^(a) needs d >= 1: the d = 0 pair is skipped, the grid goes on
        code, out, _ = run_cli([*argv.split(), "--d", "0..2", "--n-max", "3"], capsys)
        assert code == 0
        records = json_lines(out)[:-1]
        at_d0 = [r for r in records if r["params"]["d"] == 0]
        assert at_d0 == [r for r in records if r["status"] == "skipped"]
        assert {r["witness"]["reason"] for r in at_d0} <= {
            "need a >= 1 and d >= 1, got a=1, d=0"}
        # one record per n for shift, one per pair otherwise; search lists none
        assert len(at_d0) == (0 if "search" in argv else 3 if "shift" in argv else 1)
        _, rest, _ = run_cli([*argv.split(), "--d", "1..2", "--n-max", "3"], capsys)
        assert records[len(at_d0):] == json_lines(rest)[:-1]

    @pytest.mark.parametrize("argv", [
        "verify gen-kp --a 0..1 --d 5", "verify a-to-1 --a 0 --d 5",
        "search --kind delta --a 0..1 --d 5 --n-max 5"])
    def test_a_below_1_refuses_the_grid(self, capsys, argv):
        # unlike d < 1, an a < 1 is not skipped per pair: GridSpec refuses it
        code, out, err = run_cli(argv.split(), capsys)
        assert (code, out, err) == (2, "", "error: a must be >= 1, got 0\n")


class TestStartup:
    def test_cli_import_leaves_multiprocessing_out(self):
        # no command runs a process pool, so none pays for its import
        probe = ("import sys, alder.cli; "
                 "print('multiprocessing' in sys.modules, "
                 "'concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             check=True, text=True, env=child_env()).stdout
        assert out.split() == ["False", "False"]

    def test_cli_import_loads_only_what_every_command_needs(self):
        # compared with what was loaded before, since a site hook may preload
        # some of these modules
        probe = ("import sys; before = set(sys.modules); import alder; "
                 "bare = set(sys.modules) - before; import alder.cli; "
                 "print(sorted(m for m in bare if m.startswith('alder.'))); "
                 "cli = set(sys.modules) - before; import alder.injection; "
                 "print(sorted(cli & {'alder.injection', 'alder.parallel', 'alder.counting', "
                 "'alder.inequalities', 'alder.lemmas', 'alder.cache', 'csv', 'traceback', "
                 "'tempfile', "
                 "'pathlib', 'dataclasses', 'inspect'})); "
                 "print(sorted((set(sys.modules) - before) & {'dataclasses', 'inspect'}))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             check=True, text=True, env=child_env()).stdout
        assert out.splitlines() == ["[]", "[]", "[]"]

    def test_every_command_loads_only_the_standard_library(self, tmp_path):
        # alder has no runtime dependencies: every top-level module a run of
        # each command loads is alder or part of the standard library
        runs = [["count", "--kind", "delta_m", "--a", "2", "--d", "4", "--n", "1..50",
                 "--cache", str(tmp_path)],
                ["verify", "shift", "--N", "2", "--d", "63", "--n-max", "70",
                 "--format", "csv"],
                ["search", "--kind", "delta", "--a", "2", "--d", "1..10",
                 "--n-max", "20", "--format", "human"],
                ["inject", "--d", "63", "--N", "3", "--n", "455..458", "--jobs", "2"],
                ["verify", "anchors", "--d", "63", "--N", "2"]]
        probe = ("import sys; before = set(sys.modules); import alder.cli; "
                 f"codes = [alder.cli.main(argv) for argv in {runs!r}]; "
                 "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
                 "print(codes, sorted(new - set(sys.stdlib_module_names) "
                 "- {'alder'}), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              check=True, text=True, env=child_env())
        assert proc.stderr.splitlines()[-1] == "[0, 0, 0, 0, 0] []"

    def test_inject_loads_maps_only_to_map_a_partition(self):
        # an N = 2 range has no S2 member to map; a forced cell whose
        # premises fail maps every partition
        probe = ("import sys, alder.cli\n"
                 "for argv in (['inject', '--d', '63', '--N', '2', '--n', '455..460'],\n"
                 "             ['inject', '--d', '31', '--N', '9', '--n', '150', '--force']):\n"
                 "    code = alder.cli.main(argv)\n"
                 "    print('maps', code, 'alder.maps' in sys.modules, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              check=True, text=True, env=child_env())
        assert [line for line in proc.stderr.splitlines() if line.startswith("maps")] == \
            ["maps 0 False", "maps 0 True"]

    def test_help_and_usage_errors_load_no_engine(self):
        # only the parser: no other alder module and no json.  Compared with
        # what was loaded before, since a site hook may preload some modules
        probe = ("import sys; before = set(sys.modules); import alder.cli\n"
                 "codes = []\n"
                 "for argv in (['--help'], ['count', '--bogus']):\n"
                 "    try:\n"
                 "        alder.cli.main(argv)\n"
                 "    except SystemExit as exc:\n"
                 "        codes.append(exc.code)\n"
                 "new = set(sys.modules) - before\n"
                 "print(codes, sorted(m for m in new if m.startswith('alder')), "
                 "sorted(new & {'json', 'alder.commands'}), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              check=True, text=True, env=child_env())
        assert proc.stderr.splitlines()[-1] == "[0, 2] ['alder', 'alder.cli'] []"

    # recorded before the commands moved out of cli, at an 80-column terminal
    PARSER_OUTPUT = {
        "--help": (0, (
            "usage: alder [-h] {count,verify,inject,search} ...\n"
            "\n"
            "Exact counting and grid verification of Alder-type partition inequalities.\n"
            "\n"
            "positional arguments:\n"
            "  {count,verify,inject,search}\n"
            "    count               stream exact counter values\n"
            "    verify              verify one statement over a grid\n"
            "    inject              verify the piecewise injection per cell\n"
            "    search              scan for negative deltas\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"), ""),
        "verify --help": (0, (
            "usage: alder verify [-h] [--a A] [--d D] [--N N] [--n-min N_MIN]\n"
            "                    [--n-max N_MAX] [--format {json,csv,human}] [--jobs K]\n"
            "                    [--cache DIR] [--out FILE] [--force]\n"
            "                    {shift,littlelemon,gen-kp,gen-dkst,anchors,xy-diff,"
            "ceiling,a-to-1,modified-st,t-monotone}\n"
            "\n"
            "positional arguments:\n"
            "  {shift,littlelemon,gen-kp,gen-dkst,anchors,xy-diff,"
            "ceiling,a-to-1,modified-st,t-monotone}\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --a A\n"
            "  --d D\n"
            "  --N N\n"
            "  --n-min N_MIN\n"
            "  --n-max N_MAX\n"
            "  --format {json,csv,human}\n"
            "  --jobs K              accepted and ignored: every command runs in one\n"
            "                        process\n"
            "  --cache DIR\n"
            "  --out FILE\n"
            "  --force               also evaluate out-of-hypothesis cells\n"), ""),
        "count --bogus": (2, "", (
            "usage: alder count [-h] --kind KIND [--a A] [--d D] [--N N] [--s S]\n"
            "                   [--set {T,S}] --n N [--format {json,csv,human}] [--jobs K]\n"
            "                   [--cache DIR] [--out FILE]\n"
            "alder count: error: the following arguments are required: --kind, --n\n")),
    }

    @pytest.mark.parametrize("argv", PARSER_OUTPUT)
    def test_parser_output_is_pinned(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.setenv("NO_COLOR", "1")
        monkeypatch.delenv("FORCE_COLOR", raising=False)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split())
        out, err = capsys.readouterr()
        assert (exc.value.code, out, err) == self.PARSER_OUTPUT[argv]

    def test_count_and_inject_load_neither_statements_nor_cache(self, tmp_path):
        # they build reports but evaluate no statement; only --cache loads cache
        probe = ("import sys, alder.cli; "
                 "loaded = lambda: [m in sys.modules for m in "
                 "('alder.inequalities', 'alder.cache')]; "
                 "codes = [alder.cli.main(argv) for argv in ("
                 "['count', '--kind', 'delta', '--a', '1', '--d', '4', '--n', '1..50'], "
                 "['inject', '--d', '63', '--N', '2', '--n', '455'])]; "
                 "print(codes, loaded(), file=sys.stderr); "
                 "code = alder.cli.main(['count', '--kind', 'q', '--a', '3', '--d', "
                 f"'4', '--n', '5', '--cache', {str(tmp_path)!r}]); "
                 "print(code, loaded(), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              check=True, text=True, env=child_env())
        assert [line for line in proc.stderr.splitlines()
                if not line.startswith("alder ")] == [
            "[0, 0] [False, False]", "0 [False, True]"]

    @pytest.mark.parametrize("argv,loaded", [
        ("verify shift --N 2 --d 63 --n-max 70", (True, False)),
        ("verify gen-kp --a 1..2 --d 105 --n-max 20", (True, False)),
        ("search --kind delta --a 2 --d 1..10 --n-max 20", (True, False)),
        ("verify anchors --d 63 --N 2", (False, True)),
        ("verify xy-diff --d 63 --N 2", (False, True)),
        ("verify t-monotone --d 63 --n-max 100", (False, True)),
        ("verify t-monotone --d 63", (False, True)),  # its default horizon is in commands
    ])
    def test_grids_and_lemmas_load_their_own_module(self, argv, loaded):
        # a grid compiles no lemma check, and anchors and xy-diff no grid engine
        probe = ("import sys, alder.cli; "
                 f"code = alder.cli.main({argv.split()!r}); "
                 "print(code, [m in sys.modules for m in "
                 "('alder.inequalities', 'alder.lemmas')], file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              check=True, text=True, env=child_env())
        assert proc.stderr.splitlines()[-1] == f"0 {list(loaded)}"

    def test_report_types_are_the_ones_inequalities_exports(self):
        from alder import report
        from alder.inequalities import HOLDS
        assert HOLDS == report.HOLDS == "holds"
        # a report is the pair (cmd, blocks), and commands._write is its one
        # reader: the library defines no report class, per-cell records,
        # summary or verdict
        assert [name for name, v in vars(report).items() if isinstance(v, type)
                and v.__module__ == report.__name__] == ["RefusedInput"]
        assert not hasattr(report, "CellRecord")
        assert report.cell({"d": 63}, HOLDS) == ({"d": 63}, [(HOLDS, (None,), (None,), None)])
        assert report.cell({"d": 63, "N": 2}, report.FAILS, 7, {"n": 3}) == (
            {"d": 63, "N": 2}, [(report.FAILS, (None,), (7,), {"n": 3})])
        assert not {"verify", "search_counterexamples"} & set(vars(inequalities))

    def test_count_loads_only_its_modules(self):
        probe = ("import sys, alder.cli; "
                 "code = alder.cli.main(['count', '--kind', 'delta', '--a', '1', '--d', '4', "
                 "'--n', '1..50']); "
                 "print(code, sorted(m for m in sys.modules "
                 "if m == 'alder' or m.startswith('alder.')), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              check=True, text=True, env=child_env())
        assert proc.stderr.splitlines()[-1] == "0 " + str(
            ["alder", "alder.cli", "alder.commands", "alder.counting", "alder.report"])

    def test_partset_module_is_gone(self):
        # its refusal is in alder.report and its closed forms in alder.counting
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("alder.partset")

    def test_inject_imports_its_modules_when_run(self):
        # a range runs in one process: it loads no process pool
        probe = ("import sys; before = set(sys.modules); import alder.cli; "
                 "code = alder.cli.main(['inject', '--d', '63', '--N', '2', "
                 "'--n', '455..458', '--jobs', '1']); "
                 "new = set(sys.modules) - before; "
                 "print(code, [m in new for m in ('alder.injection', 'alder.parallel', "
                 "'concurrent.futures')], file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              check=True, text=True, env=child_env())
        assert proc.stderr.splitlines()[-1] == "0 [True, False, False]"
        assert json.loads(proc.stdout.splitlines()[0])["status"] == "holds"


class TestInject:
    def test_pass_cells(self, capsys):
        code, out, _ = run_cli(
            ["inject", "--d", "63", "--N", "3", "--n", "455..457"], capsys)
        assert code == 0
        records = json_lines(out)[:-1]
        assert all(rec["status"] == "holds" for rec in records)

    def test_s2_empty_noted(self, capsys):
        code, out, _ = run_cli(
            ["inject", "--d", "63", "--N", "2", "--n", "455"], capsys)
        assert code == 0
        rec = json_lines(out)[0]
        assert rec["witness"]["s2"] == 0

    def test_forced_out_of_hypothesis_never_fails(self, capsys):
        code, out, _ = run_cli(
            ["inject", "--d", "12", "--N", "4", "--n", "100", "--force"],
            capsys)
        assert code == 0
        assert json_lines(out)[0]["status"] == "out-of-hypothesis"

    def test_horizon_usage_error(self, capsys):
        code, out, err = run_cli(
            ["inject", "--d", "63", "--N", "2", "--n",
             str(counting.MAX_HORIZON + 1)], capsys)
        assert code == 2 and out == ""
        assert "horizon cap" in err

    def test_negative_n_exits_2(self, capsys, monkeypatch):
        for force in ([], ["--force"]):
            code, out, err = run_cli(
                ["inject", "--d", "63", "--N", "2", "--n=-5", *force], capsys)
            assert code == 2 and out == ""
            assert "n must be >= 0" in err
        # the range's first n refuses it before its last cell runs
        cells = []
        monkeypatch.setattr(injection, "verify_injection",
                            lambda *args, **kwargs: cells.append(args))
        for jobs in ("1", "2"):
            code, out, err = run_cli(["inject", "--d", "63", "--N", "2",
                                      "--n=-5..3", "--jobs", jobs], capsys)
            assert code == 2 and out == ""
            assert "n must be >= 0, got -5" in err
        assert cells == []

    def test_cell_over_partition_cap_exits_2(self, capsys, monkeypatch):
        rho_s = counting.rho(s_set(63, 2), 520)
        monkeypatch.setattr(injection, "MAX_PARTITIONS", rho_s - 1)
        enumerated = []
        monkeypatch.setattr(maps, "enumerate_partitions",
                            lambda A, n: enumerated.append(n) or [])
        for jobs in ("1", "2"):
            code, out, err = run_cli(["inject", "--d", "63", "--N", "2", "--n",
                                      "455..520", "--jobs", jobs], capsys)
            assert code == 2 and out == ""
            assert f"{rho_s} partitions, more than {rho_s - 1}" in err
        # the last cell, run first, refused the range before any other cell
        assert enumerated == []

    def test_partition_cap_skips_cells_that_enumerate_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(injection, "MAX_PARTITIONS", 0)
        # out of hypothesis and not forced; forced but not constructible (d < 31)
        for argv in (["--d", "63", "--N", "2", "--n", "100..101"],
                     ["--d", "12", "--N", "4", "--n", "100", "--force"]):
            code, out, _ = run_cli(["inject", *argv], capsys)
            assert code == 0 and out


class TestSearch:
    def test_known_violation_listed(self, capsys):
        code, out, _ = run_cli(
            ["search", "--kind", "delta", "--a", "2", "--d", "1..10",
             "--n-max", "100"], capsys)
        assert code == 0  # informational even when violations exist
        records = json_lines(out)[:-1]
        assert {"kind": "delta", "a": 2, "d": 3, "n": 6} in \
            [rec["params"] for rec in records]

    def test_clean_regime_empty(self, capsys):
        code, out, _ = run_cli(
            ["search", "--kind", "delta", "--a", "1", "--d", "1..3",
             "--n-max", "120"], capsys)
        assert code == 0
        assert json_lines(out)[-1]["summary"]["violations"] == 0

    @pytest.mark.parametrize("kind", ["bogus", "delta-x", "delta_x"])
    def test_unknown_kind_named_as_given_by_cli_and_library(self, capsys, kind):
        code, out, err = run_cli(["search", "--kind", kind, "--a", "1", "--d", "1",
                                  "--n-max", "5"], capsys)
        with pytest.raises(RefusedInput) as exc:
            search_counterexamples(
                kind, inequalities.GridSpec(a_values=(1,), d_values=(1,), n_max=5))
        assert (code, out) == (2, "")
        assert err == f"error: {exc.value}\n" == f"error: unknown search kind {kind!r}\n"

    def test_dashed_kind_runs_as_the_underscored_one(self, capsys):
        argv = ["--a", "1..4", "--d", "1..12", "--n-max", "60"]
        dashed = run_cli(["search", "--kind", "delta-m", *argv], capsys)
        underscored = run_cli(["search", "--kind", "delta_m", *argv], capsys)
        assert dashed[:2] == underscored[:2] and dashed[0] == 0
        records = json_lines(dashed[1])
        assert records[0]["cmd"] == "search-delta_m"
        assert records[-1]["summary"]["violations"] == len(records) - 1 > 0
        spec = inequalities.GridSpec(a_values=(1, 2, 3, 4), d_values=tuple(range(1, 13)),
                                     n_max=60)
        library = [search_counterexamples(kind, spec) for kind in ("delta-m", "delta_m")]
        assert (library[0].cmd, library[0].blocks) == (library[1].cmd, library[1].blocks)
        assert library[0].records


class TestFormats:
    def test_csv(self, capsys):
        code, out, _ = run_cli(
            ["count", "--kind", "q", "--a", "1", "--d", "2", "--n", "1..3",
             "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "cmd,kind,a,d,n,status,value"
        assert lines[1].endswith(",ok,1")

    def test_csv_keeps_zero_values(self, capsys):
        code, out, _ = run_cli(
            ["count", "--kind", "delta", "--a", "1", "--d", "1", "--n", "5",
             "--format", "csv"], capsys)
        assert code == 0
        assert out.strip().splitlines()[1].endswith(",ok,0")

    def test_human(self, capsys):
        code, out, _ = run_cli(
            ["verify", "xy-diff", "--d", "63", "--N", "2", "--format",
             "human"], capsys)
        assert code == 0
        assert "summary:" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        code, out, _ = run_cli(
            ["count", "--kind", "q", "--a", "1", "--d", "2", "--n", "4",
             "--out", str(target)], capsys)
        assert code == 0 and out == ""
        assert json.loads(target.read_text().splitlines()[0])["value"] == "2"

    def test_out_file_bytes_equal_stdout(self, capsys, tmp_path):
        argv = ["verify", "shift", "--N", "2", "--d", "63", "--n-max", "80",
                "--force"]
        target = tmp_path / "report.jsonl"
        target.write_text("stale report\n")
        _, out, _ = run_cli(argv, capsys)
        code, _, _ = run_cli([*argv, "--out", str(target)], capsys)
        assert code == 0
        assert target.read_bytes() == out.encode()
        assert [p.name for p in tmp_path.iterdir()] == ["report.jsonl"]

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "report.jsonl"
        code, out, err = run_cli(
            ["count", "--kind", "q", "--a", "1", "--d", "2", "--n", "4",
             "--out", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --out ")
        assert list(tmp_path.iterdir()) == []

    def test_reader_closing_early_keeps_the_verdict(self):
        # about 2 MB of report, far more than a pipe holds, so the write breaks
        with subprocess.Popen(
                [sys.executable, "-m", "alder", "count", "--kind", "q", "--a", "1",
                 "--d", "200", "--n", "1..30000"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=child_env()) as proc:
            assert json.loads(proc.stdout.readline())["params"]["n"] == 1
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 0
        assert "alder count: exit 0" in err and "Error" not in err

    @pytest.mark.parametrize("exc, want_code", [(OSError(28, "No space left on device"), 2),
                                                (RuntimeError("formatter bug"), 3)])
    def test_failed_write_keeps_old_file(self, capsys, tmp_path, monkeypatch,
                                         exc, want_code):
        target = tmp_path / "report.jsonl"
        target.write_bytes(b"old report\n")

        def write_one_line_then_raise(cmd, blocks, fmt, out):
            out.write("partial\n")
            raise exc
        monkeypatch.setattr(commands, "_write", write_one_line_then_raise)
        code, out, _ = run_cli(
            ["count", "--kind", "q", "--a", "1", "--d", "2", "--n", "4",
             "--out", str(target)], capsys)
        assert code == want_code and out == ""
        assert target.read_bytes() == b"old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.jsonl"]


class _ReaderGoneAfterFirstWrite:
    """A stdout whose first write is kept and whose reader then goes away:
    each later write goes to a pipe with no reader, so it raises
    BrokenPipeError until something else is put at its file descriptor."""

    def __init__(self):
        read, write = os.pipe()
        os.close(read)
        self.pipe, self.first = open(write, "w", encoding="utf-8"), None

    def write(self, text):
        if self.first is None:
            self.first = text
        else:
            self.pipe.write(text)
            self.pipe.flush()

    def flush(self):
        self.pipe.flush()

    def fileno(self):
        return self.pipe.fileno()


def _patch_row(monkeypatch, at, fail=None):
    """Make ``inequalities._row`` relabel the first run of the row with base
    params ``at`` as failing, or raise ``fail`` there; return the bases of
    the rows run."""
    real, ran = inequalities._row, []

    def row(base, *args, **kwargs):
        ran.append(base)
        block = real(base, *args, **kwargs)
        if base != at:
            return block
        if fail is not None:
            raise fail
        (_, ns, values, witness), *rest = block[1]
        return base, [("fails", ns, values, witness), *rest]
    monkeypatch.setattr(inequalities, "_row", row)
    return ran


class TestStreaming:
    """Grid reports are written row by row, as each row is evaluated."""

    GRID = ["verify", "gen-kp", "--a", "1", "--d", "1..6", "--n-max", "300", "--force"]

    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    @pytest.mark.parametrize("argv", [
        "verify shift --N 2 --d 63", "verify gen-kp --a 1 --d 1..3 --force",
        "search --kind delta --a 1 --d 1..3"])
    def test_horizon_refusal_before_the_first_byte(self, capsys, fmt, argv):
        code, out, err = run_cli([*argv.split(), "--n-max", str(counting.MAX_HORIZON + 1),
                                  "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert "horizon cap" in err

    def test_rows_run_as_they_are_written(self, capsys, monkeypatch):
        ran = _patch_row(monkeypatch, None)
        written_before = []
        real_write = commands._Stdout.write
        monkeypatch.setattr(commands._Stdout, "write", lambda self, text, flush=False: (
            written_before.append(len(ran)), real_write(self, text, flush)))
        code, out, _ = run_cli(self.GRID, capsys)
        assert code == 0 and len(ran) == 6
        assert written_before[0] == 1  # the first row is written before the second runs

    def test_reader_gone_keeps_evaluating_to_the_verdict(self, capsys, monkeypatch):
        ran = _patch_row(monkeypatch, {"a": 1, "d": 6})  # the last row fails
        stdout = _ReaderGoneAfterFirstWrite()
        monkeypatch.setattr(sys, "stdout", stdout)
        opened, real_open = [], os.open
        monkeypatch.setattr(os, "open",
                            lambda *args: opened.append(real_open(*args)) or opened[-1])
        try:
            code = cli.main(self.GRID)
        finally:
            stdout.pipe.close()
        assert code == 1 and len(ran) == 6
        assert len(opened) == 1  # os.devnull, put at stdout's descriptor and closed
        with pytest.raises(OSError):
            os.fstat(opened[0])
        assert stdout.first.startswith('{"v":1,"cmd":"verify-gen-kp","params":{"a":1,"d":1,"n":1}')
        err = capsys.readouterr().err
        assert "alder verify: exit 1" in err and "Error" not in err

    def test_reader_closing_early_keeps_the_grid_verdict(self):
        # about 14 MB of report, far more than a pipe holds
        with subprocess.Popen(
                [sys.executable, "-m", "alder", "verify", "shift", "--N", "2",
                 "--d", "63..70", "--n-max", "20000", "--force"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=child_env()) as proc:
            assert json.loads(proc.stdout.readline())["params"] == {"N": 2, "d": 63, "n": 1}
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 0
        assert "alder verify: exit 0" in err and "Error" not in err

    @pytest.mark.parametrize("exc", [RuntimeError("row invariant broken"),
                                     OSError(5, "Input/output error")])
    def test_error_in_the_second_row_exits_3_after_the_first(self, capsys, monkeypatch,
                                                              exc):
        _patch_row(monkeypatch, {"a": 1, "d": 2}, fail=exc)
        code, out, err = run_cli(self.GRID, capsys)
        assert code == 3
        assert {rec["params"]["d"] for rec in json_lines(out)} == {1}
        assert f"internal error: {type(exc).__name__}: " in err
        assert "cannot write" not in err

    @pytest.mark.parametrize("exc", [RuntimeError("row invariant broken"),
                                     OSError(5, "Input/output error")])
    def test_error_in_the_second_row_keeps_the_old_out_file(self, capsys, tmp_path,
                                                            monkeypatch, exc):
        # an OSError of evaluation is an internal error, not a failed write
        target = tmp_path / "report.jsonl"
        target.write_bytes(b"old report\n")
        _patch_row(monkeypatch, {"a": 1, "d": 2}, fail=exc)
        code, out, err = run_cli([*self.GRID, "--out", str(target)], capsys)
        assert (code, out) == (3, "")
        assert f"internal error: {type(exc).__name__}: " in err
        assert "cannot write" not in err
        assert target.read_bytes() == b"old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.jsonl"]

    def test_streamed_grid_holds_about_one_block(self, monkeypatch):
        # tables of distinct big counts, so that each block costs memory and
        # the 30 collected blocks cost about 30 times one
        monkeypatch.setattr(inequalities, "column", lambda count, n: tuple(
            range(10 ** 20, 10 ** 20 + 7 * n + 1, 7) if count.startswith("q.")
            else range(n + 1)))

        class Null:
            def write(self, text):
                pass
        spec = inequalities.GridSpec(a_values=(1,), d_values=tuple(range(1, 31)),
                                     n_max=2000, evaluate_out_of_hypothesis=True)
        tracemalloc.start()
        try:
            summary = commands._write(*inequalities.grid("verify-gen-kp", spec), "json", Null())
            streamed = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            report = verify("gen-kp", spec)
            collected = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary["cells"] == len(report.records) == 30 * 2000
        assert streamed * 4 < collected, (streamed, collected)


class TestCache:
    def test_hits_do_not_change_values(self, capsys, tmp_path):
        from alder import counting
        counting._tables.clear()  # force a real build so the cache is written
        argv = ["count", "--kind", "Qm", "--a", "1", "--d", "61", "--n",
                "321", "--cache", str(tmp_path)]
        _, cold, _ = run_cli(argv, capsys)
        assert list(tmp_path.glob("*.json"))
        counting._tables.clear()  # force the warm run to come from disk
        _, warm, _ = run_cli(argv, capsys)
        assert cold == warm
        assert json_lines(warm)[0]["value"] == "29"

    def test_corrupted_cache_discarded(self, capsys, tmp_path):
        argv = ["count", "--kind", "q", "--a", "1", "--d", "63", "--n", "65",
                "--cache", str(tmp_path)]
        counting._tables.clear()  # force a real build so the cache is written
        run_cli(argv, capsys)
        assert list(tmp_path.glob("*.json"))
        for path in tmp_path.glob("*.json"):
            path.write_text("{definitely not json")
        counting._tables.clear()
        _, out, _ = run_cli(argv, capsys)
        assert json_lines(out)[0]["value"] == "2"

    def test_tampered_values_rejected(self, capsys, tmp_path):
        argv = ["count", "--kind", "q", "--a", "1", "--d", "63", "--n", "65",
                "--cache", str(tmp_path)]
        counting._tables.clear()  # force a real build so the cache is written
        run_cli(argv, capsys)
        assert list(tmp_path.glob("*.json"))
        for path in tmp_path.glob("*.json"):  # silently wrong values, key mismatch
            rewrite_entry(path, lambda body: struct.pack("<Q", 1) * (len(body) // 8),
                          key="q.a9.d9")
        counting._tables.clear()
        _, out, _ = run_cli(argv, capsys)
        assert json_lines(out)[0]["value"] == "2"

    def test_flipped_digit_rejected_and_rebuilt(self, capsys, tmp_path):
        argv = ["verify", "ceiling", "--a", "2", "--d", "3", "--n-max", "60"]
        counting._tables.clear()
        uncached = run_cli(argv, capsys)[:2]
        counting._tables.clear()
        assert run_cli([*argv, "--cache", str(tmp_path)], capsys)[:2] == uncached
        path = tmp_path / "q.a2.d3.json"

        def zero_at_50(body):  # was 342; trusted, it fails cell n=50
            return body[:8 * 50] + struct.pack("<Q", 0) + body[8 * 51:]
        rewrite_entry(path, zero_at_50)
        counting._tables.clear()
        assert run_cli([*argv, "--cache", str(tmp_path)], capsys)[:2] == uncached
        assert cache.load(tmp_path, "q.a2.d3", 60)[50] == 342  # rebuilt

    def test_v2_entry_rejected_and_rewritten_as_v4(self, capsys, tmp_path):
        argv = ["count", "--kind", "q", "--a", "1", "--d", "63", "--n", "65",
                "--cache", str(tmp_path)]
        # a well-formed v2 entry whose counts are all 1: trusted, n=65 gives 1
        strings = ["1"] * 66
        path = tmp_path / "q.a1.d63.json"
        path.write_text(json.dumps(
            {"v": 2, "key": "q.a1.d63", "horizon": 65, "values": strings,
             "sha256": hashlib.sha256(",".join(strings).encode()).hexdigest()}))
        counting._tables.clear()
        _, out, _ = run_cli(argv, capsys)
        assert json_lines(out)[0]["value"] == "2"
        assert json.loads(path.read_bytes().split(b"\n", 1)[0])["v"] == 4
        assert cache.load(tmp_path, "q.a1.d63", 65)[65] == 2


def _value(lo, hi):
    """An integer argument or a LO..HI range of them, and one time in ten a
    malformed one."""
    n = st.integers(lo, hi)
    good = st.one_of(n.map(str), st.tuples(n, n).map(sorted).map("{0[0]}..{0[1]}".format))
    bad = st.sampled_from(["", "x", "3..", "5..2", "2.5"])
    return st.tuples(st.integers(0, 9), good, bad).map(lambda t: t[1] if t[0] < 9 else t[2])


def _argv(command, positional, required, optional):
    """argv of ``command``: one positional choice (if any), every required
    flag and any subset of the optional ones (True marks a bare switch)."""
    flags = st.fixed_dictionaries(required, optional=optional)
    return st.tuples(positional, flags).map(lambda pf: [command, *pf[0], *[
        x for k, v in pf[1].items() for x in ((k,) if v is True else (k, v))]])


_int = st.integers(-3, 70).map(str)

#: small argv of every subcommand: values -3..70 (n up to 40 for inject,
#: whose forced cells may be enumerated, and n-max always given to verify,
#: whose default is 1200 or 2000), known and unknown kinds and flags
CLI_ARGV = st.one_of(
    _argv("count", st.just(()),
          {"--kind": st.sampled_from("q Q Qm Qmm rho g l delta delta_m delta-mm x".split()),
           "--a": st.integers(-3, 12).map(str), "--d": _int, "--n": _value(-3, 70)},
          {"--N": st.integers(-3, 6).map(str), "--s": st.integers(-3, 7).map(str),
           "--set": st.sampled_from("T S".split())}),
    _argv("verify", st.tuples(st.sampled_from(
              "shift littlelemon gen-kp gen-dkst anchors xy-diff ceiling a-to-1 "
              "modified-st t-monotone".split())),
          {"--a": _value(-3, 12), "--d": _value(-3, 70), "--N": _value(-3, 6),
           "--n-max": _int},
          {"--n-min": _int, "--force": st.just(True)}),
    _argv("inject", st.just(()),
          {"--d": _int, "--N": st.integers(-3, 6).map(str), "--n": _value(-3, 40)},
          {"--force": st.just(True)}),
    _argv("search", st.just(()),
          {"--kind": st.sampled_from("delta delta_m delta-mm shift Q".split()),
           "--a": _value(-3, 12), "--d": _value(-3, 70), "--N": _value(-3, 6),
           "--n-max": _int},
          {"--n-min": _int}))


def _run_in_process(argv):
    """(exit code, stdout) of one run; an argparse error gives code None."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv  # argparse's usage error
            code = None
    return code, out.getvalue()


def _tallies(fmt, out):
    """Cells per status of one report, read as that format's reader would."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        return collections.Counter(row[rows[0].index("status")] for row in rows[1:])
    if fmt == "human":
        summary = dict(item.split("=") for item in out.splitlines()[-1].split()[1:])
    else:
        *records, last = json_lines(out)
        summary = last["summary"]
    cells = int(summary.pop("cells"))
    tallies = +collections.Counter({("violation" if k == "violations" else k): int(v)
                                    for k, v in summary.items()})  # drops a zero
    assert sum(tallies.values()) == cells
    if fmt == "json":
        assert collections.Counter(rec["status"] for rec in records) == tallies
    return tallies


class TestExitContract:
    @given(CLI_ARGV)
    @settings(max_examples=150, deadline=None)
    def test_exit_codes_and_reports_agree_across_formats(self, argv):
        runs = {fmt: _run_in_process([*argv, "--format", fmt])
                for fmt in ("json", "csv", "human")}
        codes = {code for code, _ in runs.values()}
        assert len(codes) == 1, (argv, runs)
        code = codes.pop()
        assert code in (0, 1, 2, None), argv
        if code in (2, None):
            assert all(out == "" for _, out in runs.values()), argv
            return
        if argv[0] in ("count", "search"):
            assert code == 0, argv
        tallies = [_tallies(fmt, out) for fmt, (_, out) in runs.items()]
        assert tallies[0] == tallies[1] == tallies[2], (argv, tallies)


class TestDeterminism:
    def test_byte_identical_across_jobs(self):
        for command in (["verify", "shift", "--N", "2", "--d", "63..64",
                         "--n-min", "66", "--n-max", "600"],
                        ["inject", "--d", "63", "--N", "2", "--n", "455..458"]):
            argv = [sys.executable, "-m", "alder", *command]
            runs = [subprocess.run([*argv, "--jobs", str(jobs)],
                                   capture_output=True, check=True, env=child_env())
                    for jobs in (1, 4)]
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout  # nonempty

    def test_repeat_run_identical(self, capsys):
        argv = ["search", "--kind", "delta", "--a", "2", "--d", "1..6",
                "--n-max", "60"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second
