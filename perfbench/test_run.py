"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import resource

import pytest

import run

TINY_SHIFT = run.Workload("tiny_shift", ("verify", "shift", "--N", "2", "--d", "63..64",
                                         "--n-max", "300", "--jobs", "1"), 600, 600)
TINY_INJECT = run.Workload("tiny_inject", ("inject", "--d", "63", "--N", "2", "--n", "520",
                                           "--jobs", "1"), None, 1)
TINY_SCAN = run.Workload("tiny_scan", ("search", "--kind", "delta", "--a", "1..2",
                                       "--d", "40..41", "--n-max", "300", "--jobs", "1"),
                         1200, None, cached=True)


@pytest.fixture(autouse=True)
def private_work_dir_and_short_set_up(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "perfbench-work")
    run.WORK.mkdir()
    monkeypatch.setattr(run, "STARTUP_PROBES", 3)
    monkeypatch.setattr(run, "FILL_ROUNDS", 2)


def bench(workload, trace, expected=None):
    work = run.WORK / "run"
    work.mkdir(exist_ok=True)
    return run.benchmark(workload, 0, 0.1, trace, work, expected or {})


def test_declared_metrics_match_the_benchmark_file():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", [TINY_SHIFT, TINY_INJECT])
def test_every_end_to_end_metric_is_reported_with_its_unit(workload):
    result, details = bench(workload, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_SAMPLES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["stats"]["startup_s"]["n"] == run.STARTUP_PROBES
    assert details["stats"]["setup_s"]["median"] == result["metrics"]["setup_s"]["value"]


@pytest.mark.parametrize("workload", [TINY_SHIFT, TINY_INJECT, TINY_SCAN])
def test_traced_run_reports_every_layer_metric_within_the_traced_wall(workload):
    result, details = bench(workload, trace=True)
    assert result["correct"], details["failures"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    wall = details["traced_wall_s"]
    self_times = [metrics[f"{layer}.self_s"] for layer in run.LAYERS]
    assert all(0 <= s <= wall for s in self_times)
    assert sum(self_times) <= wall
    assert 0 < metrics["trace.coverage"] <= 1
    assert metrics["cli.records"] > 0 and metrics["cli.report_bytes"] > 0


def test_layer_counts_land_in_the_layer_that_did_the_work():
    shift = {k: v["value"] for k, v in bench(TINY_SHIFT, trace=True)[0]["metrics"].items()}
    assert shift["inequalities.cells"] == 600 == shift["cli.records"]
    assert shift["inequalities.status.holds"] + shift["inequalities.status.out-of-hypothesis"] == 600
    assert shift["counting.builds"] == 4 and shift["counting.lookups"] >= 2 * 300
    assert shift["injection.partitions"] == 0

    inject = {k: v["value"] for k, v in bench(TINY_INJECT, trace=True)[0]["metrics"].items()}
    assert inject["injection.partitions"] == inject["injection.images"] > 0
    assert inject["inequalities.cells"] == 0

    scan = {k: v["value"] for k, v in bench(TINY_SCAN, trace=True)[0]["metrics"].items()}
    assert scan["cache.loads"] == scan["cache.hits"] == 8 and scan["cache.hit_ratio"] == 1
    # the cold fill regrows the Q tables, storing each table once per size
    assert scan["cache.stores"] > 8
    assert scan["cache.bytes_written"] > scan["cache.bytes_read"] > 0


def test_wrong_expected_digest_fails_every_run():
    expected = {run.input_key(TINY_SHIFT): {"exit": 0, "sha256": "0" * 64}}
    result, details = bench(TINY_SHIFT, trace=False, expected=expected)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] and details["fail_frac"] == 1


def test_recorded_digest_passes_and_wrong_exit_code_fails():
    work = run.WORK / "run"
    work.mkdir(exist_ok=True)
    child = run.run_child(run.alder_cmd(TINY_SHIFT, None, work / "p"), work / "r", work / "e")
    right = {run.input_key(TINY_SHIFT): {"exit": 0, "sha256": child.sha256}}
    assert run.gate(TINY_SHIFT, child, right) is None
    wrong = {run.input_key(TINY_SHIFT): {"exit": 1, "sha256": child.sha256}}
    assert "exit" in run.gate(TINY_SHIFT, child, wrong)


def test_peak_rss_is_the_childs_own_not_the_spawners():
    # os.wait4 would report at least this process's peak for any child
    ballast = b"x" * (96 << 20)
    work = run.WORK / "run"
    work.mkdir(exist_ok=True)
    peak = work / "peak"
    child = run.run_child(run.alder_cmd(TINY_INJECT, None, peak), work / "r", work / "e", peak)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert child.exit_code == 0 and len(ballast) > 0
    assert 0 < child.peak_rss_mb < own - 64


def test_fallback_gate_rejects_failing_cells_and_wrong_cell_counts(tmp_path):
    report = tmp_path / "report"

    def child(summary, exit_code=0):
        report.write_text('{"v":1}\n' + json.dumps({"v": 1, "summary": summary}) + "\n")
        return run.Child(exit_code, 1.0, 1.0, 1.0, "", 2, 0, report, report)

    assert run.gate(TINY_SHIFT, child({"cells": 600, "holds": 600}), {}) is None
    assert "failing" in run.gate(TINY_SHIFT, child({"cells": 600, "fails": 1}), {})
    assert "cells" in run.gate(TINY_SHIFT, child({"cells": 599, "holds": 599}), {})
    assert "exit" in run.gate(TINY_SHIFT, child({"cells": 600}, exit_code=1), {})


def test_seeds_pick_inputs_deterministically_and_every_input_is_recorded():
    expected = run.load_expected()
    for name in run.WORKLOADS:
        period = run.SEED_PERIODS[name]
        inputs = {run.input_key(run.make_workload(name, s)) for s in range(period)}
        assert len(inputs) == period
        assert run.make_workload(name, 3) == run.make_workload(name, 3 + period)
        assert inputs <= expected.keys()
    assert len(expected) == sum(run.SEED_PERIODS.values())


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.WORK / "nowhere")
    assert run.main(["--workload", "shift_grid", "--seed", "0", "--seconds", "1",
                     "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
