"""The block writer against a reference built from the per-cell records.

``commands._write`` formats a report block by block, each block's params once.
Here every kind of report is written that way and compared, byte for
byte, with a plain writer over the test-side ``oracles.Report.records``
that encodes each record with ``json.dumps`` and ``csv.writer``, and the
summary ``_write`` returns, which sets the exit code, with the one the
reference writes.  So is every grid as the CLI streams it, its blocks read
once from ``inequalities.grid`` as they are evaluated.  The records
themselves, and ``summary`` and ``ok``, are pinned to a list-of-records
model of the engine: one ``CellRecord`` per cell, each status decided cell
by cell.
"""

import csv
import functools
import io
import json
from collections import Counter

import pytest

from alder import cli, commands, inequalities
from alder.inequalities import (EXEMPT, FAILS, HOLDS, OUT, SKIPPED, STATEMENTS,
                                VIOLATION, GridSpec, Row)
from oracles import CellRecord, Report, check_andrews, pm_set, search_counterexamples, verify

FORMATS = ("json", "csv", "human")
_dumps = functools.partial(json.dumps, separators=(",", ":"))


def reference_summary(report) -> dict:
    """The summary of ``report`` as the writer must write and return it: the
    number of records, then the oracle's ``summary``, which tallies them."""
    records = report.records
    assert report.summary == dict(Counter(r.status for r in records))
    summary = {"cells": len(records), **dict(sorted(report.summary.items()))}
    if report.cmd.startswith("search-"):
        summary["violations"] = summary.pop(VIOLATION, 0)
    return summary


def reference(report, fmt: str) -> str:
    """``report`` as the writer must format it, one record at a time."""
    records, summary = report.records, reference_summary(report)
    out = io.StringIO()
    if fmt == "json":
        for r in records:
            out.write(_dumps({"v": commands.SCHEMA_VERSION, "cmd": report.cmd,
                              "params": r.params, "status": r.status,
                              "value": None if r.value is None else str(r.value),
                              "witness": r.witness}) + "\n")
        out.write(_dumps({"v": commands.SCHEMA_VERSION, "cmd": report.cmd,
                          "summary": summary}) + "\n")
    elif fmt == "csv":
        keys = list(dict.fromkeys(k for r in records for k in r.params))
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["cmd", *keys, "status", "value"])
        for r in records:
            writer.writerow([report.cmd, *[r.params.get(k, "") for k in keys],
                             r.status, "" if r.value is None else r.value])
    else:
        for r in records:
            line = " ".join(f"{k}={v}" for k, v in r.params.items()) + f"  {r.status}"
            if r.value is not None:
                line += f"  value={r.value}"
            if r.witness:
                line += f"  witness={_dumps(r.witness)}"
            out.write(line + "\n")
        out.write("summary: " + " ".join(f"{k}={v}" for k, v in summary.items()) + "\n")
    return out.getvalue()


def written(report, fmt: str) -> tuple[str, dict]:
    """``report`` as ``commands._write`` writes it, and the summary it returns."""
    out = io.StringIO()
    summary = commands._write(report.cmd, report.blocks, fmt, out)
    return out.getvalue(), summary


def assert_writes_as_reference(report):
    assert report.records, "a report with no cells pins nothing"
    for fmt in FORMATS:
        assert written(report, fmt) == (reference(report, fmt),
                                        reference_summary(report)), fmt


def assert_streams_as_reference(cmd, spec, report):
    """The grid ``cmd`` over ``spec``, streamed as the CLI writes it, equals
    the reference writer over the collected ``report``, in every format."""
    for fmt in FORMATS:
        out = io.StringIO()
        summary = commands._write(*inequalities.grid(cmd, spec), fmt, out)
        assert out.getvalue() == reference(report, fmt), fmt
        assert summary == reference_summary(report), fmt


# ------------------------------------------------- list-of-records model

def model_row(records, base, lo, hi, row, evaluate_out=False, violations_only=False):
    """One CellRecord per cell of a grid row, its status decided per cell."""
    lhs, rhs, names, first, exempt, equal = row
    if violations_only:
        first = 0
    elif first is None:
        first = hi + 1
    start = lo if evaluate_out else min(max(first, lo), hi + 1)
    records.extend(CellRecord({**base, "n": n}, OUT) for n in range(lo, start))
    if start > hi:
        return
    for n, left, right in zip(range(start, hi + 1), inequalities._read(lhs, start, hi),
                              inequalities._read(rhs, start, hi)):
        value = left - right
        if violations_only:
            if value >= 0:
                continue
            status = VIOLATION
        elif n < first:
            status = OUT
        elif n == exempt:
            status = EXEMPT
        elif (value == 0) if equal else (value >= 0):
            status = HOLDS
        else:
            status = FAILS
        witness = None
        if names and status in (FAILS, VIOLATION):
            witness = {names[0]: str(left), names[1]: str(right)}
        records.append(CellRecord({**base, "n": n}, status, value, witness))


def model_verify(name, spec):
    statement, records = STATEMENTS[name], []
    for base, row in inequalities._rows(statement, spec):
        if isinstance(row, Row):
            model_row(records, base, spec.n_min, spec.n_max, row,
                      evaluate_out=spec.evaluate_out_of_hypothesis)
        elif statement.skip_each_n:
            records.extend(CellRecord({**base, "n": n}, SKIPPED, witness={"reason": row})
                           for n in range(spec.n_min, spec.n_max + 1))
        else:
            records.append(CellRecord(base, SKIPPED, witness={"reason": row}))
    return records


def model_search(kind, spec):
    kind, statement = inequalities.search_kind(kind)
    records = []
    for base, row in inequalities._rows(statement, spec):
        if isinstance(row, str):
            continue
        if kind != "shift":
            base = {"kind": kind, **base}
        else:
            row = row._replace(names=None)
        model_row(records, base, spec.n_min, spec.n_max, row, violations_only=True)
    return records


def assert_matches_model(report, records):
    assert report.records == records
    assert report.summary == dict(Counter(r.status for r in records))
    assert report.ok == all(r.status != FAILS for r in records)


# ------------------------------------------------------------ the grids

#: statement -> a grid over both axes with skipped, out-of-hypothesis and
#: holding cells (an exempt cell for gen-kp); n from 0
GRIDS = {
    "shift": {"N_values": (2, 4), "d_values": (3, 63), "n_max": 130},
    "gen-kp": {"a_values": (2, 4, 30), "d_values": (19, 417), "n_max": 430},
    "gen-dkst": {"a_values": (3, 4), "d_values": (9, 417), "n_max": 425},
    "ceiling": {"a_values": (1, 3), "d_values": (0, 5), "n_max": 40},
    "a-to-1": {"a_values": (1, 2, 3), "d_values": (3, 4, 6), "n_max": 30},
    "modified-st": {"a_values": (3, 4), "d_values": (9, 417), "n_max": 120},
    "delta": {"a_values": (1, 2), "d_values": (1, 7), "n_max": 60},
}


@pytest.mark.parametrize("name", sorted(STATEMENTS))
@pytest.mark.parametrize("force", [False, True])
def test_every_statement_writes_as_reference(name, force):
    spec = GridSpec(n_min=0, evaluate_out_of_hypothesis=force, **GRIDS[name])
    report = verify(name, spec)
    assert_matches_model(report, model_verify(name, spec))
    assert_writes_as_reference(report)
    assert_streams_as_reference(f"verify-{name}", spec, report)


def test_grids_cover_every_verify_status():
    statuses = set()
    for name in STATEMENTS:
        for force in (False, True):
            spec = GridSpec(n_min=0, evaluate_out_of_hypothesis=force, **GRIDS[name])
            statuses.update(verify(name, spec).summary)
    assert statuses == {HOLDS, OUT, EXEMPT, SKIPPED}


def test_skipped_pairs_per_n_and_per_pair():
    shift = verify("shift", GridSpec(N_values=(4,), d_values=(3,), n_min=5, n_max=9))
    assert [(r.params, r.status) for r in shift.records] == \
        [({"N": 4, "d": 3, "n": n}, SKIPPED) for n in range(5, 10)]
    gen_kp = verify("gen-kp", GridSpec(a_values=(30,), d_values=(19,), n_max=9))
    assert [(r.params, r.status) for r in gen_kp.records] == \
        [({"a": 30, "d": 19}, SKIPPED)]
    for report in (shift, gen_kp):
        assert_writes_as_reference(report)


def test_csv_header_waits_for_the_first_block_with_n():
    # gen-kp skips (4, 1) as one cell without n; (4, 2) and (4, 3) have n
    spec = GridSpec(a_values=(4,), d_values=(1, 2, 3), n_max=3)
    report = verify("gen-kp", spec)
    assert [r.params for r in report.records][:2] == [{"a": 4, "d": 1},
                                                      {"a": 4, "d": 2, "n": 1}]
    assert_streams_as_reference("verify-gen-kp", spec, report)
    assert reference(report, "csv").startswith("cmd,a,d,n,status,value\n")


@pytest.mark.parametrize("argv,header", [
    ("verify gen-kp --a 10 --d 1 --n-max 3", "cmd,a,d,status,value\n"),  # every pair skipped
    ("search --kind shift --N 2 --d 1..3 --n-max 3", "cmd,status,value\n")])  # no violation
def test_csv_header_of_a_grid_without_cells_with_n(capsys, argv, header):
    assert cli.main([*argv.split(), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(header) and (out == header) == argv.startswith("search")


def test_exempt_cell():
    spec = GridSpec(a_values=(4,), d_values=(417,), n_min=420, n_max=428)
    report = verify("gen-kp", spec)
    assert [r.params["n"] for r in report.records if r.status == EXEMPT] == [424]
    assert_matches_model(report, model_verify("gen-kp", spec))
    assert_writes_as_reference(report)


@pytest.mark.parametrize("name,axes", [
    ("shift", {"N_values": (2,), "d_values": (63, 64)}),
    ("a-to-1", {"a_values": (2,), "d_values": (3, 5)})])  # lhs == rhs asserted
def test_failing_cells_with_witnesses(monkeypatch, name, axes):
    # no in-hypothesis failures exist mathematically, so force some: rho
    # tables read 10**6 + n off every third n; q tables stay
    column = inequalities.column
    monkeypatch.setattr(inequalities, "column", lambda count, n: (
        column(count, n) if count.startswith("q.")
        else tuple(10 ** 6 + i if i % 3 else v for i, v in enumerate(column(count, n)))))
    spec = GridSpec(n_min=60, n_max=90, **axes)
    report = verify(name, spec)
    assert not report.ok and report.summary[FAILS] > 2 and report.summary[HOLDS] > 2
    assert all(len(r.witness) == 2 for r in report.records if r.status == FAILS)
    assert_matches_model(report, model_verify(name, spec))
    assert_writes_as_reference(report)


def test_row_without_base_params():
    report = check_andrews(pm_set(1, 5), pm_set(2, 5), 30)
    assert report.records[0].params == {"n": 0}
    assert_writes_as_reference(report)


@pytest.mark.parametrize("kind,axes", [
    ("delta", {"a_values": (2,), "d_values": tuple(range(1, 11))}),
    ("delta_m", {"a_values": (1, 2, 3, 4), "d_values": tuple(range(1, 13))}),
    ("shift", {"N_values": (2, 5), "d_values": (3, 9, 63)})])
def test_search_violations_tagged_and_untagged(kind, axes):
    spec = GridSpec(n_max=60, **axes)
    report = search_counterexamples(kind, spec)
    assert report.summary[VIOLATION] > 1
    witnessed = {r.witness is not None for r in report.records}
    assert witnessed == {kind != "shift"}
    assert_matches_model(report, model_search(kind, spec))
    assert_writes_as_reference(report)
    assert_streams_as_reference(f"search-{kind}", spec, report)


def test_search_without_violations_writes_no_params():
    report = search_counterexamples("delta_mm", GridSpec(
        a_values=(2, 3), d_values=tuple(range(1, 13)), n_max=60))
    assert report.blocks == [] and report.summary == {}
    for fmt in FORMATS:
        assert written(report, fmt) == (reference(report, fmt), reference_summary(report))
    assert written(report, "csv")[0] == "cmd,status,value\n"
    assert_streams_as_reference("search-delta-mm", GridSpec(
        a_values=(2, 3), d_values=tuple(range(1, 13)), n_max=60), report)


COUNTS = ["--kind q --a 1 --d 2", "--kind Q --a 2 --d 4", "--kind Qm --a 1 --d 4",
          "--kind Qmm --a 3 --d 9", "--kind delta --a 1 --d 4",
          "--kind delta-m --a 2 --d 4", "--kind delta_mm --a 3 --d 4",
          "--kind rho --set S --d 63 --N 2", "--kind rho --set T --s 3 --d 31",
          "--kind g --d 63", "--kind l --d 31"]


def report_of(argv: str) -> Report:
    args = cli.build_parser().parse_args(argv.split())
    return Report.of(commands._DISPATCH[args.command](args))


@pytest.mark.parametrize("kind", COUNTS)
def test_every_count_kind_writes_as_reference(kind):
    report = report_of(f"count {kind} --n 3..40")
    assert [r.params["n"] for r in report.records] == list(range(3, 41))
    assert_writes_as_reference(report)


@pytest.mark.parametrize("argv", [
    "inject --d 63 --N 2 --n 455..457", "inject --d 63 --N 3 --n 40 --force",
    "verify anchors --d 63 --N 2", "verify anchors --d 40 --N 2",
    "verify xy-diff --d 63 --N 3", "verify t-monotone --d 31 --n-max 60"])
def test_one_cell_blocks_write_as_reference(argv):
    assert_writes_as_reference(report_of(argv))
