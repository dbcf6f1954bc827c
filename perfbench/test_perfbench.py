"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from stats import percentile, summarize, tail_permille  # noqa: E402
from workloads import BY_NAME, LEFT_RIGHT, WITHIN_SIDE, WORKLOADS  # noqa: E402


def fake_clock(*times):
    ticks = iter(times)
    return lambda: next(ticks)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > leaf [2, 3]; root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0.0, 1.0, 3.0, 8.0], [10.0, 5.0, 7.0, 12.0], [-1, 0, 0, 0]
    # children cover [1, 7] and [8, 10] of the root (the last is clipped)
    assert spans.self_times(starts, ends, parents)[0] == pytest.approx(2.0)


def test_tracer_records_parents_and_rollup_accounts_for_wall_time():
    tracer = spans.Tracer("t", clock=fake_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0))
    inner = tracer.wrap("bitmatch.kernel", lambda: None)
    outer = tracer.wrap("fileio.read", lambda: inner())

    def command():
        outer()
        inner()

    tracer.call("cli.match", command)
    dump = tracer.dump()
    assert dump["names"] == ["cli.match", "fileio.read", "bitmatch.kernel", "bitmatch.kernel"]
    assert dump["parents"] == [-1, 0, 1, 0]
    roll = spans.Rollup(dump, ["match"])
    [(stage, wall, per_layer)] = roll.layer_table()
    assert (stage, wall) == ("match", 10.0)
    assert per_layer == {"cli": 6.0, "fileio": 2.0, "bitmatch": 2.0}
    assert sum(per_layer.values()) == wall


# -- medians, tail percentiles, sample counts --------------------------------


@pytest.mark.parametrize(
    "n, permille", [(1, None), (19, None), (20, 500), (40, 750), (100, 900), (1000, 990),
                    (9999, 990), (10000, 999)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, permille):
    assert tail_permille(n) == permille


def test_summary_reports_median_tail_and_count():
    assert summarize([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3, "tail_pct": None, "tail": None}
    summary = summarize(range(100))
    assert (summary["median"], summary["n"], summary["tail_pct"]) == (49.5, 100, 90.0)
    assert summary["tail"] == pytest.approx(89.1)
    assert percentile([], 99) == 0.0
    assert percentile([5.0], 50) == 5.0


def test_calibration_scales_each_stage_by_the_loops_around_it():
    result = {
        "stages": [{"start": 0.0, "end": 2.0}, {"start": 2.5, "end": 3.5}],
        "calibration": [run.REFERENCE_CALIBRATION_S, 3 * run.REFERENCE_CALIBRATION_S,
                        run.REFERENCE_CALIBRATION_S],
    }
    # a stage timed while the machine ran the loop twice as slowly counts half
    assert run.calibrated_walls(result) == pytest.approx([1.0, 0.5])


# -- closed-form pair counts -------------------------------------------------


def _manifest(subjects, samples, sides):
    from irisfuse.evaluation import Manifest, ManifestEntry

    return Manifest(tuple(
        ManifestEntry(f"S{s}", side, i, f"S{s}{side}{i}", f"S{s}{side}{i}")
        for s, side, i in itertools.product(range(subjects), sides, range(samples))
    ))


@pytest.mark.parametrize("subjects, samples, sides, protocol, members", [
    (5, 3, "L", WITHIN_SIDE, 1),
    (4, 4, "LR", WITHIN_SIDE, 1),
    (6, 2, "LR", LEFT_RIGHT, 2),
])
def test_closed_form_rows_match_enumerated_pairs(subjects, samples, sides, protocol, members):
    from irisfuse.evaluation import count_pairs

    genuine, impostor = count_pairs(_manifest(subjects, samples, sides), protocol)
    assert checks.expected_rows(subjects, samples, len(sides), protocol) == (
        genuine * members, impostor * members)


def test_closed_form_rows_of_the_demo_split():
    w = BY_NAME["demo-pipeline"]
    test_split = w.split_subjects("manifest-test.jsonl")
    assert sum(checks.expected_rows(test_split, w.samples, w.sides, WITHIN_SIDE)) == 21945


# -- tracing a package whose functions moved ---------------------------------


def test_missing_function_is_reported_absent_without_crashing(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    bitmatch = types.ModuleType("fakepkg.bitmatch")
    cli = types.ModuleType("fakepkg.cli")

    def batched_counts(x):
        return x + 1

    batched_counts.__module__ = "fakepkg.bitmatch"
    bitmatch.batched_counts = batched_counts
    cli.batched_counts = batched_counts  # imported by name elsewhere
    for name, module in (("fakepkg", pkg), ("fakepkg.bitmatch", bitmatch), ("fakepkg.cli", cli)):
        monkeypatch.setitem(sys.modules, name, module)

    tracer = spans.Tracer("t")
    wrapped = spans.install(tracer, "fakepkg", layers=("bitmatch", "fileio"))
    assert wrapped == ["bitmatch.batched_counts"]
    assert tracer.call("cli.match", cli.batched_counts, 1) == 2
    assert tracer.dump()["names"] == ["cli.match", "bitmatch.batched_counts"]
    missing = spans.absent(wrapped)
    assert "bitmatch.match_with_rotations" in missing
    assert "fileio.read_template" in missing

    roll = spans.Rollup(tracer.dump(), ["match"])
    assert roll.total(roll.calls, "bitmatch.match_with_rotations") == 0
    assert percentile(roll.durations["bitmatch.match_with_rotations"], 99) == 0.0
    assert roll.total(roll.calls, "bitmatch") == 1


# -- the benchmark's declared metrics ----------------------------------------


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in WORKLOADS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
