"""The perf ledger's summariser on synthetic runs (no benchmark is run).

``tools/perf_pairs.py`` pairs perfbench runs of a parent and a change and
appends one summary record to ``BENCH_perfbench.json``.  These tests pin
the arithmetic of that record: quartiles, wins in each metric's direction,
the bound check, the clear-gain rule, the alternating run order and the
report of a reference that moved between the sides.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "points_per_ref", "unit": "points/ref", "better": "higher", "bound": 0.25},
    ],
}


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", ROOT / "tools" / "perf_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(setup_s, points, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"setup_s": {"value": setup_s, "unit": "s"},
                        "points_per_ref": {"value": points, "unit": "points/ref"}}}


def test_quartiles_interpolate_linearly(perf_pairs):
    assert perf_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert perf_pairs.quartiles([1.0, 2.0]) == {"q1": 1.25, "median": 1.5, "q3": 1.75}
    assert perf_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_run_order_alternates_starting_with_the_parent(perf_pairs):
    assert [perf_pairs.run_order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_summary_of_a_clear_gain(perf_pairs):
    parent_points = [24.0, 25.0, 24.5, 25.5, 24.8, 25.2, 24.2, 25.1, 24.9, 24.6]
    pairs = [(_result(1.0, p), _result(1.0 + 0.01 * i, 1.7 * p))
             for i, p in enumerate(parent_points)]
    pairs[3] = (_result(1.0, 25.5), _result(1.0, 25.0))  # one pair the change loses
    summary = perf_pairs.summarise(pairs, SPEC)
    assert summary["pairs"] == 10
    assert summary["failed"] == {"parent": [0] * 10, "change": [0] * 10}
    points = summary["metrics"]["points_per_ref"]
    assert points["change_wins"] == 9
    assert points["clear_gain"] and points["within_bound"]
    assert points["parent"]["median"] == pytest.approx(24.85)
    assert points["runs"]["parent"] == parent_points and points["runs"]["change"][3] == 25.0
    assert points["change_over_parent"] == pytest.approx(points["change"]["median"] / 24.85)
    setup = summary["metrics"]["setup_s"]
    # equal values are not wins; a slower change within the bound still holds
    assert setup["change_wins"] == 0 and setup["within_bound"] and not setup["clear_gain"]
    assert (setup["unit"], setup["better"], setup["bound"]) == ("s", "lower", 0.25)


def test_bound_and_failures_are_reported(perf_pairs):
    pairs = [(_result(1.0, 10.0), _result(1.3, 7.2, failed=1)),
             (_result(1.1, 10.0), _result(1.4, 7.4))]
    summary = perf_pairs.summarise(pairs, SPEC)
    assert summary["failed"] == {"parent": [0, 0], "change": [1, 0]}
    assert not summary["metrics"]["setup_s"]["within_bound"]        # 1.35 > 1.05 * 1.25
    assert not summary["metrics"]["points_per_ref"]["within_bound"]  # 7.3 < 10 * 0.75
    assert summary["metrics"]["setup_s"]["change_wins"] == 0


def test_gain_inside_the_parent_spread_is_not_clear(perf_pairs):
    pairs = [(_result(1.0, p), _result(1.0, p + 0.1)) for p in (10.0, 12.0, 14.0, 16.0)]
    points = perf_pairs.summarise(pairs, SPEC)["metrics"]["points_per_ref"]
    assert points["change_wins"] == 4 and not points["clear_gain"]


def test_spread_wider_than_the_bound_is_unresolved(perf_pairs):
    # setup_s quartiles 1.0-2.0 around 1.5: a spread of 67 % against a 25 % bound
    wide = [(_result(s, 10.0), _result(s, 10.0)) for s in (0.5, 1.0, 1.5, 2.0, 2.5)]
    assert perf_pairs.summarise(wide, SPEC)["metrics"]["setup_s"]["unresolved"]
    # ... unless every change run beats every parent run
    apart = [(_result(s + 3.0, 10.0), _result(s, 10.0)) for s in (0.5, 1.0, 1.5, 2.0, 2.5)]
    assert not perf_pairs.summarise(apart, SPEC)["metrics"]["setup_s"]["unresolved"]
    narrow = [(_result(1.0, 10.0), _result(1.05, 10.0))] * 3
    assert not perf_pairs.summarise(narrow, SPEC)["metrics"]["setup_s"]["unresolved"]


def _record(op_ms, reference_ms, setup_walls, train_rate=1.0):
    """The parts of a perfbench run record the wall-clock summary reads."""
    return {"workload": "offline", "setup_wall_s": setup_walls, "setup_corrected_s": setup_walls,
            "wall_clock": {"op_p50_ms": op_ms, "op_tail_ms": 2 * op_ms, "points_per_s": 1.0,
                           "train_windows_per_s": train_rate, "reference_p50_ms": reference_ms}}


def test_wall_clock_figures_are_kept_per_side(perf_pairs):
    record_pairs = [(_record(100.0, 1.0, [0.5, 0.7, 0.6], 900.0), _record(60.0, 1.1, [0.6], 1100.0)),
                    (_record(120.0, 1.2, [0.4], 950.0), _record(70.0, 1.3, [0.5, 0.9], 1000.0)),
                    (_record(110.0, 1.1, [0.3, 0.2], 800.0), _record(65.0, 1.0, [0.8], 1200.0))]
    summary = perf_pairs.summarise_wall_clock(record_pairs)
    assert set(summary) == {"op_p50_ms", "op_tail_ms", "reference_p50_ms", "setup_wall_s",
                            "train_windows_per_s", "reference_shift", "reference_moved"}
    assert summary["op_p50_ms"]["parent"] == {"q1": 105.0, "median": 110.0, "q3": 115.0,
                                              "runs": [100.0, 120.0, 110.0]}
    assert summary["op_p50_ms"]["change"]["runs"] == [60.0, 70.0, 65.0]
    assert summary["op_tail_ms"]["parent"]["runs"] == [200.0, 240.0, 220.0]
    assert summary["reference_p50_ms"]["change"]["runs"] == [1.1, 1.3, 1.0]
    # one run's set-up figure is the median of its set-up repeats
    assert summary["setup_wall_s"]["parent"]["runs"] == [0.6, 0.4, 0.25]
    assert summary["setup_wall_s"]["change"]["runs"] == [0.6, 0.7, 0.8]
    # the selector fits' throughput, kept as the runs report it
    assert summary["train_windows_per_s"]["parent"] == {"q1": 850.0, "median": 900.0,
                                                        "q3": 925.0, "runs": [900.0, 950.0, 800.0]}
    assert summary["train_windows_per_s"]["change"]["runs"] == [1100.0, 1000.0, 1200.0]


def _workload_summary(perf_pairs, parent_refs, change_refs):
    """A workload's summary: flat metrics, and these reference times per run and side."""
    summary = perf_pairs.summarise([(_result(1.0, 10.0), _result(1.0, 10.0))] * len(parent_refs),
                                   SPEC)
    summary["wall_clock"] = perf_pairs.summarise_wall_clock(
        [(_record(100.0, parent, [0.5]), _record(90.0, change, [0.5]))
         for parent, change in zip(parent_refs, change_refs)])
    return summary


def test_a_reference_faster_in_the_change_is_reported(perf_pairs):
    summary = _workload_summary(perf_pairs, [2.0, 2.2, 2.1], [1.9, 1.94, 1.96])
    clock = summary["wall_clock"]
    assert clock["reference_shift"] == pytest.approx(1.94 / 2.1 - 1.0)
    assert clock["reference_moved"] is True
    note = perf_pairs.reference_note("offline", summary)
    assert note.startswith("offline reference moved: the change's reference_p50_ms is -7.6 % ")
    # only the metrics that divide by the reference are named, and they read worse
    assert note.endswith("so points_per_ref read worse for the change by that alone")
    assert "setup_s" not in note


def test_a_reference_slower_in_the_change_reads_better(perf_pairs):
    summary = _workload_summary(perf_pairs, [2.0, 2.0], [2.1, 2.1])
    assert summary["wall_clock"]["reference_shift"] == pytest.approx(0.05)
    assert "+5.0 %" in perf_pairs.reference_note("stream", summary)
    assert "read better" in perf_pairs.reference_note("stream", summary)


@pytest.mark.parametrize("change_refs", [[2.0, 2.0, 2.0], [2.05, 2.06, 2.04], [1.95, 1.95, 1.95]])
def test_a_reference_within_three_percent_has_not_moved(perf_pairs, change_refs):
    summary = _workload_summary(perf_pairs, [2.0, 2.0, 2.0], change_refs)
    assert summary["wall_clock"]["reference_moved"] is False
    assert perf_pairs.reference_note("serve", summary) is None


def test_append_record_keeps_earlier_records(perf_pairs, tmp_path):
    ledger = tmp_path / "BENCH_perfbench.json"
    perf_pairs.append_record(ledger, {"label": "first"})
    perf_pairs.append_record(ledger, {"label": "second"})
    assert [r["label"] for r in json.loads(ledger.read_text())] == ["first", "second"]


def test_committed_ledger_records_are_complete():
    ledger = json.loads((ROOT / "BENCH_perfbench.json").read_text())
    assert ledger, "the ledger holds at least one record"
    keeps_training = False
    for record in ledger:
        # from the first record that keeps the selector fits' throughput on,
        # every workload of every record keeps it
        kept = ["train_windows_per_s" in summary.get("wall_clock", {})
                for summary in record["workloads"].values()]
        keeps_training = keeps_training or any(kept)
        assert all(kept) or not keeps_training
        for side in ("parent", "change"):
            assert {"ref", "commit", "tree", "src_tree"} <= set(record[side])
        assert {"nproc", "python", "numpy", "seed", "seconds", "workloads"} <= set(record)
        for summary in record["workloads"].values():
            assert summary["pairs"] == len(summary["failed"]["parent"])
            for metric in summary["metrics"].values():
                assert {"q1", "median", "q3"} <= set(metric["parent"]) & set(metric["change"])
                assert 0 <= metric["change_wins"] <= summary["pairs"]
            # records written before the wall-clock figures were kept lack
            # them, and those written before the reference shift lack it
            clock = dict(summary.get("wall_clock", {}))
            if "reference_shift" in clock:
                shift, moved = clock.pop("reference_shift"), clock.pop("reference_moved")
                reference = clock["reference_p50_ms"]
                assert shift == pytest.approx(
                    reference["change"]["median"] / reference["parent"]["median"] - 1.0)
                assert moved == (abs(shift) > 0.03)
            for figure in clock.values():
                for side in ("parent", "change"):
                    assert {"q1", "median", "q3"} <= set(figure[side])
                    assert len(figure[side]["runs"]) == summary["pairs"]
