"""Serving throughput — cold sequential vs batched vs warm-cache selection.

The serving layer (``repro.serving``) reorganises the one-shot pipeline's
per-series work for query traffic: batches of series share one windowing
pass and one chunked selector forward pass, and a content-addressed LRU
cache answers repeated queries without touching the selector.  This
benchmark measures all three regimes on the same query set:

* **cold sequential** — the one-shot path (:func:`predict_for_series`
  per series), the pre-serving baseline,
* **cold batched**    — ``SelectionService.select_batch`` with an empty
  cache (vectorised windowing + one forward pass),
* **warm batched**    — the same batch again, now answered from the cache.

A second benchmark pins the **selector tiers** of ``repro.distill``: the
teacher is distilled into a float student, the teacher itself is
quantized into the int8 teacher tier, and each tier's forward throughput
and selection agreement are measured on the same query windows.

Acceptance (checked by assertions):

* batched selections are **bitwise identical** to sequential ones
  (same selected model, same aggregated vote vector),
* warm-cache batched serving is **>= 5x** faster than cold sequential,
* the student's per-window selections agree with the teacher on
  **>= 97 %** of held-out query windows,
* the int8 **teacher** tier's forward throughput is **>= 3x** the float
  teacher's at **>= 97 %** window agreement, and
* the teacher's float64 probabilities are **bitwise identical** before
  and after distillation/quantization (the fast paths never perturb the
  slow path).

Run modes:

* ``pytest benchmarks/bench_serving_throughput.py`` — full scale,
  asserts everything above.
* ``python benchmarks/bench_serving_throughput.py --smoke`` — CI gate at
  reduced scale: asserts the agreement/bitwise contracts absolutely,
  then compares the measured tier speedups against the
  ``selector_tiers`` and ``teacher_int8`` sections of
  ``benchmarks/baselines.json`` and fails on a > 20 % regression.
  ``--record`` rewrites those sections.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import TrainerConfig
from repro.data import build_selector_dataset, generate_series
from repro.data.records import DATASET_NAMES
from repro.data.windows import extract_windows
from repro.distill import (
    DistillConfig,
    distill_student,
    quantize_teacher,
    selection_agreement,
)
from repro.eval import aggregate_window_probas, predict_for_series
from repro.selectors import make_selector
from repro.serving import SelectionService, ServingConfig, configure_transform_cache
from repro.system.reporting import format_cache_stats, format_table

BASELINES_PATH = Path(__file__).resolve().parent / "baselines.json"

#: Benchmark scale (small enough for CPU laptops; raise for stress runs).
SERVING_SCALE = {
    "n_train_series": 8,
    "n_query_series": 48,
    "train_length": 800,
    "query_length": 1600,
    "window": 96,
    "epochs": 2,
    "seed": 0,
}

#: Selector-tier benchmark scale (transfer set + distillation budget).
TIER_SCALE = {
    "n_transfer_series": 24,
    "transfer_length": 1600,
    "transfer_stride": 48,
    "distill_epochs": 30,
    "features": "stats",
    "timing_repeats": 5,
}

#: The acceptance threshold: warm cache must beat cold sequential by this.
MIN_WARM_SPEEDUP = 5.0

#: Tier acceptance: int8 teacher forward throughput vs the float teacher ...
MIN_INT8_SPEEDUP = 3.0
#: ... at at least this per-window selection agreement with the teacher.
MIN_TIER_AGREEMENT = 0.97

#: smoke gate: tier speedups may regress at most 20 % below the baselines
REGRESSION_TOLERANCE = 0.8


def _build_selector(scale):
    """Train a small MLP selector on synthetic oracle knowledge."""
    names = DATASET_NAMES[: scale["n_train_series"]]
    train_records = [generate_series(name, 0, scale["train_length"], seed=scale["seed"])
                     for name in names]
    detector_names = ["IForest", "LOF", "HBOS", "MP", "POLY", "CNN"]
    gen = np.random.default_rng(scale["seed"] + 1)
    matrix = gen.uniform(0.05, 0.4, size=(len(train_records), len(detector_names)))
    matrix[np.arange(len(train_records)), np.arange(len(train_records)) % len(detector_names)] += 0.5

    dataset = build_selector_dataset(train_records, matrix, detector_names,
                                     window=scale["window"], stride=scale["window"],
                                     seed=scale["seed"])
    # ResNet is the paper's default selector architecture — the realistic
    # (convolutional, forward-pass-bound) serving workload.
    selector = make_selector("ResNet", window=scale["window"], n_classes=dataset.n_classes,
                             mid_channels=12, num_layers=2, seed=scale["seed"])
    selector.fit(dataset, config=TrainerConfig(epochs=scale["epochs"], batch_size=64,
                                               seed=scale["seed"]))
    return selector, detector_names


def _query_records(scale):
    families = DATASET_NAMES[: min(8, len(DATASET_NAMES))]
    return [
        generate_series(families[i % len(families)], i, scale["query_length"],
                        seed=scale["seed"] + 2)
        for i in range(scale["n_query_series"])
    ]


def run_serving_benchmark(scale=None):
    """Time the three serving regimes; returns rates, results and stats."""
    scale = dict(SERVING_SCALE, **(scale or {}))
    selector, detector_names = _build_selector(scale)
    records = _query_records(scale)
    window = scale["window"]

    # Cold sequential: the pre-serving, per-series path.
    start = time.perf_counter()
    sequential = [predict_for_series(selector, record, window) for record in records]
    seq_time = time.perf_counter() - start

    # Cold batched: one windowing pass + one chunked forward pass.
    service = SelectionService(selector, detector_names, ServingConfig(window=window))
    start = time.perf_counter()
    cold_results = service.select_batch(records)
    cold_time = time.perf_counter() - start

    # Warm batched: answered entirely from the content-addressed cache.
    start = time.perf_counter()
    warm_results = service.select_batch(records)
    warm_time = time.perf_counter() - start

    # --- equivalence: batched results must be bitwise identical ---------- #
    for record, (choice, aggregated), cold, warm in zip(records, sequential,
                                                        cold_results, warm_results):
        assert cold.selected_index == choice, f"batch != sequential on {record.name}"
        assert cold.selected_model == detector_names[choice]
        assert list(cold.votes.values()) == [float(v) for v in aggregated], \
            f"vote vector differs on {record.name}"
        assert warm.votes == cold.votes and warm.selected_index == cold.selected_index
    assert all(r.from_cache for r in warm_results)

    n = len(records)
    return {
        "n_series": n,
        "seq_time": seq_time,
        "cold_time": cold_time,
        "warm_time": warm_time,
        "rates": {
            "cold sequential": n / seq_time,
            "cold batched": n / cold_time,
            "warm batched": n / warm_time,
        },
        "warm_speedup": seq_time / warm_time,
        "batch_speedup": seq_time / cold_time,
        "stats": service.stats,
    }


@pytest.mark.benchmark(group="serving-throughput")
def test_serving_throughput(benchmark):
    """Warm-cache batched serving must beat cold sequential by >= 5x."""
    out = benchmark.pedantic(run_serving_benchmark, rounds=1, iterations=1)

    rows = [[label, f"{rate:.1f}"] for label, rate in out["rates"].items()]
    rows.append(["warm speedup vs cold sequential", f"{out['warm_speedup']:.1f}x"])
    rows.append(["batch speedup vs cold sequential", f"{out['batch_speedup']:.2f}x"])
    print()
    print(format_table(["regime", "series/sec"], rows))
    print(format_cache_stats(out["stats"]))

    assert out["warm_speedup"] >= MIN_WARM_SPEEDUP, (
        f"warm cache only {out['warm_speedup']:.1f}x faster than cold sequential "
        f"(need >= {MIN_WARM_SPEEDUP}x)"
    )


# --------------------------------------------------------------------------- #
# selector tiers: teacher vs int8 teacher vs distilled student
# --------------------------------------------------------------------------- #
def _transfer_windows(scale, tier_scale):
    """Fresh series from the training families, windowed as a transfer set."""
    families = DATASET_NAMES[: scale["n_train_series"]]
    records = [
        generate_series(families[i % len(families)], i, tier_scale["transfer_length"],
                        seed=scale["seed"] + 3)
        for i in range(tier_scale["n_transfer_series"])
    ]
    return np.vstack([
        extract_windows(r.series, scale["window"], stride=tier_scale["transfer_stride"])
        for r in records
    ])


def _timed_forwards(tiers, windows, repeats):
    """Best-of-``repeats`` cold forward pass of every tier.

    The tiers take turns inside each repeat, so a slow spell of the machine
    lands on all of them rather than on one tier's repeats: the speedup
    ratios compare forwards timed side by side.
    """
    best = dict.fromkeys(tiers, np.inf)
    probas = {}
    for _ in range(repeats):
        for tier, selector in tiers.items():
            configure_transform_cache(None)  # drop memoised transforms: cold path
            start = time.perf_counter()
            probas[tier] = selector.predict_proba(windows)
            best[tier] = min(best[tier], time.perf_counter() - start)
    return probas, best


def run_selector_tier_benchmark(scale=None, tier_scale=None, verbose=True):
    """Distill + quantize the benchmark teacher and race the three tiers."""
    scale = dict(SERVING_SCALE, **(scale or {}))
    tier_scale = dict(TIER_SCALE, **(tier_scale or {}))
    window = scale["window"]

    teacher, detector_names = _build_selector(scale)
    records = _query_records(scale)
    query_windows = np.vstack([extract_windows(r.series, window) for r in records])
    per_series = [len(extract_windows(r.series, window)) for r in records]

    # The float64 teacher path must be bitwise untouched by distillation.
    teacher_before = teacher.predict_proba(query_windows)

    config = DistillConfig(epochs=tier_scale["distill_epochs"],
                           features=tier_scale["features"],
                           seed=scale["seed"])
    transfer = _transfer_windows(scale, tier_scale)
    student, report = distill_student(teacher, transfer, detector_names, config)
    teacher_int8, teacher_gate = quantize_teacher(teacher, transfer,
                                                  min_agreement=MIN_TIER_AGREEMENT)

    tiers = {"teacher": teacher, "teacher-int8": teacher_int8, "student": student}
    probas, times = _timed_forwards(tiers, query_windows, tier_scale["timing_repeats"])

    assert np.array_equal(probas["teacher"], teacher_before), \
        "distillation/quantization perturbed the float64 teacher probabilities"

    n_windows = len(query_windows)
    out = {
        "n_windows": n_windows,
        "report": report,
        "teacher_gate": teacher_gate,
        "throughput": {t: n_windows / dt for t, dt in times.items()},
        "speedup": {t: times["teacher"] / dt for t, dt in times.items()},
        "window_agreement": {
            t: selection_agreement(probas[t], probas["teacher"]) for t in tiers
        },
    }

    # per-series selections through the shared vote aggregation
    series_agree = {t: 0 for t in tiers}
    offset = 0
    for count in per_series:
        rows = slice(offset, offset + count)
        picks = {t: aggregate_window_probas(probas[t][rows], "vote")[0] for t in tiers}
        for t in tiers:
            series_agree[t] += int(picks[t] == picks["teacher"])
        offset += count
    out["series_agreement"] = {t: series_agree[t] / len(per_series) for t in tiers}

    if verbose:
        rows = [[t, f"{out['throughput'][t]:.0f}", f"{out['speedup'][t]:.2f}x",
                 f"{out['window_agreement'][t]:.4f}", f"{out['series_agreement'][t]:.4f}"]
                for t in tiers]
        print(format_table(
            ["tier", "windows/sec", "speedup", "window agreement", "series agreement"],
            rows))
        print(f"teacher params: {report.teacher_parameters}  "
              f"student params: {report.student_parameters}")
        print(f"teacher-int8 gate agreement: {teacher_gate['agreement']:.4f} "
              f"(max |dproba| {teacher_gate['max_proba_diff']:.4f})  "
              f"scales hash {teacher_gate['act_scales_hash']}")
    return out


def _assert_tier_contracts(out):
    """The scale-independent tier contracts (shared by pytest and smoke)."""
    assert out["speedup"]["teacher-int8"] >= MIN_INT8_SPEEDUP, (
        f"teacher-int8 only {out['speedup']['teacher-int8']:.2f}x faster than "
        f"the teacher (need >= {MIN_INT8_SPEEDUP}x)")
    for tier in ("student", "teacher-int8"):
        agreement = out["window_agreement"][tier]
        assert agreement >= MIN_TIER_AGREEMENT, (
            f"{tier} agrees with the teacher on only {agreement:.4f} of query "
            f"windows (need >= {MIN_TIER_AGREEMENT})")


@pytest.mark.benchmark(group="serving-throughput")
def test_selector_tier_throughput(benchmark):
    """Int8 teacher >= 3x teacher throughput; tiers at >= 0.97 agreement."""
    out = benchmark.pedantic(run_selector_tier_benchmark, rounds=1, iterations=1)
    _assert_tier_contracts(out)


# --------------------------------------------------------------------------- #
# smoke mode (CI gate against recorded baselines)
# --------------------------------------------------------------------------- #
def run_smoke(record: bool = False) -> int:
    out = run_selector_tier_benchmark(
        scale={"n_query_series": 16, "epochs": 1},
        tier_scale={"n_transfer_series": 12, "distill_epochs": 15,
                    "timing_repeats": 2},
    )
    _assert_tier_contracts(out)  # absolute contracts hold at any scale
    measured = {
        "student_speedup": round(out["speedup"]["student"], 3),
    }
    int8_teacher = {
        "forward_speedup": round(out["speedup"]["teacher-int8"], 3),
        "window_agreement": round(out["window_agreement"]["teacher-int8"], 4),
    }
    print(f"smoke measurements: {json.dumps({**measured, 'teacher_int8': int8_teacher})}")

    if record:
        # merge into the shared baselines file — other benchmarks keep
        # their own sections (e.g. smoke, service_smoke)
        baselines_doc = json.loads(BASELINES_PATH.read_text()) \
            if BASELINES_PATH.exists() else {}
        baselines_doc["selector_tiers"] = {
            "description": ("bench_serving_throughput --smoke baselines "
                            "(tier speedups; regenerate with --record)"),
            **measured,
        }
        baselines_doc["teacher_int8"] = {
            "description": ("bench_serving_throughput --smoke baselines for the "
                            "int8 teacher tier (regenerate with --record)"),
            **int8_teacher,
        }
        BASELINES_PATH.write_text(json.dumps(baselines_doc, indent=2) + "\n")
        print(f"recorded baselines -> {BASELINES_PATH}")
        return 0

    baselines_doc = json.loads(BASELINES_PATH.read_text())
    baselines = baselines_doc["selector_tiers"]
    teacher_baselines = baselines_doc.get("teacher_int8", {})
    failures = []
    for key, baseline in measured.items():
        floor = REGRESSION_TOLERANCE * baselines[key]
        if measured[key] < floor:
            failures.append(f"{key}: measured {measured[key]:.2f} < "
                            f"{floor:.2f} (80% of baseline {baselines[key]:.2f})")
    baseline_speedup = teacher_baselines.get("forward_speedup")
    if baseline_speedup is None:
        failures.append("teacher_int8 baselines missing — run with --record")
    elif int8_teacher["forward_speedup"] < REGRESSION_TOLERANCE * baseline_speedup:
        failures.append(
            f"teacher_int8 forward_speedup: measured "
            f"{int8_teacher['forward_speedup']:.2f} < "
            f"{REGRESSION_TOLERANCE * baseline_speedup:.2f} "
            f"(80% of baseline {baseline_speedup:.2f})")
    if failures:
        print("SMOKE REGRESSION:\n  " + "\n  ".join(failures))
        return 1
    print("smoke: OK (within 20% of recorded baselines)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale tier run gated against baselines.json")
    parser.add_argument("--record", action="store_true",
                        help="with --smoke: rewrite the selector_tiers baselines")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(record=args.record)
    out = run_serving_benchmark()
    for label, rate in out["rates"].items():
        print(f"{label:>16}: {rate:10.1f} series/sec")
    print(f"warm speedup: {out['warm_speedup']:.1f}x  (threshold {MIN_WARM_SPEEDUP}x)")
    tiers = run_selector_tier_benchmark()
    _assert_tier_contracts(tiers)
    print("selector tiers: all acceptance assertions passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
