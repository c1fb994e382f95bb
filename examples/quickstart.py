"""Quickstart: train a TSAD model selector with KDSelector and use it.

This walks through the three steps of the demo system (Sect. 4 of the
paper) on a small synthetic benchmark:

1. **Selector learning** — label historical series with the oracle (which
   detector performs best on each), build the windowed training set, and
   train a ResNet selector with the full KDSelector configuration
   (PISL + MKI + PA).
2. **Model selection** — predict the best TSAD model for an unseen series,
   directly and through the batched, cached serving front end.
3. **Anomaly detection** — run the selected model and report its metrics.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import kdselector_config
from repro.data import TSBUADBenchmark
from repro.system import ModelSelectionPipeline, PipelineConfig
from repro.system.reporting import format_table


def main() -> None:
    # ------------------------------------------------------------------ #
    # 0. Historical data: a small synthetic TSB-UAD-style benchmark.
    # ------------------------------------------------------------------ #
    benchmark = TSBUADBenchmark(
        n_train_per_dataset=1,
        n_test_per_dataset=1,
        series_length=800,
        seed=7,
    ).load()
    print(f"historical series: {len(benchmark.train_records)}  "
          f"test series: {len(benchmark.all_test_records)}")

    pipeline = ModelSelectionPipeline(
        config=PipelineConfig(window=64, stride=32, detector_window=24,
                              cache_dir=".quickstart_cache"),
    )

    # ------------------------------------------------------------------ #
    # 1. Selector learning (oracle labelling + KDSelector training).
    # ------------------------------------------------------------------ #
    print("\n[1/3] labelling historical data with the 12-detector oracle ...")
    pipeline.prepare_training_data(benchmark.train_records)

    print("[1/3] training a ResNet selector with PISL + MKI + PA ...")
    pipeline.train_selector(
        "ResNet",
        trainer_config=kdselector_config(epochs=4, batch_size=64, seed=0),
        mid_channels=12, num_layers=2, seed=0,
    )
    report = pipeline.selector.last_report_
    print(f"      training time: {report.total_time:.1f}s, "
          f"sample visits pruned: {100 * report.pruned_fraction:.1f}%")

    # ------------------------------------------------------------------ #
    # 2. Model selection for a new series.
    # ------------------------------------------------------------------ #
    record = benchmark.test_records["ECG"][0]
    selection = pipeline.select_model(record)
    print(f"\n[2/3] selected TSAD model for {record.name}: {selection['selected_model']}")
    top_votes = sorted(selection["votes"].items(), key=lambda kv: -kv[1])[:3]
    print("      top votes:", ", ".join(f"{name}={share:.2f}" for name, share in top_votes))

    # The serving front end answers the same series batched and cached:
    # the second request for it is a cache hit with the same selection.
    service = pipeline.as_service()
    first, repeat = service.select(record), service.select(record)
    assert first.selected_model == repeat.selected_model == selection["selected_model"]
    print(f"      served: {first.selected_model} (repeat from cache: {repeat.from_cache})")

    # ------------------------------------------------------------------ #
    # 3. Anomaly detection with the selected model.
    # ------------------------------------------------------------------ #
    result = pipeline.detect(record)
    print(f"\n[3/3] detection metrics of the selected model on {record.name}:")
    print(format_table(["metric", "value"], sorted(result.metrics.items())))


if __name__ == "__main__":
    main()
