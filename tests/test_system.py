"""Tests for the end-to-end system package (repro.system)."""

import json
import shutil

import numpy as np
import pytest

from repro.core import TrainerConfig
from repro.data import generate_series
from repro.detectors import make_detector
from repro.eval import evaluate_selection
from repro.selectors import make_selector
from repro.system import (
    CorruptSelectorError,
    ModelSelectionPipeline,
    PipelineConfig,
    SelectorStore,
    format_table,
    per_dataset_table,
    run_detection,
)


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.23456], ["bbb", 2.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "1.2346" in table
        assert lines[1].startswith("-")

    def test_per_dataset_table_includes_average(self):
        results = {"Standard": {"ECG": 0.5, "SMD": 0.3}, "Ours": {"ECG": 0.6, "SMD": 0.4}}
        table = per_dataset_table(results, datasets=["ECG", "SMD"])
        assert "Average" in table
        assert "0.5000" in table  # Ours average (0.6 + 0.4) / 2

    def test_per_dataset_table_handles_missing_entries(self):
        results = {"A": {"ECG": 0.5}}
        table = per_dataset_table(results, datasets=["ECG", "SMD"], include_average=False)
        assert "n/a" in table  # missing scores render legibly, not as "nan"


class TestAnomalyDetectionRunner:
    def test_run_detection_returns_metrics(self):
        record = generate_series("IOPS", 0, 400, seed=1)
        result = run_detection(record, make_detector("HBOS", window=16))
        assert result.series_name == record.name
        assert result.scores.shape == record.series.shape
        assert 0.0 <= result.metrics["auc_pr"] <= 1.0

    def test_run_detection_unlabeled_series_has_no_metrics(self):
        from repro.data import TimeSeriesRecord

        record = TimeSeriesRecord(name="unlabeled", dataset="ECG",
                                  series=np.sin(np.linspace(0, 20, 300)),
                                  labels=np.zeros(300, dtype=int))
        result = run_detection(record, make_detector("HBOS", window=16))
        assert result.metrics == {}
        assert result.scores.shape == record.series.shape


class TestSelectorStore:
    def test_non_nn_roundtrip(self, tmp_path, small_selector_dataset):
        store = SelectorStore(tmp_path)
        selector = make_selector("KNN").fit(small_selector_dataset)
        info = store.save("knn", selector, metadata={"window": 64})
        assert info.selector_type == "KNN" and not info.is_neural

        loaded = store.load("knn")
        windows = small_selector_dataset.windows[:5]
        assert np.allclose(loaded.predict_proba(windows), selector.predict_proba(windows))

    def test_nn_roundtrip(self, tmp_path, small_selector_dataset):
        store = SelectorStore(tmp_path)
        selector = make_selector("MLP", window=small_selector_dataset.windows.shape[1],
                                 n_classes=small_selector_dataset.n_classes, hidden=16, feature_dim=8)
        selector.fit(small_selector_dataset, config=TrainerConfig(epochs=1, batch_size=32))
        store.save("mlp", selector)
        loaded = store.load("mlp")
        windows = small_selector_dataset.windows[:5]
        assert np.allclose(loaded.predict_proba(windows), selector.predict_proba(windows))

    def test_duplicate_save_requires_overwrite(self, tmp_path, small_selector_dataset):
        store = SelectorStore(tmp_path)
        selector = make_selector("KNN").fit(small_selector_dataset)
        store.save("dup", selector)
        with pytest.raises(FileExistsError):
            store.save("dup", selector)
        store.save("dup", selector, overwrite=True)

    def test_list_and_delete(self, tmp_path, small_selector_dataset):
        store = SelectorStore(tmp_path)
        selector = make_selector("KNN").fit(small_selector_dataset)
        store.save("one", selector)
        store.save("two", selector)
        assert {info.name for info in store.list()} == {"one", "two"}
        assert "one" in store
        # an entry removed from disk leaves the listing and the store
        shutil.rmtree(tmp_path / "one")
        assert "one" not in store
        assert [info.name for info in store.list()] == ["two"]

    def test_invalid_name_rejected(self, tmp_path):
        store = SelectorStore(tmp_path)
        with pytest.raises(ValueError):
            store._entry_dir("../evil")

    def test_info_unknown_raises(self, tmp_path):
        with pytest.raises(KeyError):
            SelectorStore(tmp_path).info("ghost")

    def test_metadata_preserved(self, tmp_path, small_selector_dataset):
        store = SelectorStore(tmp_path)
        selector = make_selector("KNN").fit(small_selector_dataset)
        store.save("meta", selector, metadata={"auc_pr": 0.42, "note": "trial"})
        assert store.info("meta").metadata == {"auc_pr": 0.42, "note": "trial"}

    @pytest.mark.parametrize("edit, reason", [
        ({"selector_type": "NoSuchSelector"}, "unknown selector type 'NoSuchSelector'"),
        ({"is_neural": True}, "manifest marks 'KNN' as neural"),
        (None, "unreadable manifest.json (JSONDecodeError"),
    ], ids=["unknown-type", "neural-flag", "truncated"])
    def test_corrupt_entry_raises_typed_error(self, tmp_path, small_selector_dataset,
                                              edit, reason):
        store = SelectorStore(tmp_path)
        store.save("t", make_selector("KNN").fit(small_selector_dataset))
        manifest = tmp_path / "t" / "manifest.json"
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2] if edit is None
                            else json.dumps({**json.loads(text), **edit}))
        with pytest.raises(CorruptSelectorError) as caught:
            store.load("t")
        assert not isinstance(caught.value, KeyError)
        assert str(caught.value).startswith("stored selector 't' is corrupt: ")
        assert reason in str(caught.value)
        with pytest.raises(KeyError):  # a missing entry stays a KeyError
            store.load("ghost")


class TestPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("oracle_cache")
        config = PipelineConfig(window=64, stride=64, detector_window=16, cache_dir=cache, seed=0)
        # A reduced model set keeps the oracle pass fast while exercising the full flow.
        from repro.detectors import make_detector as make
        model_set = {
            "IForest": make("IForest", window=16),
            "HBOS": make("HBOS", window=16),
            "MP": make("MP", window=16),
            "POLY": make("POLY", window=16),
        }
        return ModelSelectionPipeline(model_set=model_set, config=config)

    @pytest.fixture(scope="class")
    def train_records(self):
        return [generate_series(name, 0, 400, seed=4) for name in ("ECG", "IOPS", "MGAB", "SMD")]

    @pytest.fixture(scope="class")
    def fitted(self, pipeline, train_records):
        pipeline.prepare_training_data(train_records)
        pipeline.train_selector(
            "MLP", trainer_config=TrainerConfig(epochs=2, batch_size=32),
            hidden=16, feature_dim=8, seed=0,
        )
        return pipeline

    def test_prepare_training_data_builds_dataset(self, fitted):
        assert fitted.train_dataset is not None
        assert fitted.train_dataset.n_classes == 4

    def test_select_model_returns_votes(self, fitted):
        record = generate_series("ECG", 5, 400, seed=4)
        out = fitted.select_model(record)
        assert out["selected_model"] in fitted.detector_names
        assert set(out["votes"]) == set(fitted.detector_names)
        assert sum(out["votes"].values()) == pytest.approx(1.0)

    def test_detect_runs_selected_model(self, fitted):
        record = generate_series("IOPS", 5, 400, seed=4)
        result = fitted.detect(record)
        assert result.scores.shape == record.series.shape
        assert result.detector_name in fitted.detector_names

    def test_evaluate_returns_per_dataset_scores(self, fitted):
        test_records = [generate_series(name, 9, 400, seed=4) for name in ("ECG", "SMD")]
        evaluation = evaluate_selection(fitted.selector, test_records,
                                        fitted.label_history(test_records),
                                        fitted.detector_names, window=fitted.config.window)
        assert set(evaluation.per_dataset_score) == {"ECG", "SMD"}
        assert 0.0 <= evaluation.average_score <= 1.0

    def test_train_selector_requires_prepared_data(self):
        pipeline = ModelSelectionPipeline(model_set={"HBOS": make_detector("HBOS")})
        with pytest.raises(RuntimeError):
            pipeline.train_selector("KNN")

    def test_select_model_requires_trained_selector(self, train_records):
        pipeline = ModelSelectionPipeline(model_set={"HBOS": make_detector("HBOS")})
        with pytest.raises(RuntimeError):
            pipeline.select_model(train_records[0])

    def test_non_nn_selector_through_pipeline(self, pipeline, train_records):
        pipeline.prepare_training_data(train_records)
        selector = pipeline.train_selector("KNN")
        record = generate_series("SMD", 7, 400, seed=4)
        out = pipeline.select_model(record)
        assert out["selected_model"] in pipeline.detector_names
        assert selector is pipeline.selector

    def test_windows_for_record(self, fitted):
        # select_model votes over the series' non-overlapping windows of the
        # pipeline's window: 400 points at window 64 give 6 windows
        record = generate_series("NAB", 0, 400, seed=4)
        votes = 6 * np.array(list(fitted.select_model(record)["votes"].values()))
        assert np.array_equal(votes, np.round(votes))
        assert votes.sum() == pytest.approx(6)
