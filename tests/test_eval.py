"""Tests for metrics, oracle labelling and selection evaluation (repro.eval)."""

import numpy as np
import pytest

from repro.data import TimeSeriesRecord, generate_series
from repro.detectors import make_detector
from repro.eval import (
    Oracle,
    accuracy,
    auc_pr,
    auc_roc,
    best_f1,
    detection_report,
    evaluate_selection,
    oracle_upper_bound,
    precision_at_k,
    precision_recall_curve,
    single_best_baseline,
    top_k_accuracy,
)


class TestDetectionMetrics:
    def test_auc_pr_perfect_ranking(self):
        labels = np.array([0, 0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.3, 0.8, 0.9])
        assert auc_pr(labels, scores) == pytest.approx(1.0)

    def test_auc_pr_worst_ranking_is_low(self):
        labels = np.array([1, 1, 0, 0, 0, 0, 0, 0])
        scores = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        assert auc_pr(labels, scores) < 0.5

    def test_auc_pr_no_positives_returns_zero(self):
        assert auc_pr(np.zeros(10), np.random.default_rng(0).random(10)) == 0.0

    def test_auc_pr_random_scores_near_prevalence(self):
        rng = np.random.default_rng(1)
        labels = (rng.random(20000) < 0.1).astype(int)
        scores = rng.random(20000)
        assert auc_pr(labels, scores) == pytest.approx(0.1, abs=0.02)

    def test_auc_roc_perfect_and_inverted(self):
        labels = np.array([0, 0, 1, 1])
        assert auc_roc(labels, np.array([0.1, 0.2, 0.8, 0.9])) == pytest.approx(1.0)
        assert auc_roc(labels, np.array([0.9, 0.8, 0.2, 0.1])) == pytest.approx(0.0)

    def test_auc_roc_single_class_returns_half(self):
        assert auc_roc(np.zeros(5), np.arange(5.0)) == 0.5
        assert auc_roc(np.ones(5), np.arange(5.0)) == 0.5

    def test_auc_roc_handles_ties(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert auc_roc(labels, scores) == pytest.approx(0.5)

    def test_metrics_validate_shapes(self):
        with pytest.raises(ValueError):
            auc_pr(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            auc_roc(np.zeros(0), np.zeros(0))

    def test_precision_recall_curve_monotone_recall(self):
        rng = np.random.default_rng(2)
        labels = (rng.random(100) < 0.2).astype(int)
        scores = rng.random(100)
        precision, recall, thresholds = precision_recall_curve(labels, scores)
        assert np.all(np.diff(recall) >= 0)
        assert recall[0] == 0.0 and recall[-1] == pytest.approx(1.0)
        assert len(precision) == len(recall) == len(thresholds) + 1

    def test_best_f1_perfect_separation(self):
        labels = np.array([0, 0, 1, 1])
        assert best_f1(labels, np.array([0.0, 0.1, 0.9, 1.0])) == pytest.approx(1.0)

    def test_best_f1_no_positives(self):
        assert best_f1(np.zeros(4), np.arange(4.0)) == 0.0

    def test_precision_at_k(self):
        labels = np.array([0, 1, 0, 1, 0])
        scores = np.array([0.1, 0.9, 0.2, 0.8, 0.3])
        assert precision_at_k(labels, scores) == pytest.approx(1.0)
        assert precision_at_k(labels, scores, k=5) == pytest.approx(0.4)

    def test_detection_report_keys(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.array([0.2, 0.7, 0.1, 0.9])
        report = detection_report(labels, scores)
        assert set(report) == {"auc_pr", "auc_roc", "best_f1", "precision_at_k"}


class TestClassificationMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == pytest.approx(2 / 3)

    def test_accuracy_empty(self):
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_top_k_accuracy(self):
        proba = np.array([
            [0.1, 0.6, 0.3],
            [0.5, 0.4, 0.1],
        ])
        assert top_k_accuracy(np.array([2, 0]), proba, k=1) == pytest.approx(0.5)
        assert top_k_accuracy(np.array([2, 0]), proba, k=2) == pytest.approx(1.0)

    def test_top_k_accuracy_validates_shape(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.array([0, 1]), np.zeros((3, 2)))


class TestOracle:
    @pytest.fixture(scope="class")
    def small_model_set(self):
        return {
            "IForest": make_detector("IForest", window=16),
            "HBOS": make_detector("HBOS", window=16),
            "POLY": make_detector("POLY", window=16),
        }

    @pytest.fixture(scope="class")
    def records(self):
        return [generate_series("IOPS", i, 400, seed=5) for i in range(2)]

    def test_performance_matrix_shape_and_range(self, small_model_set, records):
        oracle = Oracle(small_model_set, metric="auc_pr")
        matrix = oracle.performance_matrix(records)
        assert matrix.shape == (2, 3)
        assert np.all(matrix >= 0.0) and np.all(matrix <= 1.0)

    def test_cache_roundtrip(self, small_model_set, records, tmp_path):
        oracle = Oracle(small_model_set, metric="auc_pr", cache_dir=tmp_path)
        first = oracle.performance_matrix(records)
        assert len(list(tmp_path.glob("oracle_*.npz"))) == 1
        second = oracle.performance_matrix(records)
        assert np.allclose(first, second)

    def test_cache_keys_on_detector_settings(self, small_model_set, records, tmp_path):
        Oracle(small_model_set, cache_dir=tmp_path).performance_matrix(records)
        wider = {name: make_detector(name, window=48) for name in small_model_set}
        cached = Oracle(wider, cache_dir=tmp_path).performance_matrix(records)
        assert np.array_equal(cached, Oracle(wider).performance_matrix(records))

    def test_cache_keys_on_every_point_and_label(self, small_model_set, records,
                                                 tmp_path):
        Oracle(small_model_set, cache_dir=tmp_path).performance_matrix(records)
        edited = []
        for record in records:
            series, labels = record.series.copy(), np.zeros_like(record.labels)
            series[200:260] += 5.0
            labels[200:260] = 1
            edited.append(TimeSeriesRecord(record.name, record.dataset, series, labels))
        cached = Oracle(small_model_set, cache_dir=tmp_path).performance_matrix(edited)
        assert np.array_equal(cached, Oracle(small_model_set).performance_matrix(edited))

    def test_unknown_metric_raises(self, small_model_set):
        with pytest.raises(ValueError):
            Oracle(small_model_set, metric="nope")


class _ConstantSelector:
    """Test double that always selects a fixed model index."""

    def __init__(self, choice: int, n_classes: int):
        self.choice = choice
        self.n_classes = n_classes

    def predict_proba(self, windows):
        proba = np.zeros((len(windows), self.n_classes))
        proba[:, self.choice] = 1.0
        return proba

    def predict(self, windows):
        return self.predict_proba(windows).argmax(axis=1)


class TestSelectionEvaluation:
    @pytest.fixture(scope="class")
    def records(self):
        return [generate_series("ECG", i, 400, seed=6) for i in range(2)] + \
               [generate_series("SMD", i, 400, seed=6) for i in range(2)]

    @pytest.fixture(scope="class")
    def performance(self, records):
        gen = np.random.default_rng(0)
        return gen.uniform(0.1, 0.9, size=(len(records), 4))

    def test_constant_selector_scores_match_matrix(self, records, performance):
        names = ["A", "B", "C", "D"]
        selector = _ConstantSelector(choice=2, n_classes=4)
        result = evaluate_selection(selector, records, performance, names, window=64)
        for i, record in enumerate(records):
            assert result.per_series_score[record.name] == pytest.approx(performance[i, 2])
        assert set(result.selected_models.values()) == {"C"}
        assert set(result.per_dataset_score) == {"ECG", "SMD"}

    def test_average_score_is_dataset_mean(self, records, performance):
        selector = _ConstantSelector(choice=0, n_classes=4)
        result = evaluate_selection(selector, records, performance, ["A", "B", "C", "D"], window=64)
        expected = np.mean([np.mean(performance[:2, 0]), np.mean(performance[2:, 0])])
        assert result.average_score == pytest.approx(expected)

    def test_selection_accuracy_perfect_when_choice_is_best(self, records):
        performance = np.zeros((4, 3))
        performance[:, 1] = 1.0
        selector = _ConstantSelector(choice=1, n_classes=3)
        result = evaluate_selection(selector, records, performance, ["A", "B", "C"], window=64)
        assert result.selection_accuracy == 1.0
        assert result.top3_accuracy == 1.0

    def test_mismatched_matrix_raises(self, records):
        selector = _ConstantSelector(0, 3)
        with pytest.raises(ValueError):
            evaluate_selection(selector, records, np.zeros((2, 3)), ["A", "B", "C"], window=64)

    def test_mean_aggregation(self, records, performance):
        selector = _ConstantSelector(choice=3, n_classes=4)
        result = evaluate_selection(selector, records, performance, list("ABCD"), window=64,
                                    aggregation="mean")
        assert set(result.selected_models.values()) == {"D"}

    def test_oracle_upper_bound_dominates_any_choice(self, records, performance):
        upper = oracle_upper_bound(records, performance)
        selector = _ConstantSelector(choice=0, n_classes=4)
        result = evaluate_selection(selector, records, performance, list("ABCD"), window=64)
        for dataset, value in result.per_dataset_score.items():
            assert upper[dataset] >= value - 1e-12

    def test_single_best_baseline_identifies_detector(self, records):
        performance = np.zeros((4, 3))
        performance[:, 2] = 0.8
        baseline = single_best_baseline(records, performance, ["A", "B", "C"])
        assert baseline["__detector_name__"] == "C"
        assert baseline["ECG"] == pytest.approx(0.8)
