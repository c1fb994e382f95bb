"""Tests for the ensemble baseline."""

import numpy as np
import pytest

from repro.data import generate_series
from repro.detectors import DetectorEnsemble, make_detector
from repro.eval import auc_roc


@pytest.fixture(scope="module")
def spike_series():
    rng = np.random.default_rng(5)
    n = 600
    series = np.sin(2 * np.pi * np.arange(n) / 30) + 0.05 * rng.normal(size=n)
    labels = np.zeros(n, dtype=int)
    series[300:312] += 4.0
    labels[300:312] = 1
    return series, labels


class TestDetectorEnsemble:
    @pytest.fixture(scope="class")
    def small_model_set(self):
        return {
            "HBOS": make_detector("HBOS", window=16),
            "POLY": make_detector("POLY", window=16),
            "IForest": make_detector("IForest", window=16),
        }

    def test_invalid_aggregation_raises(self):
        with pytest.raises(ValueError):
            DetectorEnsemble(aggregation="vote")

    @pytest.mark.parametrize("aggregation", ["mean", "max", "median"])
    def test_ensemble_scores_valid(self, aggregation, small_model_set, spike_series):
        series, labels = spike_series
        ensemble = DetectorEnsemble(model_set=small_model_set, aggregation=aggregation, window=16)
        scores = ensemble.detect(series)
        assert scores.shape == series.shape
        assert scores.min() >= 0 and scores.max() <= 1
        assert auc_roc(labels, scores) > 0.6

    def test_ensemble_at_least_as_good_as_worst_member(self, small_model_set, spike_series):
        series, labels = spike_series
        ensemble = DetectorEnsemble(model_set=small_model_set, aggregation="mean", window=16)
        member_aucs = [auc_roc(labels, det.detect(series)) for det in small_model_set.values()]
        assert auc_roc(labels, ensemble.detect(series)) >= min(member_aucs) - 0.05

    def test_generated_record_integration(self, small_model_set):
        record = generate_series("IOPS", 0, 400, seed=8)
        ensemble = DetectorEnsemble(model_set=small_model_set, window=16)
        assert ensemble.detect(record.series).shape == record.series.shape
