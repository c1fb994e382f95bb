"""Tests for the 12-model TSAD detector zoo."""

import re
import warnings

import numpy as np
import pytest

from repro.detectors import (
    DEFAULT_MODEL_NAMES,
    AnomalyDetector,
    IsolationForest,
    hbos_scores,
    local_outlier_factor,
    make_default_model_set,
    make_detector,
    matrix_profile,
    normalize_scores,
    register_detector,
    sliding_windows,
    window_scores_to_point_scores,
)
from repro.accel import use_precision
from repro.data import generate_series
from repro.detectors import neural
from repro.eval import auc_roc

EXPECTED_DETECTORS = [
    "IForest", "IForest1", "LOF", "HBOS", "MP", "NORMA",
    "PCA", "AE", "LSTM-AD", "POLY", "CNN", "OCSVM",
]


@pytest.fixture(scope="module")
def spike_series():
    """Periodic series with an obvious additive spike anomaly."""
    rng = np.random.default_rng(0)
    n = 800
    series = np.sin(2 * np.pi * np.arange(n) / 40) + 0.05 * rng.normal(size=n)
    labels = np.zeros(n, dtype=int)
    series[400:415] += 4.0
    labels[400:415] = 1
    return series, labels


class TestWindowHelpers:
    def test_sliding_windows_shape(self):
        windows = sliding_windows(np.arange(10, dtype=float), window=4)
        assert windows.shape == (7, 4)
        assert np.allclose(windows[0], [0, 1, 2, 3])

    def test_sliding_windows_stride(self):
        windows = sliding_windows(np.arange(10, dtype=float), window=4, stride=3)
        assert windows.shape == (3, 4)

    def test_sliding_windows_too_short_raises(self):
        with pytest.raises(ValueError):
            sliding_windows(np.arange(3, dtype=float), window=5)

    def test_sliding_windows_bad_window(self):
        with pytest.raises(ValueError):
            sliding_windows(np.arange(10, dtype=float), window=0)

    def test_window_scores_to_point_scores_constant(self):
        scores = window_scores_to_point_scores(np.ones(7), series_length=10, window=4)
        assert scores.shape == (10,)
        assert np.allclose(scores, 1.0)

    def test_window_scores_localised(self):
        window_scores = np.zeros(7)
        window_scores[3] = 1.0
        scores = window_scores_to_point_scores(window_scores, series_length=10, window=4)
        assert scores[:3].max() == 0.0
        assert scores[3:7].max() > 0.0

    @staticmethod
    def _point_scores_loop(window_scores, series_length, window, stride=1):
        """The historical per-window Python loop (the regression reference)."""
        scores = np.zeros(series_length, dtype=np.float64)
        counts = np.zeros(series_length, dtype=np.float64)
        for i, s in enumerate(np.asarray(window_scores, dtype=np.float64)):
            start = i * stride
            scores[start:start + window] += s
            counts[start:start + window] += 1.0
        counts[counts == 0] = 1.0
        return scores / counts

    def test_vectorised_point_scores_bitwise_match_loop(self):
        """Regression: the slice-add implementation must reproduce the old
        per-window loop bit for bit, for any window/stride/length combo."""
        gen = np.random.default_rng(42)
        for _ in range(40):
            window = int(gen.integers(1, 40))
            stride = int(gen.integers(1, 8))
            n_windows = int(gen.integers(0, 500))
            length = ((n_windows - 1) * stride + window + int(gen.integers(0, 20))
                      if n_windows else int(gen.integers(0, 30)))
            window_scores = gen.normal(size=n_windows) * (10.0 ** float(gen.integers(-6, 6)))
            got = window_scores_to_point_scores(window_scores, length, window, stride)
            want = self._point_scores_loop(window_scores, length, window, stride)
            assert np.array_equal(got, want), (window, stride, n_windows, length)

    def test_point_scores_clamp_windows_past_series_end(self):
        """Windows extending past series_length are clamped, like the old
        loop's slice assignment (not an IndexError)."""
        gen = np.random.default_rng(44)
        for length, window, stride, n_windows in ((6, 4, 2, 5), (10, 8, 1, 9), (3, 4, 1, 2)):
            window_scores = gen.normal(size=n_windows)
            got = window_scores_to_point_scores(window_scores, length, window, stride)
            want = self._point_scores_loop(window_scores, length, window, stride)
            assert got.shape == (length,)
            assert np.array_equal(got, want)

    def test_vectorised_point_scores_bitwise_match_loop_on_a_long_series(self):
        """8,209 windows of 32: each point sums 32 windows, in the loop's order."""
        gen = np.random.default_rng(43)
        n_windows = 8209
        window_scores = gen.normal(size=n_windows)
        got = window_scores_to_point_scores(window_scores, n_windows + 31, 32)
        want = self._point_scores_loop(window_scores, n_windows + 31, 32)
        assert np.array_equal(got, want)

    def test_normalize_scores_range(self):
        scores = normalize_scores(np.array([1.0, 5.0, 3.0]))
        assert scores.min() == 0.0 and scores.max() == 1.0

    def test_normalize_constant_scores(self):
        assert np.allclose(normalize_scores(np.full(5, 2.0)), 0.0)


class TestRegistry:
    def test_all_twelve_detectors_registered(self):
        for name in EXPECTED_DETECTORS:
            assert make_detector(name).name == name

    def test_make_detector_unknown_raises(self):
        with pytest.raises(KeyError):
            make_detector("NotADetector")

    def test_make_default_model_set(self):
        model_set = make_default_model_set(window=16)
        assert list(model_set) == EXPECTED_DETECTORS
        assert all(isinstance(d, AnomalyDetector) for d in model_set.values())

    def test_register_detector_decorator(self):
        @register_detector("TestOnlyDetector")
        class _Dummy(AnomalyDetector):
            def score(self, series):
                return np.zeros(len(series))

        try:
            det = make_detector("TestOnlyDetector")
            assert det.name == "TestOnlyDetector"
            assert det.detect(np.arange(10.0)).shape == (10,)
        finally:
            from repro.detectors.base import _DETECTOR_REGISTRY
            _DETECTOR_REGISTRY.pop("TestOnlyDetector", None)


class TestDetectorContracts:
    @pytest.mark.parametrize("name", EXPECTED_DETECTORS)
    def test_scores_aligned_and_normalised(self, name, spike_series):
        series, _ = spike_series
        detector = make_detector(name, window=24)
        scores = detector.detect(series)
        assert scores.shape == series.shape
        assert np.all(np.isfinite(scores))
        assert scores.min() >= 0.0 and scores.max() <= 1.0

    @pytest.mark.parametrize("name", ["IForest", "LOF", "HBOS", "MP", "PCA", "POLY", "IForest1"])
    def test_spike_is_detected(self, name, spike_series):
        """Fast detectors should clearly rank the spike region above normal data."""
        series, labels = spike_series
        detector = make_detector(name, window=24)
        scores = detector.detect(series)
        assert auc_roc(labels, scores) > 0.7

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", EXPECTED_DETECTORS)
    def test_non_finite_series_rejected(self, name, bad):
        """One typed error for every detector, naming it and the first bad point."""
        series = np.sin(2 * np.pi * np.arange(300) / 40)
        series[137] = bad
        series[200] = bad
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} .* at index 137$"):
            make_detector(name, window=24).detect(series)

    @pytest.mark.parametrize("name", DEFAULT_MODEL_NAMES)
    def test_four_point_series_detected(self, name, spike_series):
        """Every detector scores the 4 points a stream scorer starts from."""
        series, _ = spike_series
        scores = make_detector(name, window=24).detect(series[:4])
        assert scores.shape == (4,)
        assert np.all(np.isfinite(scores))

    def test_detect_empty_series(self):
        detector = make_detector("HBOS", window=8)
        assert detector.detect(np.array([])).shape == (0,)

    def test_effective_window_clipped(self):
        detector = make_detector("PCA", window=500)
        assert detector.effective_window(np.zeros(100)) == 50

    def test_repr_mentions_window(self):
        assert "window=32" in repr(make_detector("IForest", window=32))


class TestIsolationForest:
    def test_outlier_scores_higher(self):
        rng = np.random.default_rng(1)
        inliers = rng.normal(0, 1, size=(200, 3))
        outliers = rng.normal(8, 1, size=(10, 3))
        forest = IsolationForest(n_estimators=30, seed=0).fit(inliers)
        assert forest.score_samples(outliers).mean() > forest.score_samples(inliers).mean()

    def test_scores_between_zero_and_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 2))
        scores = IsolationForest(seed=0).fit(x).score_samples(x)
        assert (scores > 0).all() and (scores < 1).all()

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            IsolationForest().score_samples(np.zeros((2, 2)))

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(3).normal(size=(50, 2))
        s1 = IsolationForest(seed=7).fit(x).score_samples(x)
        s2 = IsolationForest(seed=7).fit(x).score_samples(x)
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("d", [1, 3])
    def test_a_split_on_a_sample_value_sends_it_right(self, d):
        """Floats near 1e16 are 2 apart, so every drawn split lands on a grid
        value; rows equal to it go right, as in the recursive reference."""
        from reference_iforest import reference_score_samples

        x = 1e16 + 2.0 * np.random.default_rng(9).integers(0, 6, size=(200, d))
        ours = IsolationForest(20, 64, 5).fit(x).score_samples(x)
        assert ours.tobytes() == reference_score_samples(x, x, 20, 64, 5).tobytes()


class TestLOFandHBOS:
    def test_lof_isolated_point_scores_high(self):
        rng = np.random.default_rng(4)
        x = np.vstack([rng.normal(0, 0.5, size=(100, 2)), [[10.0, 10.0]]])
        lof = local_outlier_factor(x, n_neighbors=10)
        assert lof[-1] > np.percentile(lof[:-1], 95)

    def test_lof_uniform_data_scores_near_one(self):
        x = np.random.default_rng(5).uniform(size=(200, 2))
        lof = local_outlier_factor(x, n_neighbors=15)
        assert 0.8 < np.median(lof) < 1.3

    def test_hbos_rare_bin_scores_high(self):
        x = np.concatenate([np.zeros(95), np.full(5, 10.0)])[:, None]
        scores = hbos_scores(x, n_bins=10)
        assert scores[-1] > scores[0]

    def test_hbos_multidimensional(self):
        x = np.random.default_rng(6).normal(size=(50, 3))
        assert hbos_scores(x).shape == (50,)

    @pytest.mark.parametrize("dataset", ["ECG", "SMD", "IOPS"])
    @pytest.mark.parametrize("scale", [1e300, 1e306])
    def test_hbos_scores_a_huge_finite_series_as_the_series_itself(self, dataset, scale):
        """A window whose squares overflow float64 still gets a finite std,
        so the scaled series scores exactly as the unscaled one."""
        series = generate_series(dataset, 1, 700, seed=2).series
        expected = make_detector("HBOS", window=16).score(series)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            scores = make_detector("HBOS", window=16).score(series * scale)
        assert np.array_equal(scores, expected)


class TestMatrixProfile:
    def test_discord_has_max_profile_value(self):
        rng = np.random.default_rng(7)
        series = np.tile(np.sin(np.linspace(0, 2 * np.pi, 25)), 20) + 0.01 * rng.normal(size=500)
        series[250:275] = rng.normal(0, 1, size=25)  # inserted discord
        profile = matrix_profile(series, window=25)
        peak = np.argmax(profile)
        assert 225 <= peak <= 300

    def test_profile_length(self):
        series = np.random.default_rng(8).normal(size=200)
        assert matrix_profile(series, window=20).shape == (181,)

    def test_constant_series_profile_is_finite(self):
        profile = matrix_profile(np.zeros(100), window=10)
        assert np.all(np.isfinite(profile))


class TestNeuralDetectors:
    @pytest.mark.parametrize("name", ["AE", "LSTM-AD", "CNN"])
    def test_neural_detectors_run_with_small_budget(self, name, spike_series):
        series, labels = spike_series
        detector = make_detector(name, window=24, epochs=2)
        scores = detector.detect(series)
        assert scores.shape == series.shape
        # Even briefly trained models should do better than random guessing.
        assert auc_roc(labels, scores) > 0.5

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("name", ["AE", "LSTM-AD", "CNN"])
    def test_scoring_chunk_never_changes_a_score(self, name, precision, monkeypatch):
        """The no-grad scoring forward is row-invariant, so its chunk size
        cannot move a bit of any score."""
        series = generate_series("ECG", 0, 1000, seed=1).series
        detector = make_detector(name, window=24, epochs=1)
        with use_precision(precision):
            expected = detector.score(series)
            for chunk in (1, 7):
                monkeypatch.setattr(neural, "_SCORE_CHUNK", chunk)
                assert np.array_equal(detector.score(series), expected), chunk

    def test_ae_deterministic_given_seed(self, spike_series):
        series, _ = spike_series
        s1 = make_detector("AE", window=16, epochs=1, seed=3).detect(series)
        s2 = make_detector("AE", window=16, epochs=1, seed=3).detect(series)
        assert np.allclose(s1, s2)
