"""Tests for the synthetic benchmark data package (repro.data)."""

import numpy as np
import pytest

from repro.data import (
    DATASET_DESCRIPTIONS,
    DATASET_NAMES,
    FAMILY_CONFIGS,
    INJECTORS,
    TEST_DATASET_NAMES,
    AnomalySpan,
    TSBUADBenchmark,
    TimeSeriesRecord,
    build_selector_dataset,
    describe_record,
    extract_windows,
    generate_series,
    inject_anomalies,
)
from repro.data import signals
from repro.data.anomalies import (
    inject_flatline,
    inject_level_shift,
    inject_spike,
)
from repro.data.windows import (
    complete_window_count,
    count_windows,
    extract_new_windows,
    extract_windows_batch,
)
from repro.streaming.buffer import StreamBuffer


class TestSignals:
    def test_sine_wave_period(self):
        wave = signals.sine_wave(100, period=25)
        assert wave.shape == (100,)
        assert np.allclose(wave[0], wave[25], atol=1e-9)

    def test_ecg_like_is_periodic_spiky(self):
        rng = np.random.default_rng(0)
        ecg = signals.ecg_like(500, beat_period=50, rng=rng)
        assert ecg.shape == (500,)
        assert ecg.max() > 2 * ecg.std()

    def test_mackey_glass_is_bounded_and_aperiodic(self):
        rng = np.random.default_rng(1)
        mg = signals.mackey_glass(400, rng)
        assert mg.shape == (400,)
        assert 0.0 < mg.min() and mg.max() < 2.0

    def test_random_walk_length(self):
        assert signals.random_walk(200, np.random.default_rng(2)).shape == (200,)

    def test_ar1_process_stationary(self):
        out = signals.ar1_process(2000, np.random.default_rng(3), phi=0.5, noise_std=0.1)
        assert abs(out.mean()) < 0.1

    def test_square_wave_two_levels(self):
        wave = signals.square_wave(300, period=50, rng=np.random.default_rng(4), low=0.0, high=1.0)
        assert set(np.round(np.unique(wave), 6)) <= {0.0, 1.0}

    def test_level_steps_piecewise_constant(self):
        steps = signals.level_steps(200, np.random.default_rng(5), n_levels=4)
        assert len(np.unique(steps)) <= 4

    def test_seasonal_pattern_nonnegative_peaks(self):
        pattern = signals.seasonal_pattern(300, period=60, rng=np.random.default_rng(6))
        assert pattern.max() > 0.5

    def test_trend_slope(self):
        out = signals.trend(10, slope=2.0)
        assert np.allclose(np.diff(out), 2.0)

    def test_sine_mixture_combines_amplitudes(self):
        mix = signals.sine_mixture(500, [50, 10], [1.0, 0.5], np.random.default_rng(7))
        assert mix.std() > 0.5


class TestAnomalyInjectors:
    @pytest.fixture
    def base(self):
        return np.sin(np.linspace(0, 20 * np.pi, 500))

    def test_spike_changes_only_interval(self, base):
        out = inject_spike(base, 100, 20, np.random.default_rng(0))
        assert not np.allclose(out[100:120], base[100:120])
        assert np.allclose(out[:100], base[:100])
        assert np.allclose(out[120:], base[120:])

    def test_level_shift_offsets_interval(self, base):
        out = inject_level_shift(base, 50, 30, np.random.default_rng(1))
        assert abs((out[50:80] - base[50:80]).mean()) > 0.5

    def test_flatline_is_constant(self, base):
        out = inject_flatline(base, 200, 25, np.random.default_rng(2))
        assert np.allclose(out[200:225], out[199])

    def test_all_registered_injectors_run(self, base):
        rng = np.random.default_rng(3)
        for name, injector in INJECTORS.items():
            out = injector(base, 300, 40, rng, 2.0)
            assert out.shape == base.shape, name
            assert np.all(np.isfinite(out)), name

    def test_inject_anomalies_labels_match_spans(self, base):
        series, labels, spans = inject_anomalies(
            base, np.random.default_rng(4), kinds=("spike",), n_anomalies=3, length_range=(10, 20)
        )
        assert series.shape == labels.shape
        assert len(spans) == 3
        for span in spans:
            assert labels[span.start:span.start + span.length].all()
        assert labels.sum() == sum(s.length for s in spans)

    def test_inject_anomalies_unknown_kind_raises(self, base):
        with pytest.raises(KeyError):
            inject_anomalies(base, np.random.default_rng(5), kinds=("bogus",), n_anomalies=1,
                             length_range=(5, 10))

    def test_inject_zero_anomalies(self, base):
        series, labels, spans = inject_anomalies(
            base, np.random.default_rng(6), kinds=("spike",), n_anomalies=0, length_range=(5, 10)
        )
        assert labels.sum() == 0 and spans == []

    def test_spans_do_not_overlap(self, base):
        _, labels, spans = inject_anomalies(
            base, np.random.default_rng(7), kinds=("spike", "level_shift"), n_anomalies=5,
            length_range=(10, 15)
        )
        spans = sorted(spans, key=lambda s: s.start)
        for a, b in zip(spans, spans[1:]):
            assert a.start + a.length <= b.start


class TestRecords:
    def test_descriptions_cover_all_16_families(self):
        assert len(DATASET_NAMES) == 16
        assert set(DATASET_DESCRIPTIONS) == set(DATASET_NAMES)
        assert set(FAMILY_CONFIGS) == set(DATASET_NAMES)

    def test_test_split_has_14_datasets(self):
        assert len(TEST_DATASET_NAMES) == 14
        assert "Dodgers" not in TEST_DATASET_NAMES
        assert "Occupancy" not in TEST_DATASET_NAMES

    def test_record_validates_alignment(self):
        with pytest.raises(ValueError):
            TimeSeriesRecord(name="x", dataset="ECG", series=np.zeros(10), labels=np.zeros(5))

    def test_record_properties(self):
        record = TimeSeriesRecord(
            name="x", dataset="ECG", series=np.zeros(10), labels=np.zeros(10),
            anomalies=[AnomalySpan(2, 3, "spike")],
        )
        assert record.length == 10
        assert record.n_anomalies == 1
        assert record.anomaly_lengths == [3]
        assert "electrocardiogram" in record.domain_description


class TestGenerators:
    @pytest.mark.parametrize("dataset", DATASET_NAMES)
    def test_every_family_generates_valid_series(self, dataset):
        record = generate_series(dataset, index=0, length=600, seed=1)
        assert record.dataset == dataset
        assert record.length == 600
        assert np.all(np.isfinite(record.series))
        assert set(np.unique(record.labels)) <= {0, 1}
        assert (record.labels.sum() > 0) == (record.n_anomalies > 0)

    @pytest.mark.parametrize("dataset", DATASET_NAMES)
    def test_series_of_one_to_seven_points(self, dataset):
        # the level-step families draw at most length - 2 change points
        for length in range(1, 8):
            for index in range(4):
                for seed in range(6):
                    record = generate_series(dataset, index, length, seed)
                    assert record.length == length
                    assert np.all(np.isfinite(record.series))

    def test_generation_is_deterministic(self):
        a = generate_series("IOPS", 3, 500, seed=9)
        b = generate_series("IOPS", 3, 500, seed=9)
        assert np.allclose(a.series, b.series)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate_series("IOPS", 3, 500, seed=1)
        b = generate_series("IOPS", 3, 500, seed=2)
        assert not np.allclose(a.series, b.series)

    def test_anomaly_free_series(self):
        record = generate_series("NAB", 0, 400, seed=0, anomaly_free=True)
        assert record.labels.sum() == 0

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError):
            generate_series("NotADataset", 0, 100, 0)


class TestMetadata:
    def test_describe_record_follows_template(self):
        record = generate_series("ECG", 0, 500, seed=2)
        text = describe_record(record)
        assert text.startswith("This is a time series from dataset ECG")
        assert f"The length of the series is {record.length}." in text
        assert f"There are {record.n_anomalies} anomalies" in text

    def test_describe_record_omits_lengths_without_anomalies(self):
        record = generate_series("ECG", 0, 500, seed=2, anomaly_free=True)
        text = describe_record(record)
        assert "lengths of the anomalies" not in text


class TestWindowsAndBenchmark:
    def test_extract_windows_shape_and_normalisation(self):
        series = np.arange(100, dtype=float)
        windows = extract_windows(series, window=20, stride=10)
        assert windows.shape == (9, 20)
        assert np.allclose(windows.mean(axis=1), 0.0, atol=1e-9)

    def test_extract_windows_pads_short_series(self):
        windows = extract_windows(np.arange(5, dtype=float), window=16)
        assert windows.shape == (1, 16)

    @pytest.mark.parametrize("call", [
        lambda window, stride: count_windows(20, window, stride),
        lambda window, stride: complete_window_count(20, window, stride),
        lambda window, stride: extract_windows(np.arange(20.0), window, stride),
        lambda window, stride: extract_windows_batch([np.arange(20.0)], window, stride),
        lambda window, stride: extract_new_windows(np.arange(20.0), window, 0, stride),
        lambda window, stride: StreamBuffer(window, stride),
    ], ids=["count_windows", "complete_window_count", "extract_windows",
            "extract_windows_batch", "extract_new_windows", "StreamBuffer"])
    @pytest.mark.parametrize("window, stride, name", [
        (0, None, "window"), (-3, None, "window"), (0, 2, "window"),
        (4, 0, "stride"), (4, -2, "stride"),
    ])
    def test_windowing_rejects_window_or_stride_below_one(self, call, window, stride, name):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1"):
            call(window, stride)

    def test_stride_none_means_non_overlapping(self):
        series = np.arange(20, dtype=float)
        assert np.array_equal(extract_windows(series, 4), extract_windows(series, 4, stride=4))
        assert count_windows(20, 4) == complete_window_count(20, 4) == 5

    def test_build_selector_dataset_alignment(self, tiny_benchmark, synthetic_performance_matrix,
                                              detector_name_list):
        ds = build_selector_dataset(
            tiny_benchmark.train_records, synthetic_performance_matrix, detector_name_list,
            window=64, stride=64,
        )
        assert len(ds) == len(ds.hard_labels) == len(ds.metadata_texts)
        assert ds.performances.shape == (len(ds), len(detector_name_list))
        assert ds.hard_labels.max() < len(detector_name_list)
        # hard label must be the argmax of the stored performance row
        assert np.array_equal(ds.hard_labels, ds.performances.argmax(axis=1))

    def test_build_selector_dataset_shape_mismatch_raises(self, tiny_benchmark, detector_name_list):
        with pytest.raises(ValueError):
            build_selector_dataset(tiny_benchmark.train_records, np.zeros((2, 3)), detector_name_list)

    def test_selector_dataset_subset_and_split(self, selector_dataset, tiny_benchmark,
                                               synthetic_performance_matrix, detector_name_list):
        # datasets built on complementary subsets of the series split the
        # full dataset window for window
        records, matrix = tiny_benchmark.train_records, synthetic_performance_matrix
        head, rest = (build_selector_dataset(part, rows, detector_name_list, window=64, stride=64)
                      for part, rows in ((records[:3], matrix[:3]), (records[3:], matrix[3:])))
        assert len(head) + len(rest) == len(selector_dataset)
        for name in ("windows", "hard_labels", "performances"):
            assert np.array_equal(np.concatenate([getattr(head, name), getattr(rest, name)]),
                                  getattr(selector_dataset, name))
        assert head.metadata_texts + rest.metadata_texts == selector_dataset.metadata_texts

    def test_max_windows_per_series(self, tiny_benchmark, synthetic_performance_matrix, detector_name_list):
        ds = build_selector_dataset(
            tiny_benchmark.train_records, synthetic_performance_matrix, detector_name_list,
            window=64, stride=16, max_windows_per_series=3,
        )
        counts = np.bincount(ds.series_ids)
        assert counts.max() <= 3

    def test_benchmark_split_structure(self, tiny_benchmark):
        assert len(tiny_benchmark.train_records) == 16
        assert set(tiny_benchmark.test_records) == set(TEST_DATASET_NAMES)
        assert len(tiny_benchmark.all_test_records) == 14
        summary = tiny_benchmark.summary()
        assert summary["ECG"]["train"] == 1 and summary["ECG"]["test"] == 1
        # Train-only families appear with zero test series.
        assert summary["Dodgers"]["test"] == 0

    def test_benchmark_train_and_test_series_differ(self):
        split = TSBUADBenchmark(n_train_per_dataset=1, n_test_per_dataset=1, series_length=300).load()
        train_ecg = [r for r in split.train_records if r.dataset == "ECG"][0]
        test_ecg = split.test_records["ECG"][0]
        assert not np.allclose(train_ecg.series, test_ecg.series)
