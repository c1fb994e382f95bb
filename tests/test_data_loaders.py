"""Tests for loading/saving user-provided series (repro.data.loaders)."""

import numpy as np
import pytest

from repro.data import generate_series
from repro.data.loaders import (
    labels_to_spans,
    load_series_directory,
    load_series_file,
    save_series_file,
)


class TestLabelsToSpans:
    def test_empty_labels(self):
        assert labels_to_spans(np.zeros(10)) == []

    def test_single_span(self):
        labels = np.zeros(10, dtype=int)
        labels[3:6] = 1
        spans = labels_to_spans(labels)
        assert len(spans) == 1
        assert spans[0].start == 3 and spans[0].length == 3

    def test_span_reaching_the_end(self):
        labels = np.array([0, 0, 1, 1])
        spans = labels_to_spans(labels)
        assert spans[0].start == 2 and spans[0].length == 2

    def test_multiple_spans(self):
        labels = np.array([1, 0, 1, 1, 0, 1])
        spans = labels_to_spans(labels)
        assert [(s.start, s.length) for s in spans] == [(0, 1), (2, 2), (5, 1)]


class TestCSVRoundTrip:
    def test_save_and_load_csv(self, tmp_path):
        record = generate_series("IOPS", 0, 300, seed=1)
        path = save_series_file(record, tmp_path / "series.csv")
        loaded = load_series_file(path, dataset="IOPS")
        assert np.allclose(loaded.series, record.series, atol=1e-9)
        assert np.array_equal(loaded.labels, record.labels)
        assert loaded.n_anomalies == record.n_anomalies

    def test_save_and_load_npz(self, tmp_path):
        record = generate_series("SMD", 1, 250, seed=2)
        path = save_series_file(record, tmp_path / "series.npz")
        loaded = load_series_file(path)
        assert np.allclose(loaded.series, record.series)
        assert np.array_equal(loaded.labels, record.labels)

    def test_csv_without_labels(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("value\n1.0\n2.0\n3.0\n")
        record = load_series_file(path)
        assert record.length == 3
        assert record.labels.sum() == 0

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("1.0,0\n2.0,1\n3.0,1\n")
        record = load_series_file(path)
        assert record.length == 3
        assert record.labels.sum() == 2

    def test_tsv_delimiter(self, tmp_path):
        path = tmp_path / "series.tsv"
        path.write_text("value\tlabel\n1.5\t0\n2.5\t1\n")
        record = load_series_file(path)
        assert record.length == 2
        assert record.labels[1] == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_series_file(tmp_path / "ghost.csv")

    def test_unsupported_extension_raises(self, tmp_path):
        path = tmp_path / "series.parquet"
        path.write_text("whatever")
        with pytest.raises(ValueError):
            load_series_file(path)

    def test_non_numeric_value_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\nnot_a_number\n")
        with pytest.raises(ValueError):
            load_series_file(path)

    def test_empty_csv_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("value,label\n")
        with pytest.raises(ValueError):
            load_series_file(path)

    def test_empty_npz_raises(self, tmp_path):
        path = tmp_path / "empty.npz"
        np.savez(path, series=np.zeros(0))
        with pytest.raises(ValueError, match="'series' array is empty$"):
            load_series_file(path)

    def test_npz_without_series_key_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, values=np.arange(5.0))
        with pytest.raises(ValueError):
            load_series_file(path)

    def test_record_name_defaults_to_stem(self, tmp_path):
        record = generate_series("NAB", 0, 200, seed=3)
        path = save_series_file(record, tmp_path / "my_sensor.csv")
        assert load_series_file(path).name == "my_sensor"


class TestDirectoryLoading:
    def test_load_directory(self, tmp_path):
        for i in range(3):
            save_series_file(generate_series("ECG", i, 200, seed=4), tmp_path / f"ecg_{i}.csv")
        records = load_series_directory(tmp_path, dataset="ECG")
        assert len(records) == 3
        assert all(r.dataset == "ECG" for r in records)
        assert [r.name for r in records] == sorted(r.name for r in records)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(ValueError):
            load_series_directory(tmp_path)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            load_series_directory(tmp_path / "nope")
