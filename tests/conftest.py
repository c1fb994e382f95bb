"""Shared fixtures for the test suite.

The expensive objects (benchmark series, oracle performance matrix, windowed
selector dataset) are built once per session at a deliberately small scale
so that the full suite stays fast while still exercising the real code
paths end to end.
"""

from __future__ import annotations

import zlib
from dataclasses import replace

import numpy as np
import pytest

from repro.data import TSBUADBenchmark, build_selector_dataset, generate_series
from repro.detectors import DEFAULT_MODEL_NAMES


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_benchmark():
    """A very small benchmark split (1 train / 1 test series per family)."""
    return TSBUADBenchmark(n_train_per_dataset=1, n_test_per_dataset=1, series_length=512, seed=3).load()


@pytest.fixture(scope="session")
def sample_record():
    """One deterministic labelled series with at least one anomaly."""
    record = generate_series("ECG", index=0, length=800, seed=11)
    if record.n_anomalies == 0:  # pragma: no cover - generator always injects here
        record = generate_series("ECG", index=1, length=800, seed=11)
    return record


@pytest.fixture(scope="session")
def detector_name_list():
    return list(DEFAULT_MODEL_NAMES)


@pytest.fixture(scope="session")
def synthetic_performance_matrix(tiny_benchmark, detector_name_list):
    """A deterministic stand-in for the oracle output.

    Scores are random but biased per dataset so that different detectors win
    on different families (the property the selector-learning tests need),
    without paying the cost of running all 12 detectors in every session.
    """
    records = tiny_benchmark.train_records
    gen = np.random.default_rng(7)
    n_detectors = len(detector_name_list)
    matrix = gen.uniform(0.05, 0.4, size=(len(records), n_detectors))
    for i, record in enumerate(records):
        favourite = zlib.crc32(record.dataset.encode()) % n_detectors
        matrix[i, favourite] += 0.5
    return matrix


@pytest.fixture(scope="session")
def selector_dataset(tiny_benchmark, synthetic_performance_matrix, detector_name_list):
    """Windowed selector dataset built from the tiny benchmark."""
    return build_selector_dataset(
        tiny_benchmark.train_records,
        synthetic_performance_matrix,
        detector_name_list,
        window=64,
        stride=64,
    )


@pytest.fixture(scope="session")
def small_selector_dataset(selector_dataset):
    """A subset of the selector dataset for the slowest training tests."""
    keep = np.arange(0, len(selector_dataset), 2)[:64]
    return replace(selector_dataset,
                   windows=selector_dataset.windows[keep],
                   hard_labels=selector_dataset.hard_labels[keep],
                   performances=selector_dataset.performances[keep],
                   metadata_texts=[selector_dataset.metadata_texts[i] for i in keep],
                   series_ids=selector_dataset.series_ids[keep])


@pytest.fixture(scope="session")
def drifting_streams():
    """Three live streams whose character flips halfway through.

    Driven together, their windows share flushes and forward batches while
    each stream's drift monitor fires on its own schedule.
    """
    return {
        f"flip-{a}-{b}": np.concatenate([generate_series(a, 1, 384, seed=2).series,
                                         generate_series(b, 2, 384, seed=2).series])
        for a, b in (("ECG", "IOPS"), ("SMD", "MGAB"), ("IOPS", "ECG"))
    }
