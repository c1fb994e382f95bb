"""``repro.data`` — synthetic TSB-UAD-style benchmark data.

Provides the 16 dataset families of the paper (Table 4), anomaly injection,
metadata templating for MKI, windowed selector datasets and the train/test
benchmark protocol.
"""

from .anomalies import INJECTORS, AnomalySpan, inject_anomalies
from .benchmark import BenchmarkSplit, TSBUADBenchmark
from .generators import FAMILY_CONFIGS, generate_series
from .loaders import (
    labels_to_spans,
    load_series_directory,
    load_series_file,
    save_series_file,
)
from .metadata import describe_record
from .records import (
    DATASET_DESCRIPTIONS,
    DATASET_NAMES,
    TEST_DATASET_NAMES,
    TimeSeriesRecord,
)
from .windows import (
    SelectorDataset,
    build_selector_dataset,
    complete_window_count,
    count_windows,
    extract_new_windows,
    extract_windows,
    extract_windows_batch,
)

__all__ = [
    "INJECTORS", "AnomalySpan", "inject_anomalies",
    "BenchmarkSplit", "TSBUADBenchmark",
    "FAMILY_CONFIGS", "generate_series",
    "labels_to_spans", "load_series_directory", "load_series_file", "save_series_file",
    "describe_record",
    "DATASET_DESCRIPTIONS", "DATASET_NAMES", "TEST_DATASET_NAMES", "TimeSeriesRecord",
    "SelectorDataset", "build_selector_dataset", "complete_window_count", "count_windows",
    "extract_new_windows", "extract_windows", "extract_windows_batch",
]
