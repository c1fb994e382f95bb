"""Loading user-provided time series (the "test on your own data" path).

The demo system lets users upload their own series instead of the bundled
benchmark.  This module reads labelled univariate series from simple file
formats and turns them into :class:`TimeSeriesRecord` objects:

* **CSV / TSV** — one or two columns (``value`` or ``value,label``), with or
  without a header row.
* **NPZ** — arrays ``series`` and optionally ``labels``.
* **Directory** — every ``*.csv`` / ``*.npz`` file inside, one record each.

Anomaly spans are reconstructed from the point labels so that the metadata
template (number of anomalies, durations) works for user data exactly as it
does for the synthetic benchmark.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .anomalies import AnomalySpan
from .records import TimeSeriesRecord

PathLike = Union[str, Path]


def labels_to_spans(labels: np.ndarray, kind: str = "unknown") -> List[AnomalySpan]:
    """Convert point-wise 0/1 labels into contiguous anomaly spans."""
    labels = np.asarray(labels, dtype=int).ravel()
    spans: List[AnomalySpan] = []
    in_span = False
    start = 0
    for i, flag in enumerate(labels):
        if flag and not in_span:
            in_span = True
            start = i
        elif not flag and in_span:
            spans.append(AnomalySpan(start=start, length=i - start, kind=kind))
            in_span = False
    if in_span:
        spans.append(AnomalySpan(start=start, length=len(labels) - start, kind=kind))
    return spans


def _parse_float(token: str) -> Optional[float]:
    try:
        return float(token)
    except ValueError:
        return None


def _read_csv(path: Path, delimiter: Optional[str] = None) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    delimiter = delimiter or ("\t" if path.suffix.lower() in (".tsv", ".tab") else ",")
    values: List[float] = []
    labels: List[float] = []
    has_labels = False
    with open(path, newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        for row_index, row in enumerate(reader):
            row = [cell.strip() for cell in row if cell.strip() != ""]
            if not row:
                continue
            first = _parse_float(row[0])
            if first is None:
                if row_index == 0:
                    continue  # header row
                raise ValueError(f"{path}: non-numeric value {row[0]!r} at row {row_index}")
            values.append(first)
            if len(row) > 1:
                second = _parse_float(row[1])
                if second is None:
                    raise ValueError(f"{path}: non-numeric label {row[1]!r} at row {row_index}")
                labels.append(second)
                has_labels = True
    if not values:
        raise ValueError(f"{path}: no numeric rows found")
    series = np.asarray(values, dtype=np.float64)
    if has_labels:
        if len(labels) != len(values):
            raise ValueError(f"{path}: some rows are missing the label column")
        return series, (np.asarray(labels) > 0.5).astype(int)
    return series, None


def _read_npz(path: Path) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    with np.load(path, allow_pickle=False) as archive:
        if "series" not in archive:
            raise ValueError(f"{path}: NPZ file must contain a 'series' array")
        series = np.asarray(archive["series"], dtype=np.float64).ravel()
        if len(series) == 0:
            raise ValueError(f"{path}: NPZ 'series' array is empty")
        labels = None
        if "labels" in archive:
            labels = np.asarray(archive["labels"], dtype=int).ravel()
    return series, labels


def load_series_file(
    path: PathLike,
    dataset: str = "Custom",
    name: Optional[str] = None,
    delimiter: Optional[str] = None,
) -> TimeSeriesRecord:
    """Load one labelled (or unlabelled) series from a CSV/TSV/NPZ file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    if path.suffix.lower() == ".npz":
        series, labels = _read_npz(path)
    elif path.suffix.lower() in (".csv", ".tsv", ".tab", ".txt"):
        series, labels = _read_csv(path, delimiter=delimiter)
    else:
        raise ValueError(f"unsupported file type {path.suffix!r} (expected .csv, .tsv, .txt or .npz)")

    if labels is None:
        labels = np.zeros(len(series), dtype=int)
    if len(labels) != len(series):
        raise ValueError(f"{path}: series ({len(series)}) and labels ({len(labels)}) lengths differ")

    return TimeSeriesRecord(
        name=name or path.stem,
        dataset=dataset,
        series=series,
        labels=labels,
        anomalies=labels_to_spans(labels),
    )


def load_series_directory(
    directory: PathLike,
    dataset: str = "Custom",
    pattern: Sequence[str] = ("*.csv", "*.tsv", "*.txt", "*.npz"),
) -> List[TimeSeriesRecord]:
    """Load every supported file in a directory, sorted by file name."""
    directory = Path(directory)
    if not directory.is_dir():
        raise NotADirectoryError(directory)
    paths: List[Path] = []
    for glob in pattern:
        paths.extend(directory.glob(glob))
    records = [load_series_file(path, dataset=dataset) for path in sorted(set(paths))]
    if not records:
        raise ValueError(f"no time series files found in {directory}")
    return records


def save_series_file(record: TimeSeriesRecord, path: PathLike) -> Path:
    """Write a record back to CSV (value,label per row) or NPZ."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix.lower() == ".npz":
        np.savez(path, series=record.series, labels=record.labels)
        return path
    if path.suffix.lower() in (".csv", ".tsv", ".txt"):
        delimiter = "\t" if path.suffix.lower() == ".tsv" else ","
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, delimiter=delimiter)
            writer.writerow(["value", "label"])
            for value, label in zip(record.series, record.labels):
                writer.writerow([f"{value:.10g}", int(label)])
        return path
    raise ValueError(f"unsupported output type {path.suffix!r}")
