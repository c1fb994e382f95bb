"""Windowed selector datasets.

The selector is a time-series classifier over fixed-length subsequences
(Sect. 2 of the paper): raw series of variable length are cut into windows
of size ``L``; the selector predicts a TSAD model per window and the final
per-series choice is a majority vote.

:class:`SelectorDataset` bundles everything the KDSelector trainer needs:

* ``windows``       — (N, L) z-normalised subsequences,
* ``hard_labels``   — index of the best detector for the source series,
* ``performances``  — per-window copy of the detector performance vector
  (the knowledge PISL turns into soft labels),
* ``metadata_texts``— natural-language descriptions (the knowledge MKI
  embeds),
* ``series_ids``    — which source series each window came from (used for
  majority voting at evaluation time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ml.scalers import zscore_rows
from .metadata import describe_record
from .records import TimeSeriesRecord


def _pad_series(series: np.ndarray, window: int) -> np.ndarray:
    """Pad a too-short series by repeating its last value (empty → zeros)."""
    if len(series) >= window:
        return series
    fill = series[-1] if len(series) else 0.0
    return np.concatenate([series, np.full(window - len(series), fill)])


def count_windows(length: int, window: int, stride: Optional[int] = None) -> int:
    """Number of windows :func:`extract_windows` yields for a series length.

    The single source of truth for the window count (shared with batched
    extraction and the serving layer's micro-batch budgeting): too-short
    series are padded up to ``window``, so every series yields at least one.
    """
    stride = stride or window
    return (max(length, window) - window) // stride + 1


def complete_window_count(length: int, window: int, stride: Optional[int] = None) -> int:
    """Number of *complete* (un-padded) windows in a series of ``length``.

    Unlike :func:`count_windows`, a series shorter than ``window`` yields
    zero: no padded window is invented.  This is the window arithmetic of
    the streaming layer, where a partial tail must stay pending until enough
    points arrive rather than being padded to a fake window whose content
    would change on every append.  For ``length >= window`` the two counts
    agree.
    """
    stride = stride or window
    if length < window:
        return 0
    return (length - window) // stride + 1


def extract_new_windows(
    series: np.ndarray,
    window: int,
    n_emitted: int,
    stride: Optional[int] = None,
    normalize: bool = True,
) -> np.ndarray:
    """Windows ``n_emitted, n_emitted + 1, ...`` of a growing series.

    This is the incremental companion of :func:`extract_windows`: a stream
    that has already emitted the first ``n_emitted`` complete windows calls
    this after appending points to obtain exactly the windows that newly
    became complete (possibly none — shape ``(0, window)``).

    Because :func:`repro.ml.scalers.zscore_rows` reduces every row on its
    own, the returned rows are bitwise identical to rows ``n_emitted:`` of
    ``extract_windows(series, window, stride)`` — incremental extraction can
    never drift from batch extraction.
    """
    series = np.asarray(series, dtype=np.float64).ravel()
    stride = stride or window
    total = complete_window_count(len(series), window, stride)
    if total <= n_emitted:
        return np.empty((0, window), dtype=np.float64)
    starts = stride * np.arange(n_emitted, total)
    windows = series[starts[:, None] + np.arange(window)[None, :]]
    if normalize:
        windows = zscore_rows(windows, dtype=np.float64)
    return windows


def extract_windows(series: np.ndarray, window: int, stride: Optional[int] = None,
                    normalize: bool = True) -> np.ndarray:
    """Cut a series into (possibly overlapping) fixed-length windows.

    Series shorter than ``window`` are padded by repeating their last value
    so that every series contributes at least one window.
    """
    series = _pad_series(np.asarray(series, dtype=np.float64).ravel(), window)
    stride = stride or window
    n = count_windows(len(series), window, stride)
    idx = np.arange(window)[None, :] + stride * np.arange(n)[:, None]
    windows = series[idx]
    if normalize:
        windows = zscore_rows(windows, dtype=np.float64)
    return windows


def extract_windows_batch(
    series_list: Sequence[np.ndarray],
    window: int,
    stride: Optional[int] = None,
    normalize: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Window a whole batch of series into one stacked (N, L) matrix.

    Returns ``(windows, offsets)`` where ``windows`` stacks every series'
    windows in order and ``offsets`` has length ``len(series_list) + 1``:
    series ``i`` owns rows ``windows[offsets[i]:offsets[i + 1]]``.

    The per-window values are bitwise identical to calling
    :func:`extract_windows` on each series separately, but normalisation and
    allocation happen once for the whole batch, which is what makes the
    serving layer's batched selector forward pass worthwhile.
    """
    stride = stride or window
    padded: List[np.ndarray] = []
    counts: List[int] = []
    for series in series_list:
        series = _pad_series(np.asarray(series, dtype=np.float64).ravel(), window)
        padded.append(series)
        counts.append(count_windows(len(series), window, stride))

    offsets = np.zeros(len(padded) + 1, dtype=int)
    np.cumsum(counts, out=offsets[1:])
    stacked = np.empty((int(offsets[-1]), window), dtype=np.float64)
    base = np.arange(window)[None, :]
    for i, series in enumerate(padded):
        idx = base + stride * np.arange(counts[i])[:, None]
        stacked[offsets[i]:offsets[i + 1]] = series[idx]
    if normalize:
        stacked = zscore_rows(stacked, dtype=np.float64)
    return stacked, offsets


@dataclass
class SelectorDataset:
    """Training/evaluation samples for selector learning."""

    windows: np.ndarray
    hard_labels: np.ndarray
    performances: np.ndarray
    metadata_texts: List[str]
    series_ids: np.ndarray
    series_names: List[str]
    series_datasets: List[str]
    detector_names: List[str]
    window_size: int

    def __post_init__(self) -> None:
        self.windows = np.asarray(self.windows, dtype=np.float64)
        self.hard_labels = np.asarray(self.hard_labels, dtype=int)
        self.performances = np.asarray(self.performances, dtype=np.float64)
        self.series_ids = np.asarray(self.series_ids, dtype=int)
        n = len(self.windows)
        if not (len(self.hard_labels) == len(self.performances) == len(self.metadata_texts)
                == len(self.series_ids) == n):
            raise ValueError("all per-window arrays must have the same length")

    def __len__(self) -> int:
        return len(self.windows)

    @property
    def n_classes(self) -> int:
        return len(self.detector_names)

    def subset(self, indices: Sequence[int]) -> "SelectorDataset":
        """Return a new dataset restricted to the given window indices."""
        indices = np.asarray(indices, dtype=int)
        return SelectorDataset(
            windows=self.windows[indices],
            hard_labels=self.hard_labels[indices],
            performances=self.performances[indices],
            metadata_texts=[self.metadata_texts[i] for i in indices],
            series_ids=self.series_ids[indices],
            series_names=self.series_names,
            series_datasets=self.series_datasets,
            detector_names=self.detector_names,
            window_size=self.window_size,
        )

    def train_val_split(self, val_fraction: float = 0.3, seed: int = 0) -> tuple["SelectorDataset", "SelectorDataset"]:
        """Random window-level split (the system UI's Training/Validation split)."""
        if not 0.0 <= val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self))
        n_val = int(len(self) * val_fraction)
        return self.subset(order[n_val:]), self.subset(order[:n_val])


def build_selector_dataset(
    records: Sequence[TimeSeriesRecord],
    performance_matrix: np.ndarray,
    detector_names: Sequence[str],
    window: int = 128,
    stride: Optional[int] = None,
    max_windows_per_series: Optional[int] = None,
    seed: int = 0,
) -> SelectorDataset:
    """Assemble the windowed selector dataset from labelled series.

    ``performance_matrix`` has shape (n_series, n_detectors): entry (i, j) is
    the detection performance (e.g. AUC-PR) of detector ``j`` on series
    ``i`` — the oracle knowledge produced by :mod:`repro.eval.oracle`.
    """
    performance_matrix = np.asarray(performance_matrix, dtype=np.float64)
    if performance_matrix.shape != (len(records), len(detector_names)):
        raise ValueError(
            f"performance matrix shape {performance_matrix.shape} does not match "
            f"({len(records)}, {len(detector_names)})"
        )
    rng = np.random.default_rng(seed)

    all_windows: List[np.ndarray] = []
    hard_labels: List[int] = []
    performances: List[np.ndarray] = []
    texts: List[str] = []
    series_ids: List[int] = []

    for series_idx, record in enumerate(records):
        windows = extract_windows(record.series, window, stride=stride)
        if max_windows_per_series is not None and len(windows) > max_windows_per_series:
            keep = rng.choice(len(windows), size=max_windows_per_series, replace=False)
            windows = windows[np.sort(keep)]
        perf = performance_matrix[series_idx]
        label = int(np.argmax(perf))
        text = describe_record(record)
        for row in windows:
            all_windows.append(row)
            hard_labels.append(label)
            performances.append(perf)
            texts.append(text)
            series_ids.append(series_idx)

    return SelectorDataset(
        windows=np.asarray(all_windows),
        hard_labels=np.asarray(hard_labels),
        performances=np.asarray(performances),
        metadata_texts=texts,
        series_ids=np.asarray(series_ids),
        series_names=[r.name for r in records],
        series_datasets=[r.dataset for r in records],
        detector_names=list(detector_names),
        window_size=window,
    )
