"""Common infrastructure for the TSAD model set.

Every detector follows the TSB-UAD convention used by the paper: it is an
*unsupervised* scorer that receives a univariate series and returns one
anomaly score per data point (larger = more anomalous).  Detectors that
operate on subsequences map their per-window scores back to per-point
scores by averaging the scores of all windows covering a point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Type

import numpy as np


def sliding_windows(series: np.ndarray, window: int, stride: int = 1) -> np.ndarray:
    """Return the (n_windows, window) matrix of subsequences of ``series``."""
    series = np.asarray(series, dtype=np.float64).ravel()
    if window <= 0:
        raise ValueError("window must be positive")
    if len(series) < window:
        raise ValueError(f"series of length {len(series)} is shorter than window {window}")
    n = (len(series) - window) // stride + 1
    idx = np.arange(window)[None, :] + stride * np.arange(n)[:, None]
    return series[idx]


def window_scores_to_point_scores(
    window_scores: np.ndarray,
    series_length: int,
    window: int,
    stride: int = 1,
) -> np.ndarray:
    """Spread per-window scores back onto points by averaging overlaps.

    Vectorised: window ``i`` adds its score to points ``i*stride + offset``,
    so one strided slice-add per offset spreads every window at once, and
    the overlap counts come from closed-form index arithmetic.  The offsets
    run in descending order, which adds each point's windows in ascending
    window order: the historical per-window Python loop's order, so results
    are bitwise identical.
    """
    window_scores = np.asarray(window_scores, dtype=np.float64)
    n = len(window_scores)
    # Add into a buffer long enough for every window (windows may extend
    # past series_length — the old loop's slice assignment clamped them);
    # the overhang is truncated at the end.
    span = (n - 1) * stride + window if n else 0
    scores = np.zeros(max(series_length, span), dtype=np.float64)
    for offset in reversed(range(window)):
        scores[offset:offset + n * stride:stride] += window_scores
    scores = scores[:series_length]

    # A point p is covered by windows s with s*stride <= p <= s*stride+window-1,
    # i.e. s in [ceil((p-window+1)/stride), floor(p/stride)] ∩ [0, n-1].
    p = np.arange(series_length)
    lo = np.maximum(-((window - 1 - p) // stride), 0)
    hi = np.minimum(p // stride, n - 1)
    counts = np.maximum(hi - lo + 1, 0).astype(np.float64)
    counts[counts == 0] = 1.0
    return scores / counts


class NonFiniteSeriesError(ValueError):
    """A detector or a selector was given a series holding NaN or an infinity."""


def check_finite(series: np.ndarray, reader: str, start: int = 0,
                 series_name: Optional[str] = None) -> None:
    """Raise :class:`NonFiniteSeriesError` when ``series`` holds NaN or an infinity.

    No detector defines a score for a non-finite point: some raise (each
    its own error), some return NaN scores and some return finite scores
    that ignore the point.  No selector defines a choice either: a window
    holding one normalises to an all-NaN probability row, whose vote goes
    to the first detector.  ``AnomalyDetector.detect``, the streaming
    scorer and the selection entry points check first, so a non-finite
    series fails one way, naming ``reader`` (the detector or selector),
    the series when ``series_name`` is given, and the first bad index.
    ``series`` may be the part of a longer series that begins at index
    ``start``.
    """
    finite = np.isfinite(series)
    if not finite.all():
        index = int(np.argmin(finite))
        named = "" if series_name is None else f" {series_name!r}"
        raise NonFiniteSeriesError(f"{reader} cannot use non-finite series{named}: "
                                   f"value {series[index]} at index {start + index}")


def normalize_scores(scores: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Min-max normalise scores to [0, 1]; constant scores map to zeros."""
    scores = np.asarray(scores, dtype=np.float64)
    lo, hi = scores.min(), scores.max()
    if hi - lo < eps:
        return np.zeros_like(scores)
    return (scores - lo) / (hi - lo)


class AnomalyDetector(ABC):
    """Base class for all TSAD models in the candidate set."""

    #: registry name (filled by :func:`register_detector`)
    name: str = "base"

    #: True when ``score()`` is *windowed-local*: every raw point score is
    #: the overlap average of per-window scores, and each window's score
    #: depends only on that window's values (no statistics over the whole
    #: series).  Local detectors can be re-scored incrementally on a stream
    #: (:class:`repro.streaming.OnlineScorer` recomputes only the tail);
    #: global detectors need a full re-run when the series grows.
    locally_scored: bool = False

    def __init__(self, window: int = 32) -> None:
        self.window = window

    @abstractmethod
    def score(self, series: np.ndarray) -> np.ndarray:
        """Return raw per-point anomaly scores for ``series``."""

    def detect(self, series: np.ndarray) -> np.ndarray:
        """Return per-point anomaly scores normalised to [0, 1].

        A series holding NaN or an infinity raises ``ValueError``.
        """
        series = np.asarray(series, dtype=np.float64).ravel()
        if len(series) == 0:
            return np.zeros(0)
        check_finite(series, self.name)
        scores = self.score(series)
        if len(scores) != len(series):
            raise RuntimeError(
                f"{self.__class__.__name__} returned {len(scores)} scores for a series of "
                f"length {len(series)}"
            )
        return normalize_scores(scores)

    def effective_window(self, series: np.ndarray) -> int:
        """Window size clipped so that it always fits the series."""
        return int(max(4, min(self.window, len(series) // 2)))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(window={self.window})"


_DETECTOR_REGISTRY: Dict[str, Type[AnomalyDetector]] = {}


def register_detector(name: str):
    """Class decorator registering a detector under ``name``."""

    def wrap(cls: Type[AnomalyDetector]) -> Type[AnomalyDetector]:
        cls.name = name
        _DETECTOR_REGISTRY[name] = cls
        return cls

    return wrap


def make_detector(name: str, **kwargs) -> AnomalyDetector:
    """Instantiate a registered detector by name."""
    if name not in _DETECTOR_REGISTRY:
        raise KeyError(f"unknown detector {name!r}; available: {sorted(_DETECTOR_REGISTRY)}")
    return _DETECTOR_REGISTRY[name](**kwargs)


#: The paper's 12-model candidate set (Table 5), in its reporting order.
DEFAULT_MODEL_NAMES = [
    "IForest", "IForest1", "LOF", "HBOS", "MP", "NORMA",
    "PCA", "AE", "LSTM-AD", "POLY", "CNN", "OCSVM",
]


def make_default_model_set(window: int = 32, fast: bool = True) -> Dict[str, AnomalyDetector]:
    """Instantiate the paper's 12-model TSAD candidate set.

    ``fast=True`` configures the neural detectors (AE / LSTM-AD / CNN) with
    small budgets so that the oracle labelling pass stays laptop-friendly.
    Detectors added with :func:`register_detector` are *not* included,
    keeping the candidate set identical to the paper's.
    """
    from . import (  # local import to avoid a registration cycle
        hbos, iforest, lof, matrix_profile, neural, norma, ocsvm, pca, poly,
    )
    del hbos, iforest, lof, matrix_profile, neural, norma, ocsvm, pca, poly

    epochs = 5 if fast else 30
    overrides = {
        "AE": {"epochs": epochs},
        "LSTM-AD": {"epochs": max(2, epochs // 2)},
        "CNN": {"epochs": epochs},
    }
    model_set = {}
    for name in DEFAULT_MODEL_NAMES:
        kwargs = {"window": window}
        kwargs.update(overrides.get(name, {}))
        model_set[name] = make_detector(name, **kwargs)
    return model_set
