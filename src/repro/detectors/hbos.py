"""Histogram-Based Outlier Score detector."""

from __future__ import annotations

import numpy as np

from .base import AnomalyDetector, register_detector, sliding_windows, window_scores_to_point_scores


def hbos_scores(x: np.ndarray, n_bins: int = 20, eps: float = 1e-12) -> np.ndarray:
    """HBOS over the columns of ``x``: sum of log inverse bin heights."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    scores = np.zeros(n)
    for j in range(d):
        col = x[:, j]
        hist, edges = np.histogram(col, bins=n_bins)
        density = hist / max(hist.max(), 1)
        bin_idx = np.clip(np.searchsorted(edges, col, side="right") - 1, 0, n_bins - 1)
        scores += np.log(1.0 / (density[bin_idx] + eps))
    return scores


@register_detector("HBOS")
class HBOSDetector(AnomalyDetector):
    """HBOS on a small set of window statistics (mean, std, min, max, last)."""

    def __init__(self, window: int = 32, n_bins: int = 20) -> None:
        super().__init__(window)
        self.n_bins = n_bins

    def score(self, series: np.ndarray) -> np.ndarray:
        series = np.asarray(series, dtype=np.float64).ravel()
        window = self.effective_window(series)
        subs = sliding_windows(series, window)
        with np.errstate(over="ignore", invalid="ignore"):
            std = subs.std(axis=1)
            # A finite window at ~1e300 scale overflows its squares: take
            # the std of the window divided by its largest magnitude instead.
            overflow = ~np.isfinite(std)
            if overflow.any():
                rows = subs[overflow]
                scale = np.abs(rows).max(axis=1, keepdims=True)
                std[overflow] = (rows / scale).std(axis=1) * scale[:, 0]
        feats = np.column_stack([
            subs.mean(axis=1),
            std,
            subs.min(axis=1),
            subs.max(axis=1),
            subs[:, -1],
        ])
        window_scores = hbos_scores(feats, n_bins=self.n_bins)
        return window_scores_to_point_scores(window_scores, len(series), window)
