"""Feature scaling utilities (scikit-learn replacements)."""

from __future__ import annotations

import numpy as np

from ..accel.precision import resolve_dtype


class StandardScaler:
    """Standardise features to zero mean and unit variance."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        x = np.asarray(x, dtype=np.float64)
        self.mean_ = x.mean(axis=0)
        std = x.std(axis=0)
        self.scale_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.mean_ is None:
            raise RuntimeError("StandardScaler must be fitted before transform")
        return (np.asarray(x, dtype=np.float64) - self.mean_) / self.scale_

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)


def zscore(series: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Z-normalise a 1-D series (constant series map to zeros)."""
    series = np.asarray(series, dtype=np.float64)
    std = series.std()
    if std < eps:
        return np.zeros_like(series)
    return (series - series.mean()) / std


def zscore_rows(matrix: np.ndarray, eps: float = 1e-12, dtype=None) -> np.ndarray:
    """Z-normalise every row of a 2-D matrix in one vectorised pass.

    Equivalent to ``np.apply_along_axis(zscore, 1, matrix)`` — row means
    and stds reduce along the same contiguous axis with the same pairwise
    summation, so the result is bitwise identical — without the
    row-at-a-time Python loop, which dominates the detectors' window
    preparation once series reach tens of thousands of windows.  Every row
    is reduced on its own, so a row's result does not depend on which rows
    are stacked with it.

    A row of finite values whose std overflows float64 (a series scaled by
    ~1e300) is first divided by its largest magnitude, which leaves its
    z-scores unchanged up to rounding.  Rows whose std falls below ``eps``
    map to zeros: constant rows, and also a series scaled by ~1e-300,
    which is therefore answered as a constant series.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        # ``matrix.std(axis=1)``'s own steps (same bits), keeping the deviations for z
        mean = matrix.mean(axis=1, keepdims=True)
        dev = matrix - mean
        std = np.sqrt(np.add.reduce(dev * dev, axis=1, keepdims=True) / matrix.shape[1])
        z = dev / np.where(std < eps, 1.0, std)
    z[std[:, 0] < eps] = 0.0
    if matrix.shape[1] and not np.isfinite(std).all():
        overflow = ~np.isfinite(std[:, 0]) & np.isfinite(matrix).all(axis=1)
        rows = matrix[overflow]
        z[overflow] = zscore_rows(rows / np.abs(rows).max(axis=1, keepdims=True), eps, np.float64)
    return z.astype(resolve_dtype(dtype), copy=False)
