"""Rocket selector: random convolutional kernels + ridge classifier.

This reproduces the kernel-based baseline ("Rocket"/MiniRocket) of the
paper: a large set of random 1-D convolution kernels transforms each window
into PPV (proportion of positive values) and max features, and a ridge
classifier is trained on top.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.windows import SelectorDataset
from ..ml import RidgeClassifier, StandardScaler
from .base import Selector, register_selector


class RocketFeatureTransform:
    """Random convolution kernels producing (PPV, max) features per kernel."""

    def __init__(self, n_kernels: int = 256, seed: int = 0) -> None:
        self.n_kernels = n_kernels
        self.seed = seed
        self._kernels = None

    def fit(self, window_length: int) -> "RocketFeatureTransform":
        rng = np.random.default_rng(self.seed)
        kernels = []
        for _ in range(self.n_kernels):
            length = int(rng.choice([7, 9, 11]))
            weights = rng.normal(0.0, 1.0, size=length)
            weights -= weights.mean()
            bias = rng.uniform(-1.0, 1.0)
            max_exponent = max(0, int(np.log2((window_length - 1) / (length - 1)))) if window_length > length else 0
            dilation = 2 ** int(rng.integers(0, max_exponent + 1))
            kernels.append((weights, bias, dilation))
        self._kernels = kernels
        return self

    def _effective_dilation(self, klen: int, dilation: int, length: int) -> int:
        """Dilation after clamping kernels whose span overruns the window."""
        if (klen - 1) * dilation + 1 > length:
            return max(1, (length - 1) // (klen - 1))
        return dilation

    def transform(self, windows: np.ndarray) -> np.ndarray:
        """Shift-add transform: each kernel is ``klen`` shifted multiply-adds.

        ``conv = w[0] * x[:, 0:L'] + w[1] * x[:, d:d + L'] + ... + bias`` is
        elementwise per window, so a window's features never depend on how
        many windows share the call (a GEMV over gathered patches picks its
        summation blocking from the row count).  The products are summed in
        tap order; the regression test pins the features bitwise to the
        per-kernel reference loop :meth:`_transform_per_kernel`.
        """
        if self._kernels is None:
            raise RuntimeError("transform must be fitted before use")
        x = np.asarray(windows, dtype=np.float64)
        n, length = x.shape
        features = np.zeros((n, 2 * self.n_kernels))
        for k, (weights, bias, dilation) in enumerate(self._kernels):
            klen = len(weights)
            dilation = self._effective_dilation(klen, dilation, length)
            out_len = length - (klen - 1) * dilation
            conv = weights[0] * x[:, :out_len]
            for j in range(1, klen):
                conv += weights[j] * x[:, j * dilation:j * dilation + out_len]
            conv += bias
            features[:, 2 * k] = (conv > 0).mean(axis=1)
            features[:, 2 * k + 1] = conv.max(axis=1)
        return features

    def _transform_per_kernel(self, windows: np.ndarray) -> np.ndarray:
        """Reference implementation: one gather + matvec per kernel.

        Kept as the ground truth for the bitwise regression test of the
        shift-add :meth:`transform` above.
        """
        if self._kernels is None:
            raise RuntimeError("transform must be fitted before use")
        x = np.asarray(windows, dtype=np.float64)
        n, length = x.shape
        features = np.zeros((n, 2 * self.n_kernels))
        for k, (weights, bias, dilation) in enumerate(self._kernels):
            klen = len(weights)
            dilation = self._effective_dilation(klen, dilation, length)
            span = (klen - 1) * dilation + 1
            idx = np.arange(klen) * dilation
            out_len = length - span + 1
            positions = idx[None, :] + np.arange(out_len)[:, None]
            conv = x[:, positions] @ weights + bias  # (n, out_len)
            features[:, 2 * k] = (conv > 0).mean(axis=1)
            features[:, 2 * k + 1] = conv.max(axis=1)
        return features


@register_selector("Rocket")
class RocketSelector(Selector):
    """Random-kernel features + ridge classifier."""

    def __init__(self, n_classes: int = 12, n_kernels: int = 256, alpha: float = 1.0, seed: int = 0) -> None:
        self.n_classes = n_classes
        self.n_kernels = n_kernels
        self.alpha = alpha
        self.seed = seed
        self.transform = RocketFeatureTransform(n_kernels=n_kernels, seed=seed)
        self.scaler = StandardScaler()
        self.classifier: Optional[RidgeClassifier] = None
        self.classes_seen_: Optional[np.ndarray] = None

    def fit(self, dataset: SelectorDataset, **kwargs) -> "RocketSelector":
        del kwargs
        self.n_classes = dataset.n_classes
        self.transform.fit(dataset.windows.shape[1])
        features = self.scaler.fit_transform(self.transform.transform(dataset.windows))
        self.classifier = RidgeClassifier(alpha=self.alpha)
        self.classifier.fit(features, dataset.hard_labels)
        self.classes_seen_ = np.asarray(self.classifier.classes_, dtype=int)
        return self

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        if self.classifier is None:
            raise RuntimeError("selector must be fitted before predict")
        features = self.scaler.transform(self.transform.transform(np.asarray(windows, dtype=np.float64)))
        partial = self.classifier.predict_proba(features)
        proba = np.zeros((len(windows), self.n_classes))
        proba[:, self.classes_seen_] = partial
        return proba
