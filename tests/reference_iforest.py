"""Recursive isolation forest: the reference the flat trees are checked against.

``_IsolationTree.fit`` and ``path_length`` are the per-node recursive
build and traversal :mod:`repro.detectors.iforest` used before its trees
were flattened into arrays.  ``reference_score_samples`` is that forest's
fit + ``score_samples``, and the two detector helpers wrap it the way
``IForestDetector`` and ``IForest1Detector`` do, so a test can compare the
library with this module bit for bit.  ``reference_flat_trees`` flattens
the recursive trees in pre-order, the layout of the library's arrays.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.detectors.base import sliding_windows, window_scores_to_point_scores
from repro.detectors.iforest import _average_path_length


class _IsolationTree:
    """A single isolation tree built on randomly chosen splits."""

    __slots__ = ("split_feature", "split_value", "left", "right", "size")

    def __init__(self) -> None:
        self.split_feature: int = -1
        self.split_value: float = 0.0
        self.left: Optional[_IsolationTree] = None
        self.right: Optional[_IsolationTree] = None
        self.size: int = 0

    def fit(self, x: np.ndarray, depth: int, max_depth: int, rng: np.random.Generator) -> "_IsolationTree":
        self.size = x.shape[0]
        if depth >= max_depth or x.shape[0] <= 1:
            return self
        feature = int(rng.integers(0, x.shape[1]))
        lo, hi = x[:, feature].min(), x[:, feature].max()
        if hi - lo < 1e-12:
            return self
        value = float(rng.uniform(lo, hi))
        mask = x[:, feature] < value
        if mask.all() or (~mask).all():
            return self
        self.split_feature = feature
        self.split_value = value
        self.left = _IsolationTree().fit(x[mask], depth + 1, max_depth, rng)
        self.right = _IsolationTree().fit(x[~mask], depth + 1, max_depth, rng)
        return self

    def path_length(self, x: np.ndarray, depth: int = 0) -> np.ndarray:
        if self.left is None:
            return np.full(x.shape[0], depth + _average_path_length(self.size))
        out = np.empty(x.shape[0])
        mask = x[:, self.split_feature] < self.split_value
        if mask.any():
            out[mask] = self.left.path_length(x[mask], depth + 1)
        if (~mask).any():
            out[~mask] = self.right.path_length(x[~mask], depth + 1)
        return out


def _reference_fit(x: np.ndarray, n_estimators: int, max_samples: int, seed: int):
    """The recursive forest's trees and sample size, fitted on the (rows, columns) ``x``."""
    rng = np.random.default_rng(seed)
    n = x.shape[0]
    sample_size = min(max_samples, n)
    max_depth = int(np.ceil(np.log2(max(sample_size, 2))))
    trees = []
    for _ in range(n_estimators):
        idx = rng.choice(n, size=sample_size, replace=False)
        trees.append(_IsolationTree().fit(x[idx], 0, max_depth, rng))
    return trees, sample_size


def _as_rows(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x[:, None] if x.ndim == 1 else x


def reference_score_samples(fit_x: np.ndarray, score_x: np.ndarray, n_estimators: int = 50,
                            max_samples: int = 128, seed: int = 0) -> np.ndarray:
    """``IsolationForest(n_estimators, max_samples, seed).fit(fit_x).score_samples(score_x)``."""
    trees, sample_size = _reference_fit(_as_rows(fit_x), n_estimators, max_samples, seed)
    if not trees:
        raise RuntimeError("IsolationForest must be fitted before scoring")
    x = _as_rows(score_x)
    paths = np.mean([tree.path_length(x) for tree in trees], axis=0)
    c = _average_path_length(sample_size)
    return np.power(2.0, -paths / max(c, 1e-12))


def _preorder(tree: _IsolationTree, depth: int = 0):
    """``(feature, value, leaf_path)`` per node: a node, its left subtree, then its right."""
    if tree.left is None:
        yield -1, 0.0, depth + _average_path_length(tree.size)
        return
    yield tree.split_feature, tree.split_value, 0.0
    yield from _preorder(tree.left, depth + 1)
    yield from _preorder(tree.right, depth + 1)


def reference_flat_trees(fit_x: np.ndarray, n_estimators: int = 50, max_samples: int = 128,
                         seed: int = 0) -> list:
    """Per tree, the ``(feature, value, leaf_path)`` arrays of its pre-order flattening."""
    trees, _ = _reference_fit(_as_rows(fit_x), n_estimators, max_samples, seed)
    flat = []
    for tree in trees:
        feature, value, leaf_path = zip(*_preorder(tree))
        flat.append((np.array(feature, dtype=np.intp), np.array(value, dtype=np.float64),
                     np.array(leaf_path, dtype=np.float64)))
    return flat


def reference_iforest_scores(series: np.ndarray, window: int = 32, n_estimators: int = 40,
                             max_samples: int = 128, seed: int = 0) -> np.ndarray:
    """``IForestDetector(...).score(series)`` over the recursive forest."""
    series = np.asarray(series, dtype=np.float64).ravel()
    window = int(max(4, min(window, len(series) // 2)))
    subs = sliding_windows(series, window)
    window_scores = reference_score_samples(subs, subs, n_estimators, max_samples, seed)
    return window_scores_to_point_scores(window_scores, len(series), window)


def reference_iforest1_scores(series: np.ndarray, n_estimators: int = 40, max_samples: int = 256,
                              seed: int = 0) -> np.ndarray:
    """``IForest1Detector(...).score(series)`` over the recursive forest."""
    series = np.asarray(series, dtype=np.float64).ravel()
    return reference_score_samples(series[:, None], series[:, None], n_estimators, max_samples, seed)
