"""Isolation Forest detectors (IForest on subsequences, IForest1 on points).

Each tree is stored flat, in pre-order: per node a ``feature``, a split
``value``, ``left`` and ``right`` child indices and a ``leaf_path``.  A leaf
has feature -1, points both children at itself and holds its path length
``depth + c(size)``.  A forest lays its trees back to back in one set of
arrays (tree ``k`` starts at node ``roots_[k]``), and scoring moves every
(tree, row) pair down one level per step with
``x[rows, feature[node]] < value[node]`` choosing ``left`` or ``right``.

The fit walks the nodes with an explicit stack, right child pushed before
left, so the generator is drawn in the order of a recursive build: at each
node ``rng.integers`` for the feature, then ``rng.uniform`` for the split,
then the whole left subtree, then the right.  One-column input is fitted
over its sorted sample, where every node is a contiguous range and needs
no feature draw (``rng.integers(0, 1)`` draws nothing).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

import numpy as np

from .base import AnomalyDetector, register_detector, sliding_windows, window_scores_to_point_scores

#: rows scored per block; bounds the (trees, block) node-index buffers
_SCORE_BLOCK = 4096


@lru_cache(maxsize=None)
def _average_path_length(n: int) -> float:
    """Expected path length of an unsuccessful BST search (Liu et al., 2008)."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    harmonic = np.log(n - 1) + np.euler_gamma
    return 2.0 * harmonic - 2.0 * (n - 1) / n


class _FlatTrees:
    """Pre-order node lists of a forest's trees, grown one node at a time."""

    def __init__(self) -> None:
        self.feature: list = []
        self.value: list = []
        self.left: list = []
        self.right: list = []
        self.leaf_path: list = []
        self.depth = 0

    def node(self, right_of: int) -> int:
        """Index of the next node; ``right_of`` is the parent it is the right child of, or -1."""
        node = len(self.feature)
        if right_of >= 0:
            self.right[right_of] = node
        return node

    def split(self, node: int, feature: int, value: float) -> None:
        self.feature.append(feature)
        self.value.append(value)
        self.left.append(node + 1)  # pre-order: the left child comes next
        self.right.append(-1)       # set when the right child is reached
        self.leaf_path.append(0.0)

    def leaf(self, node: int, depth: int, size: int) -> None:
        self.feature.append(-1)
        self.value.append(0.0)
        self.left.append(node)
        self.right.append(node)
        self.leaf_path.append(depth + _average_path_length(size))
        self.depth = max(self.depth, depth)

    def grow(self, xt: np.ndarray, max_depth: int, rng: np.random.Generator) -> None:
        """Append one tree fitted on the (features, samples) array ``xt``."""
        stack = [(np.arange(xt.shape[1]), 0, -1)]
        while stack:
            rows, depth, right_of = stack.pop()
            node = self.node(right_of)
            size = len(rows)
            if depth < max_depth and size > 1:
                feature = int(rng.integers(0, xt.shape[0]))
                column = xt[feature, rows]
                lo, hi = column.min(), column.max()
                if not hi - lo < 1e-12:
                    value = float(rng.uniform(lo, hi))
                    mask = column < value
                    if 0 < np.count_nonzero(mask) < size:
                        self.split(node, feature, value)
                        stack.append((rows[~mask], depth + 1, node))
                        stack.append((rows[mask], depth + 1, -1))
                        continue
            self.leaf(node, depth, size)

    def grow_sorted(self, sample: list, max_depth: int, rng: np.random.Generator) -> None:
        """Append one tree fitted on the ascending one-column ``sample``.

        A node is the range ``sample[start:end]``: its minimum and maximum
        are the range's ends (NaN sorts last, and makes the minimum NaN as
        ``np.min`` would) and its left child is the prefix below the split.
        """
        stack = [(0, len(sample), 0, -1)]
        while stack:
            start, end, depth, right_of = stack.pop()
            node = self.node(right_of)
            if depth < max_depth and end - start > 1:
                hi = sample[end - 1]
                lo = sample[start] if hi == hi else hi
                if not hi - lo < 1e-12:
                    value = float(rng.uniform(lo, hi))
                    split = bisect_left(sample, value, start, end)
                    if start < split < end:
                        self.split(node, 0, value)
                        stack.append((split, end, depth + 1, node))
                        stack.append((start, split, depth + 1, -1))
                        continue
            self.leaf(node, depth, end - start)


class IsolationForest:
    """Ensemble of isolation trees producing scores in (0, 1)."""

    def __init__(self, n_estimators: int = 50, max_samples: int = 128, seed: int = 0) -> None:
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.seed = seed
        self.roots_ = np.zeros(0, dtype=np.intp)
        self._sample_size = 0

    def fit(self, x: np.ndarray) -> "IsolationForest":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        rng = np.random.default_rng(self.seed)
        n = x.shape[0]
        self._sample_size = min(self.max_samples, n)
        max_depth = int(np.ceil(np.log2(max(self._sample_size, 2))))
        trees = _FlatTrees()
        roots = []
        for _ in range(self.n_estimators):
            idx = rng.choice(n, size=self._sample_size, replace=False)
            roots.append(len(trees.feature))
            if x.shape[1] == 1:
                trees.grow_sorted(np.sort(x[idx, 0]).tolist(), max_depth, rng)
            else:
                trees.grow(x[idx].T.copy(), max_depth, rng)
        self.roots_ = np.array(roots, dtype=np.intp)
        self.feature_ = np.array(trees.feature, dtype=np.intp)
        self.value_ = np.array(trees.value, dtype=np.float64)
        self.left_ = np.array(trees.left, dtype=np.intp)
        self.right_ = np.array(trees.right, dtype=np.intp)
        self.leaf_path_ = np.array(trees.leaf_path, dtype=np.float64)
        self.depth_ = trees.depth
        return self

    def score_samples(self, x: np.ndarray) -> np.ndarray:
        """Anomaly score 2^(-E[path]/c(n)); close to 1 means anomalous."""
        if not len(self.roots_):
            raise RuntimeError("IsolationForest must be fitted before scoring")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        n = x.shape[0]
        # (trees, rows), C order: the mean over axis 0 adds tree by tree
        paths = np.empty((len(self.roots_), n))
        for start in range(0, n, _SCORE_BLOCK):
            rows = np.arange(start, min(start + _SCORE_BLOCK, n))
            node = np.repeat(self.roots_[:, None], len(rows), axis=1)
            for _ in range(self.depth_):
                go_left = x[rows, self.feature_[node]] < self.value_[node]
                node = np.where(go_left, self.left_[node], self.right_[node])
            paths[:, start:start + len(rows)] = self.leaf_path_[node]
        paths = np.mean(paths, axis=0)
        c = _average_path_length(self._sample_size)
        return np.power(2.0, -paths / max(c, 1e-12))


@register_detector("IForest")
class IForestDetector(AnomalyDetector):
    """Isolation forest over sliding-window subsequences."""

    def __init__(self, window: int = 32, n_estimators: int = 40, max_samples: int = 128, seed: int = 0) -> None:
        super().__init__(window)
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.seed = seed

    def score(self, series: np.ndarray) -> np.ndarray:
        series = np.asarray(series, dtype=np.float64).ravel()
        window = self.effective_window(series)
        subs = sliding_windows(series, window)
        forest = IsolationForest(self.n_estimators, self.max_samples, self.seed).fit(subs)
        window_scores = forest.score_samples(subs)
        return window_scores_to_point_scores(window_scores, len(series), window)


@register_detector("IForest1")
class IForest1Detector(AnomalyDetector):
    """Isolation forest where each individual data point is a sample."""

    def __init__(self, window: int = 32, n_estimators: int = 40, max_samples: int = 256, seed: int = 0) -> None:
        super().__init__(window)
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.seed = seed

    def score(self, series: np.ndarray) -> np.ndarray:
        series = np.asarray(series, dtype=np.float64).ravel()
        forest = IsolationForest(self.n_estimators, self.max_samples, self.seed).fit(series[:, None])
        return forest.score_samples(series[:, None])
