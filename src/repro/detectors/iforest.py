"""Isolation Forest detectors (IForest on subsequences, IForest1 on points).

Each tree is stored flat, in pre-order: per node a ``feature``, a split
``value``, ``left`` and ``right`` child indices and a ``leaf_path``.  A leaf
has feature -1, points both children at itself and holds its path length
``depth + c(size)``.  A forest lays its trees back to back in one set of
arrays (tree ``k`` starts at node ``roots_[k]``), and scoring moves every
(tree, row) pair down one level per step with
``x[rows, feature[node]] < value[node]`` choosing ``left`` or ``right``.
A one-column tree's split values are distinct and its leaves, in
pre-order, are the pieces of the real line between its sorted split
values, so a one-column forest scores each tree with one ``searchsorted``.

Draw order.  The fit walks the nodes with an explicit stack, right child
pushed before left, so the generator is drawn in the order of a recursive
build: at each node ``rng.integers(0, d)`` for the feature, then
``rng.uniform(lo, hi)`` for the split, then the whole left subtree, then
the right.  One-column input is fitted over its sorted sample, where every
node is a contiguous range and needs no feature draw
(``rng.integers(0, 1)`` draws nothing).  Those calls are not made one by
one: after a tree's ``rng.choice``, ``_TreeDraws`` takes one block of raw
64-bit words from the bit generator, computes each draw from them as the
generator would, and then leaves the generator where the calls would have
left it, so every tree keeps its bits.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from math import isfinite

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


class _TreeDraws:
    """One tree's generator draws, replayed from a block of raw 64-bit words.

    ``integers(d)`` is ``rng.integers(0, d)`` and ``uniform(lo, hi)`` is
    ``float(rng.uniform(lo, hi))``, computed as numpy computes them on
    ``default_rng``'s PCG64: ``integers`` runs Lemire's method on buffered
    32-bit halves (a word's low half first, its high half kept for the next
    call), ``uniform`` takes a whole word's top 53 bits.  ``sync`` then
    leaves the generator exactly where those calls would have left it.
    ``bound`` words cover a tree unless Lemire rejects; more are taken if
    needed.
    """

    __slots__ = ("_bitgen", "_state", "_words", "_used", "_has_half", "_half")

    def __init__(self, rng: np.random.Generator, bound: int) -> None:
        self._bitgen = rng.bit_generator
        self._state = self._bitgen.state
        self._words = self._bitgen.random_raw(bound).tolist()
        self._used = 0
        self._has_half = self._state["has_uint32"]
        self._half = self._state["uinteger"]

    def _word(self) -> int:
        if self._used == len(self._words):
            self._words += self._bitgen.random_raw(len(self._words)).tolist()
        self._used += 1
        return self._words[self._used - 1]

    def integers(self, d: int) -> int:
        if d == 1:
            return 0
        if d < 1:  # a forest fitted on no columns, as ``rng.integers(0, 0)`` raises
            raise ValueError("high <= 0")
        threshold = (0x100000000 - d) % d
        while True:
            if self._has_half:
                self._has_half = 0
                half = self._half
            else:
                word = self._word()
                self._has_half, self._half = 1, word >> 32
                half = word & 0xFFFFFFFF
            m = half * d
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def uniform(self, lo: float, hi: float) -> float:
        span = hi - lo
        if not isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        return lo + span * ((self._word() >> 11) * 2.0 ** -53)

    def sync(self) -> None:
        """Move the generator past the words used, with the replayed 32-bit buffer."""
        self._state["has_uint32"] = self._has_half
        self._state["uinteger"] = self._half
        self._bitgen.state = self._state
        self._bitgen.random_raw(self._used)


class _FlatTrees:
    """Pre-order node lists of a forest's trees, grown one node at a time.

    A split's right child is set when that child is reached.  Its left
    child is the next node, and a leaf is its own child, so the left
    indices follow from the features.
    """

    def __init__(self) -> None:
        self.feature: list = []
        self.value: list = []
        self.leaf_path: list = []
        self.right: list = []
        self.depth = 0

    def grow(self, xt: np.ndarray, max_depth: int, rng: np.random.Generator) -> None:
        """Append one tree fitted on the (features, samples) array ``xt``.

        A node sorts its rows by the drawn feature: the sorted column's ends
        are its minimum and maximum, ``searchsorted`` counts the rows below
        the split, and the children are the two slices of the rows in that
        order.  The trees are the recursive build's: a node's draws, split
        and leaf path depend only on its set of rows, ``lo + span·u`` is the
        same whichever zero sorts first, and NaN sorts last, so a column
        holding one has a NaN span and ``uniform`` raises.
        """
        draws = _TreeDraws(rng, 3 * 2 ** (max_depth - 1) + 1)
        add_feature, add_value, add_path = self.feature.append, self.value.append, self.leaf_path.append
        right = self.right
        n_features = xt.shape[0]
        stack = [(np.arange(xt.shape[1]), 0, -1)]
        while stack:
            rows, depth, right_of = stack.pop()
            node = len(right)
            if right_of >= 0:
                right[right_of] = node
            size = len(rows)
            if depth < max_depth and size > 1:
                feature = draws.integers(n_features)
                column = xt[feature][rows]
                order = column.argsort()
                column = column[order]
                lo, hi = float(column[0]), float(column[-1])
                if not hi - lo < 1e-12:
                    value = draws.uniform(lo, hi)
                    split = column.searchsorted(value)
                    if 0 < split < size:
                        rows = rows[order]
                        add_feature(feature)
                        add_value(value)
                        add_path(0.0)
                        right.append(-1)
                        stack.append((rows[split:], depth + 1, node))
                        stack.append((rows[:split], depth + 1, -1))
                        continue
            add_feature(-1)
            add_value(0.0)
            add_path(depth + _average_path_length(size))
            right.append(node)
            self.depth = max(self.depth, depth)
        draws.sync()

    def grow_sorted(self, sample: list, max_depth: int, rng: np.random.Generator) -> None:
        """Append one tree fitted on the ascending one-column ``sample``.

        A node is the range ``sample[start:end]``: its minimum and maximum
        are the range's ends (NaN sorts last, and makes the minimum NaN as
        ``np.min`` would) and its left child is the prefix below the split.
        """
        draws = _TreeDraws(rng, 2 ** max_depth)
        add_feature, add_value, add_path = self.feature.append, self.value.append, self.leaf_path.append
        right = self.right
        stack = [(0, len(sample), 0, -1)]
        while stack:
            start, end, depth, right_of = stack.pop()
            node = len(right)
            if right_of >= 0:
                right[right_of] = node
            if depth < max_depth and end - start > 1:
                hi = sample[end - 1]
                lo = sample[start] if hi == hi else hi
                if not hi - lo < 1e-12:
                    value = draws.uniform(lo, hi)
                    split = bisect_left(sample, value, start, end)
                    if start < split < end:
                        add_feature(0)
                        add_value(value)
                        add_path(0.0)
                        right.append(-1)
                        stack.append((split, end, depth + 1, node))
                        stack.append((start, split, depth + 1, -1))
                        continue
            add_feature(-1)
            add_value(0.0)
            add_path(depth + _average_path_length(end - start))
            right.append(node)
            self.depth = max(self.depth, depth)
        draws.sync()


class IsolationForest:
    """Ensemble of isolation trees producing scores in (0, 1)."""

    def __init__(self, n_estimators: int = 50, max_samples: int = 128, seed: int = 0) -> None:
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.seed = seed
        self.roots_ = np.zeros(0, dtype=np.intp)
        self._sample_size = 0
        self._columns = 0

    def fit(self, x: np.ndarray) -> "IsolationForest":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        rng = np.random.default_rng(self.seed)
        n, self._columns = x.shape
        self._sample_size = min(self.max_samples, n)
        max_depth = int(np.ceil(np.log2(max(self._sample_size, 2))))
        trees = _FlatTrees()
        roots = []
        for _ in range(self.n_estimators):
            idx = rng.choice(n, size=self._sample_size, replace=False)
            roots.append(len(trees.right))
            if self._columns == 1:
                trees.grow_sorted(np.sort(x[idx, 0]).tolist(), max_depth, rng)
            else:
                trees.grow(x[idx].T.copy(), max_depth, rng)
        self.roots_ = np.array(roots, dtype=np.intp)
        self.feature_ = np.array(trees.feature, dtype=np.intp)
        self.value_ = np.array(trees.value, dtype=np.float64)
        self.left_ = np.arange(len(self.feature_), dtype=np.intp) + (self.feature_ >= 0)
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
        if self._columns == 1:
            # a one-column tree's leaves, in pre-order, are the pieces its sorted cuts make
            column = x[:, 0]
            ends = np.append(self.roots_[1:], len(self.feature_))
            for k, (start, end) in enumerate(zip(self.roots_, ends)):
                split = self.feature_[start:end] >= 0
                cuts = np.sort(self.value_[start:end][split])
                pieces = self.leaf_path_[start:end][~split]
                paths[k] = pieces[np.searchsorted(cuts, column, "right")]
        else:
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
