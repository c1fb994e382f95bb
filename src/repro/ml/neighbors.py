"""Nearest-neighbour algorithms (scikit-learn replacements).

The distance kernels route through :mod:`repro.accel`:
:func:`pairwise_sq_euclidean` gains a symmetric self-join fast path, and
:func:`kneighbors` keeps the historical dense path while the distance
matrix fits the accel memory budget, switching to the memory-budgeted
tiled kernel (:func:`repro.accel.tile_kneighbors`) beyond it — O(tile²)
scratch instead of O(n²), which is what lets LOF/KNN-style detectors
scale to tens of thousands of windows.

Dense-path equivalence with the pre-accel code: bit-for-bit for distinct
query/reference operands; for self-joins the distances inherit the fast
path's symmetrisation — upper triangle bitwise-identical, mirrored lower
triangle within the last ulp of the historical values (see
:func:`pairwise_sq_euclidean`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..accel.config import memory_budget_bytes
from ..accel.distances import mirror_upper, tile_kneighbors
from ..accel.precision import resolve_dtype


def pairwise_sq_euclidean(a: np.ndarray, b: Optional[np.ndarray] = None,
                          dtype=None) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of ``a`` and ``b``.

    ``b=None`` (or ``b is a``) takes the symmetric self-join fast path: the
    row norms are computed once and the strict upper triangle is mirrored
    onto the lower one.  The diagonal and upper triangle are bitwise
    identical to the historical two-operand computation on the same array
    (asserted by the test suite); the mirrored lower triangle can deviate
    from it by the last ulp wherever BLAS's GEMM output was not exactly
    symmetric — the fast path trades that noise for an exactly symmetric
    result.
    """
    dt = resolve_dtype(dtype)
    self_join = b is None or b is a
    a = np.asarray(a, dtype=dt)
    if self_join:
        a_sq = (a ** 2).sum(axis=1)
        d = a_sq[:, None] + a_sq[None, :] - 2.0 * a @ a.T
        np.maximum(d, 0.0, out=d)
        mirror_upper(d)
        return d
    b = np.asarray(b, dtype=dt)
    a_sq = (a ** 2).sum(axis=1)[:, None]
    b_sq = (b ** 2).sum(axis=1)[None, :]
    d = a_sq + b_sq - 2.0 * a @ b.T
    np.maximum(d, 0.0, out=d)
    return d


def kneighbors(
    query: np.ndarray,
    reference: np.ndarray,
    k: int,
    exclude_self: bool = False,
    memory_budget_mb: Optional[float] = None,
    dtype=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return (distances, indices) of the ``k`` nearest reference rows.

    ``exclude_self`` skips the zero-distance self match when ``query`` is the
    same matrix as ``reference`` (used by LOF and KNN-style detectors).

    While the full (m, n) distance matrix fits the accel memory budget
    (``REPRO_MEMORY_BUDGET_MB``), this is the historical dense computation —
    bit-for-bit for distinct operands; self-joins go through the
    symmetrised :func:`pairwise_sq_euclidean` fast path, whose mirrored
    lower triangle can sit one ulp from the historical values.  Larger
    problems stream through :func:`repro.accel.tile_kneighbors`; tiled
    results agree with the dense path to the last ulp of the distances,
    but resolve duplicate-distance ties to the lowest index instead of
    ``argpartition``'s arbitrary order.
    """
    dt = resolve_dtype(dtype)
    self_join = reference is query
    query = np.asarray(query, dtype=dt)
    reference = query if self_join else np.asarray(reference, dtype=dt)
    m, n = query.shape[0], reference.shape[0]
    if m * n * dt.itemsize > memory_budget_bytes(memory_budget_mb):
        return tile_kneighbors(
            query, reference if not self_join else query, k,
            exclude_self=exclude_self,
            memory_budget_mb=memory_budget_mb, dtype=dt,
        )
    d = pairwise_sq_euclidean(query, reference if not self_join else None, dtype=dt)
    if exclude_self:
        np.fill_diagonal(d, np.inf)
    k = min(k, d.shape[1] - (1 if exclude_self else 0))
    k = max(k, 1)
    idx = np.argpartition(d, kth=k - 1, axis=1)[:, :k]
    part = np.take_along_axis(d, idx, axis=1)
    order = np.argsort(part, axis=1)
    idx = np.take_along_axis(idx, order, axis=1)
    dist = np.sqrt(np.take_along_axis(part, order, axis=1))
    return dist, idx


class KNeighborsClassifier:
    """K-nearest-neighbour classifier with distance-weighted voting."""

    def __init__(self, n_neighbors: int = 5, weights: str = "uniform") -> None:
        if weights not in ("uniform", "distance"):
            raise ValueError("weights must be 'uniform' or 'distance'")
        self.n_neighbors = n_neighbors
        self.weights = weights
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self.classes_: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "KNeighborsClassifier":
        self._x = np.asarray(x, dtype=np.float64)
        self._y = np.asarray(y, dtype=int)
        self.classes_ = np.unique(self._y)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("classifier must be fitted before predict")
        dist, idx = kneighbors(np.asarray(x, dtype=np.float64), self._x, self.n_neighbors)
        labels = self._y[idx]
        if self.weights == "distance":
            w = 1.0 / (dist + 1e-9)
        else:
            w = np.ones_like(dist)
        n_classes = len(self.classes_)
        proba = np.zeros((x.shape[0], n_classes))
        class_to_col = {c: i for i, c in enumerate(self.classes_)}
        for col, cls in enumerate(self.classes_):
            proba[:, col] = np.where(labels == cls, w, 0.0).sum(axis=1)
        proba /= np.maximum(proba.sum(axis=1, keepdims=True), 1e-12)
        return proba

    def predict(self, x: np.ndarray) -> np.ndarray:
        proba = self.predict_proba(x)
        return self.classes_[proba.argmax(axis=1)]
