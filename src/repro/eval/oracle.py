"""Oracle labelling: run every candidate detector on every series.

The performance matrix ``P[i, j] = metric(detector_j on series_i)`` is the
"historical knowledge" of the paper: its argmax gives the hard label of the
standard framework, the full row gives the soft-label knowledge used by
PISL, and it also defines the evaluation target (AUC-PR of the selected
model).  Because running 12 detectors over many series is the expensive
step, results are cached on disk keyed by every point and label scored,
the detectors' classes and constructor settings, and the metric.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..data.records import TimeSeriesRecord
from ..detectors.base import AnomalyDetector
from ..serving.workers import WorkerPool
from .metrics import auc_pr, auc_roc, best_f1

METRICS: Dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "auc_pr": auc_pr,
    "auc_roc": auc_roc,
    "best_f1": best_f1,
}


def _settings(value: object) -> object:
    """A detector's class and constructor settings (recursing into dicts)."""
    if isinstance(value, AnomalyDetector):
        cls = type(value)
        params = inspect.signature(cls.__init__).parameters
        return {"class": f"{cls.__module__}.{cls.__qualname__}",
                **{name: _settings(getattr(value, name)) for name in params
                   if name != "self" and hasattr(value, name)}}
    if isinstance(value, dict):
        return {str(key): _settings(item) for key, item in value.items()}
    return repr(value)


def _cache_key(records: Sequence[TimeSeriesRecord], model_set: Dict[str, AnomalyDetector], metric: str) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for record in records:
        for array in (record.series, record.labels):
            array = np.ascontiguousarray(array)
            hasher.update(f"{array.dtype}{array.shape}".encode())
            hasher.update(array.tobytes())
    hasher.update(json.dumps(_settings(model_set)).encode())
    hasher.update(metric.encode())
    return hasher.hexdigest()


class Oracle:
    """Runs the TSAD model set over series collections and caches the results."""

    def __init__(
        self,
        model_set: Dict[str, AnomalyDetector],
        metric: str = "auc_pr",
        cache_dir: Optional[str | Path] = None,
        verbose: bool = False,
        max_workers: int = 0,
    ) -> None:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; available: {sorted(METRICS)}")
        self.model_set = model_set
        self.metric = metric
        self.metric_fn = METRICS[metric]
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.verbose = verbose
        #: ``>= 2`` fans series scoring out to forked workers (labelling is
        #: embarrassingly parallel across series); 0/1 scores sequentially.
        self.max_workers = max_workers

    @property
    def detector_names(self) -> List[str]:
        return list(self.model_set)

    # ------------------------------------------------------------------ #
    def score_series(self, record: TimeSeriesRecord) -> np.ndarray:
        """Performance of every detector on one series (vector of length m)."""
        row = np.zeros(len(self.model_set))
        for j, (name, detector) in enumerate(self.model_set.items()):
            scores = detector.detect(record.series)
            row[j] = self.metric_fn(record.labels, scores)
            if self.verbose:
                print(f"  [{record.name}] {name}: {self.metric}={row[j]:.4f}")
        return row

    def performance_matrix(self, records: Sequence[TimeSeriesRecord]) -> np.ndarray:
        """(n_series, n_detectors) matrix, loaded from cache when possible."""
        cache_path = None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            key = _cache_key(records, self.model_set, self.metric)
            cache_path = self.cache_dir / f"oracle_{key}.npz"
            if cache_path.exists():
                with np.load(cache_path, allow_pickle=False) as archive:
                    return archive["performance"]

        def score_one(item):
            i, record = item
            if self.verbose:
                print(f"oracle: scoring series {i + 1}/{len(records)} ({record.name})")
            return self.score_series(record)

        rows = WorkerPool(self.max_workers).map(score_one, enumerate(records))
        matrix = np.array(rows) if rows else np.zeros((0, len(self.model_set)))

        if cache_path is not None:
            np.savez(cache_path, performance=matrix,
                     detectors=np.array(self.detector_names, dtype="U32"))
        return matrix
