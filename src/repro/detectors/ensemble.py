"""Ensemble baselines: run every candidate detector and combine the scores.

The paper's introduction motivates model selection as the scalable
alternative to ensembling (which must run *all* candidate models).  These
ensembles are provided so that the trade-off can be measured directly:
they are usually strong but cost ``m`` detector runs per series instead of
one.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .base import AnomalyDetector, make_default_model_set


class DetectorEnsemble(AnomalyDetector):
    """Combine the normalised scores of several detectors.

    Aggregations: ``"mean"`` (average score), ``"max"`` (most alarmed
    detector wins per point) and ``"median"`` (robust to one bad detector).
    """

    name = "Ensemble"

    def __init__(
        self,
        model_set: Optional[Dict[str, AnomalyDetector]] = None,
        aggregation: str = "mean",
        window: int = 32,
    ) -> None:
        super().__init__(window)
        if aggregation not in ("mean", "max", "median"):
            raise ValueError("aggregation must be 'mean', 'max' or 'median'")
        self.aggregation = aggregation
        self.model_set = model_set or make_default_model_set(window=window, fast=True)

    def score(self, series: np.ndarray) -> np.ndarray:
        series = np.asarray(series, dtype=np.float64).ravel()
        all_scores = np.stack([det.detect(series) for det in self.model_set.values()])
        if self.aggregation == "mean":
            return all_scores.mean(axis=0)
        if self.aggregation == "max":
            return all_scores.max(axis=0)
        return np.median(all_scores, axis=0)

    def __repr__(self) -> str:
        return f"DetectorEnsemble(aggregation={self.aggregation!r}, members={len(self.model_set)})"

