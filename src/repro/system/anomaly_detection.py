"""Anomaly detection runner: apply a (selected) TSAD model and report metrics.

This is the "Anomaly Detection" component of the demo system: given a time
series and a chosen detector, it produces the point-wise anomaly scores and
the evaluation metrics that the system visualises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..data.records import TimeSeriesRecord
from ..detectors.base import AnomalyDetector
from ..eval.metrics import detection_report


@dataclass
class DetectionResult:
    """Scores and metrics of running one detector on one series."""

    series_name: str
    detector_name: str
    scores: np.ndarray
    metrics: Dict[str, float] = field(default_factory=dict)


def run_detection(record: TimeSeriesRecord, detector: AnomalyDetector,
                  detector_name: Optional[str] = None) -> DetectionResult:
    """Run one detector on one series; metrics only when labels exist.

    Unlabeled series (no positive point in ``record.labels``) get an empty
    ``metrics`` dict — there is no ground truth to evaluate against.
    """
    scores = detector.detect(record.series)
    metrics = detection_report(record.labels, scores) if record.labels.any() else {}
    return DetectionResult(
        series_name=record.name,
        detector_name=detector_name or detector.name,
        scores=scores,
        metrics=metrics,
    )

