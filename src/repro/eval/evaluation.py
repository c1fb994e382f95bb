"""Evaluation of TSAD model selection solutions.

Follows the paper's protocol: a selector predicts one TSAD model per test
series (majority vote over its windows); the reported score of the solution
on a dataset is the average detection performance (AUC-PR by default) of
the *selected* models over that dataset's series.  The performance values
come from the oracle matrix, exactly as in the benchmark of Sylligardos et
al. that the paper follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.records import TimeSeriesRecord
from ..data.windows import extract_windows
from ..detectors.base import check_finite
from ..selectors.base import Selector
from .metrics import accuracy, top_k_accuracy


@dataclass
class SelectionEvaluation:
    """Result of evaluating one selector over a set of test series."""

    per_dataset_score: Dict[str, float]
    per_series_score: Dict[str, float]
    selected_models: Dict[str, str]
    selection_accuracy: float
    top3_accuracy: float

    @property
    def average_score(self) -> float:
        """Unweighted mean over datasets (the paper's aggregate AUC-PR)."""
        if not self.per_dataset_score:
            return 0.0
        return float(np.mean(list(self.per_dataset_score.values())))


def aggregate_window_probas(proba: np.ndarray, aggregation: str = "vote") -> tuple[int, np.ndarray]:
    """Reduce one series' per-window probabilities to a model choice.

    Returns (selected model index, per-class aggregated probabilities).
    ``aggregation`` is either ``"vote"`` (majority voting, the paper's
    default) or ``"mean"`` (average predicted probabilities).  This is the
    single aggregation implementation shared by the one-shot pipeline and
    the batched serving layer, so both produce identical selections.
    """
    proba = np.asarray(proba, dtype=np.float64)
    if aggregation == "vote":
        votes = proba.argmax(axis=1)
        counts = np.bincount(votes, minlength=proba.shape[1]).astype(float)
        aggregated = counts / counts.sum()
    elif aggregation == "mean":
        aggregated = proba.mean(axis=0)
    else:
        raise ValueError("aggregation must be 'vote' or 'mean'")
    return int(aggregated.argmax()), aggregated


def check_selectable(record: TimeSeriesRecord) -> None:
    """Raise ``ValueError``, naming the series, when no selector can answer it.

    An empty series has no point to window (windowing would pad it into one
    all-zero window and vote on that); a series holding NaN or an infinity
    raises :class:`~repro.detectors.base.NonFiniteSeriesError`.
    """
    if len(record.series) == 0:
        raise ValueError(f"selection cannot use empty series {record.name!r}")
    check_finite(record.series, "selection", series_name=record.name)


def predict_for_series(
    selector: Selector,
    record: TimeSeriesRecord,
    window: int,
    aggregation: str = "vote",
) -> tuple[int, np.ndarray]:
    """Predict a TSAD model for one series (window, classify, aggregate).

    An empty or non-finite series raises ``ValueError``
    (:func:`check_selectable`).
    """
    check_selectable(record)
    windows = extract_windows(record.series, window, stride=window)
    return aggregate_window_probas(selector.predict_proba(windows), aggregation)


def evaluate_selection(
    selector: Selector,
    records: Sequence[TimeSeriesRecord],
    performance_matrix: np.ndarray,
    detector_names: Sequence[str],
    window: int,
    aggregation: str = "vote",
) -> SelectionEvaluation:
    """Evaluate a fitted selector on labelled test series.

    ``performance_matrix[i, j]`` must hold the detection performance of
    detector ``j`` on ``records[i]`` (from :class:`repro.eval.oracle.Oracle`).
    """
    performance_matrix = np.asarray(performance_matrix, dtype=np.float64)
    if performance_matrix.shape != (len(records), len(detector_names)):
        raise ValueError("performance matrix does not match records/detectors")

    per_series: Dict[str, float] = {}
    per_dataset_values: Dict[str, List[float]] = {}
    selected: Dict[str, str] = {}
    true_best = performance_matrix.argmax(axis=1)
    predictions = np.zeros(len(records), dtype=int)
    aggregated_probas = np.zeros((len(records), len(detector_names)))

    for i, record in enumerate(records):
        choice, aggregated = predict_for_series(selector, record, window, aggregation)
        predictions[i] = choice
        aggregated_probas[i] = aggregated
        score = float(performance_matrix[i, choice])
        per_series[record.name] = score
        per_dataset_values.setdefault(record.dataset, []).append(score)
        selected[record.name] = detector_names[choice]

    per_dataset = {dataset: float(np.mean(values)) for dataset, values in per_dataset_values.items()}
    return SelectionEvaluation(
        per_dataset_score=per_dataset,
        per_series_score=per_series,
        selected_models=selected,
        selection_accuracy=accuracy(true_best, predictions),
        top3_accuracy=top_k_accuracy(true_best, aggregated_probas, k=3),
    )


def oracle_upper_bound(
    records: Sequence[TimeSeriesRecord],
    performance_matrix: np.ndarray,
) -> Dict[str, float]:
    """Per-dataset score of always picking the best model (selection ceiling)."""
    performance_matrix = np.asarray(performance_matrix, dtype=np.float64)
    per_dataset: Dict[str, List[float]] = {}
    best = performance_matrix.max(axis=1)
    for record, value in zip(records, best):
        per_dataset.setdefault(record.dataset, []).append(float(value))
    return {dataset: float(np.mean(values)) for dataset, values in per_dataset.items()}


def single_best_baseline(
    records: Sequence[TimeSeriesRecord],
    performance_matrix: np.ndarray,
    detector_names: Sequence[str],
) -> Dict[str, float]:
    """Score of always running the single detector that is best on average.

    This is the "no selection" reference point: if one detector dominated
    everywhere, model selection would be pointless.
    """
    performance_matrix = np.asarray(performance_matrix, dtype=np.float64)
    best_overall = int(performance_matrix.mean(axis=0).argmax())
    per_dataset: Dict[str, List[float]] = {}
    for record, row in zip(records, performance_matrix):
        per_dataset.setdefault(record.dataset, []).append(float(row[best_overall]))
    result = {dataset: float(np.mean(values)) for dataset, values in per_dataset.items()}
    result["__detector__"] = best_overall  # type: ignore[assignment]
    result["__detector_name__"] = detector_names[best_overall]  # type: ignore[assignment]
    return result
