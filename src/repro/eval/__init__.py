"""``repro.eval`` — metrics, oracle labelling and selection evaluation."""

from .metrics import (
    accuracy,
    auc_pr,
    auc_roc,
    best_f1,
    detection_report,
    precision_at_k,
    precision_recall_curve,
    top_k_accuracy,
)
from .oracle import METRICS, Oracle
from .evaluation import (
    SelectionEvaluation,
    aggregate_window_probas,
    evaluate_selection,
    oracle_upper_bound,
    predict_for_series,
    single_best_baseline,
)

__all__ = [
    "accuracy", "auc_pr", "auc_roc", "best_f1", "detection_report",
    "precision_at_k", "precision_recall_curve", "top_k_accuracy",
    "METRICS", "Oracle",
    "SelectionEvaluation", "aggregate_window_probas", "evaluate_selection",
    "oracle_upper_bound", "predict_for_series", "single_best_baseline",
]
