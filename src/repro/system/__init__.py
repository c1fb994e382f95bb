"""``repro.system`` — the end-to-end TSAD model selection system.

Implements the architecture of Fig. 1: selector learning (via
:mod:`repro.core`), selector management (:class:`SelectorStore`), model
selection and anomaly detection (:class:`ModelSelectionPipeline`) plus the
reporting helpers the benchmark harness uses.  High-traffic serving
(batched + cached selection) lives in the sibling :mod:`repro.serving`
package; :meth:`ModelSelectionPipeline.as_service` bridges the two.
"""

from .anomaly_detection import DetectionResult, run_detection
from .pipeline import ModelSelectionPipeline, PipelineConfig
from .reporting import format_cache_stats, format_table, per_dataset_table
from .selector_store import CorruptSelectorError, SelectorStore, StoredSelectorInfo

__all__ = [
    "DetectionResult", "run_detection",
    "ModelSelectionPipeline", "PipelineConfig",
    "format_cache_stats", "format_table", "per_dataset_table",
    "CorruptSelectorError", "SelectorStore", "StoredSelectorInfo",
]
