"""``repro.core`` — the KDSelector learning framework.

The three plug-and-play modules of the paper live here:

* :mod:`repro.core.pisl` — Performance-Informed Selector Learning,
* :mod:`repro.core.mki` — Meta-Knowledge Integration,
* :mod:`repro.core.pruning` — Pruning-based Acceleration (and InfoBatch),

wired together by :class:`repro.core.trainer.SelectorTrainer` under the
configurations in :mod:`repro.core.config`.
"""

from .analysis import (
    SelectorDiagnostics,
    confusion_matrix,
    diagnose_selector,
    gradient_redundancy,
    per_class_accuracy,
    pruning_summary,
)
from .config import (
    MKIConfig,
    PISLConfig,
    PruningConfig,
    TrainerConfig,
    kdselector_config,
    standard_config,
)
from .lsh import SimHashLSH, bucket_indices
from .tuning import PAPER_GRID, GridSearchResult, Trial, grid_search
from .mki import MKIModule, ProjectionHead
from .pisl import PISLLoss, performance_to_soft_labels
from .pruning import InfoBatchPruner, NoPruning, PAPruner, SamplePruner, make_pruner
from .trainer import SelectorTrainer, TrainingReport

__all__ = [
    "SelectorDiagnostics", "confusion_matrix", "diagnose_selector",
    "gradient_redundancy", "per_class_accuracy", "pruning_summary",
    "PAPER_GRID", "GridSearchResult", "Trial", "grid_search",
    "MKIConfig", "PISLConfig", "PruningConfig", "TrainerConfig",
    "kdselector_config", "standard_config",
    "SimHashLSH", "bucket_indices",
    "MKIModule", "ProjectionHead",
    "PISLLoss", "performance_to_soft_labels",
    "InfoBatchPruner", "NoPruning", "PAPruner", "SamplePruner", "make_pruner",
    "SelectorTrainer", "TrainingReport",
]
