"""Configuration dataclasses of the KDSelector learning framework.

The defaults mirror the hyper-parameters reported in Sect. B.1 of the
paper: ``alpha`` and ``t_soft`` for PISL, projection dimension ``H``,
weight ``lambda`` and InfoNCE temperature for MKI, and pruning ratio ``r``,
LSH bits and bin count for PA.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field


def check_training_fields(config, *counts: str) -> None:
    """Raise ``ValueError`` naming the first of ``counts`` below 1, or a
    ``lr`` that is not a finite positive number."""
    for name in counts:
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be >= 1")
    if not (math.isfinite(config.lr) and config.lr > 0):
        raise ValueError("lr must be finite and > 0")


@dataclass(frozen=True)
class PISLConfig:
    """Performance-informed selector learning (soft labels)."""

    enabled: bool = True
    #: relative importance of the soft label vs the hard label (paper: alpha)
    alpha: float = 0.4
    #: softmax temperature applied to the performance scores (paper: t_soft)
    t_soft: float = 0.25


@dataclass(frozen=True)
class MKIConfig:
    """Meta-knowledge integration (InfoNCE between series and metadata)."""

    enabled: bool = True
    #: weight of L_MKI in the total loss (paper: lambda)
    weight: float = 0.78
    #: dimensionality of the shared projection space (paper: H, from {64, 256})
    projection_dim: int = 64
    #: hidden width of the projection MLPs h_T and h_K
    projection_hidden: int = 256
    #: temperature of the InfoNCE loss (paper: 0.1)
    temperature: float = 0.1
    #: dimensionality of the frozen text encoder output
    text_dim: int = 768


@dataclass(frozen=True)
class PruningConfig:
    """Pruning-based acceleration (PA) and the InfoBatch baseline."""

    #: "none", "infobatch" or "pa"
    method: str = "pa"
    #: probability of pruning a prunable sample (paper: r = 0.8)
    ratio: float = 0.8
    #: number of SimHash bits used to bucket similar samples (paper: 14)
    lsh_bits: int = 14
    #: number of equi-depth loss bins (paper: p = 8)
    n_bins: int = 8
    #: fraction of final epochs trained on the full data (InfoBatch's delta)
    full_data_last_fraction: float = 0.125

    def __post_init__(self) -> None:
        if self.method not in ("none", "infobatch", "pa"):
            raise ValueError("pruning method must be 'none', 'infobatch' or 'pa'")
        if not 0.0 <= self.ratio < 1.0:
            raise ValueError("pruning ratio must be in [0, 1)")
        if not 1 <= self.lsh_bits <= 63:
            raise ValueError("lsh_bits must be between 1 and 63")


@dataclass(frozen=True)
class TrainerConfig:
    """Full configuration of :class:`repro.core.trainer.SelectorTrainer`."""

    epochs: int = 10
    batch_size: int = 64
    lr: float = 1e-3
    weight_decay: float = 1e-4
    grad_clip: float = 5.0
    seed: int = 0
    verbose: bool = False

    pisl: PISLConfig = field(default_factory=lambda: PISLConfig(enabled=False))
    mki: MKIConfig = field(default_factory=lambda: MKIConfig(enabled=False))
    pruning: PruningConfig = field(default_factory=lambda: PruningConfig(method="none"))

    def __post_init__(self) -> None:
        check_training_fields(self, "epochs", "batch_size")

    def replace(self, **overrides) -> "TrainerConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **overrides)


def kdselector_config(
    epochs: int = 10,
    batch_size: int = 64,
    lr: float = 1e-3,
    alpha: float = 0.4,
    t_soft: float = 0.25,
    mki_weight: float = 0.78,
    projection_dim: int = 64,
    pruning: str = "pa",
    pruning_ratio: float = 0.8,
    lsh_bits: int = 14,
    n_bins: int = 8,
    seed: int = 0,
    **overrides,
) -> TrainerConfig:
    """The full KDSelector configuration (PISL + MKI + PA) with paper defaults."""
    return TrainerConfig(
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        seed=seed,
        pisl=PISLConfig(enabled=True, alpha=alpha, t_soft=t_soft),
        mki=MKIConfig(enabled=True, weight=mki_weight, projection_dim=projection_dim),
        pruning=PruningConfig(method=pruning, ratio=pruning_ratio, lsh_bits=lsh_bits, n_bins=n_bins),
        **overrides,
    )
