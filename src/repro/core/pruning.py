"""Dynamic training-data pruning: InfoBatch and the proposed PA.

Both pruners follow the same protocol inside the training loop:

1. ``setup(sample_features)`` is called once before training (PA fits its
   LSH tables here — sample values are invariant during training).
2. At each epoch, ``select(epoch)`` returns the indices of the samples to
   iterate over and a per-sample gradient-rescaling weight; the trainer
   multiplies each sample's loss by its weight.
3. After the epoch, ``update(indices, losses)`` records the per-sample
   losses so the running average loss stays current.

InfoBatch (Qin et al., ICLR'24) prunes only *well-learned* samples (average
loss below the mean).  PA additionally prunes *redundant hard* samples:
those with above-mean loss that are similar both in value (same LSH table)
and in loss (same equi-depth bin) — per the paper's analysis (Sect. A.1)
such samples contribute nearly identical gradients, so dropping a random
fraction of each bucket and rescaling the rest preserves the expected
objective (Sect. A.2).  :class:`PAPruner` therefore inherits InfoBatch's
selection and overrides only what it keeps of the above-mean samples.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from .config import PruningConfig
from .lsh import SimHashLSH, bucket_indices


class SamplePruner(ABC):
    """Base class of the per-epoch sample selection strategies."""

    def __init__(self, n_samples: int, config: PruningConfig, total_epochs: int, seed: int = 0) -> None:
        self.n_samples = n_samples
        self.config = config
        self.total_epochs = total_epochs
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._loss_sum = np.zeros(n_samples)
        self._loss_count = np.zeros(n_samples)

    # ------------------------------------------------------------------ #
    def setup(self, sample_features: Optional[np.ndarray]) -> None:
        """Hook called once before training starts."""

    @abstractmethod
    def select(self, epoch: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return (indices, weights) of the samples used in this epoch."""

    def update(self, indices: np.ndarray, losses: np.ndarray) -> None:
        """Record the losses observed for ``indices`` during this epoch."""
        indices = np.asarray(indices, dtype=int)
        losses = np.asarray(losses, dtype=np.float64)
        self._loss_sum[indices] += losses
        self._loss_count[indices] += 1.0

    # ------------------------------------------------------------------ #
    @property
    def average_losses(self) -> np.ndarray:
        """Per-sample average loss over the epochs seen so far (paper's L̄_i)."""
        counts = np.maximum(self._loss_count, 1.0)
        return self._loss_sum / counts

    @property
    def has_history(self) -> bool:
        return bool(self._loss_count.sum() > 0)

    def _in_full_data_phase(self, epoch: int) -> bool:
        """InfoBatch trains on the full data for the last few epochs."""
        start_full = int(np.ceil(self.total_epochs * (1.0 - self.config.full_data_last_fraction)))
        return epoch >= start_full


class NoPruning(SamplePruner):
    """Standard training: every sample, every epoch, unit weights."""

    def select(self, epoch: int) -> Tuple[np.ndarray, np.ndarray]:
        del epoch
        return np.arange(self.n_samples), np.ones(self.n_samples)


class InfoBatchPruner(SamplePruner):
    """InfoBatch: prune well-learned samples, rescale the survivors."""

    def select(self, epoch: int) -> Tuple[np.ndarray, np.ndarray]:
        if not self.has_history or self._in_full_data_phase(epoch):
            return np.arange(self.n_samples), np.ones(self.n_samples)

        avg = self.average_losses
        mean_loss = avg.mean()
        ratio = self.config.ratio
        below = np.flatnonzero(avg < mean_loss)
        above = np.flatnonzero(avg >= mean_loss)

        keep_mask = self._rng.random(len(below)) >= ratio
        kept_below = below[keep_mask]
        kept_above, above_weights = self._keep_above_mean(above)

        indices = np.concatenate([kept_below, kept_above])
        weights = np.concatenate([np.full(len(kept_below), 1.0 / (1.0 - ratio)), above_weights])
        order = np.argsort(indices)
        return indices[order], weights[order]

    def _keep_above_mean(self, above: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(indices, weights) kept among the hard samples: InfoBatch keeps all."""
        return above, np.ones(len(above))


class PAPruner(InfoBatchPruner):
    """Pruning-based Acceleration: InfoBatch plus bucketed pruning of redundant hard samples."""

    def __init__(self, n_samples: int, config: PruningConfig, total_epochs: int, seed: int = 0) -> None:
        super().__init__(n_samples, config, total_epochs, seed)
        self._lsh = SimHashLSH(n_bits=config.lsh_bits, seed=seed)
        self._signatures: Optional[np.ndarray] = None

    def setup(self, sample_features: Optional[np.ndarray]) -> None:
        """Hash all samples once before training (their values never change)."""
        if sample_features is None:
            raise ValueError("PAPruner requires sample features for LSH bucketing")
        self._signatures = self._lsh.fit_signatures(np.asarray(sample_features, dtype=np.float64))

    def select(self, epoch: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._signatures is None:
            raise RuntimeError("PAPruner.setup() must be called before select()")
        return super().select(epoch)

    def _keep_above_mean(self, above: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Prune hard samples only inside buckets of mutually similar samples."""
        buckets = bucket_indices(self._signatures, self.average_losses, above, self.config.n_bins)
        bucketed = np.concatenate(buckets) if buckets else np.asarray([], dtype=int)
        unbucketed = np.setdiff1d(above, bucketed, assume_unique=False)
        kept_indices = [unbucketed]
        kept_weights = [np.ones(len(unbucketed))]

        for bucket in buckets:
            bucket_keep = self._rng.random(len(bucket)) >= self.config.ratio
            if not bucket_keep.any():
                # Never drop a whole bucket: keep one member to represent it.
                bucket_keep[self._rng.integers(0, len(bucket))] = True
            survivors = bucket[bucket_keep]
            kept_indices.append(survivors)
            kept_weights.append(np.full(len(survivors), len(bucket) / len(survivors)))

        return np.concatenate(kept_indices), np.concatenate(kept_weights)


def make_pruner(
    n_samples: int,
    config: PruningConfig,
    total_epochs: int,
    seed: int = 0,
) -> SamplePruner:
    """Factory mapping the configured method name to a pruner instance."""
    if config.method == "none":
        return NoPruning(n_samples, config, total_epochs, seed)
    if config.method == "infobatch":
        return InfoBatchPruner(n_samples, config, total_epochs, seed)
    if config.method == "pa":
        return PAPruner(n_samples, config, total_epochs, seed)
    raise ValueError(f"unknown pruning method {config.method!r}")
