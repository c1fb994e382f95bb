"""Loss functions for selector learning.

The KDSelector objective combines (Sect. 3 of the paper):

* hard-label cross entropy ``L_CE`` (the standard selector loss),
* soft-label cross entropy ``L_PISL`` against the performance-derived
  distribution,
* ``L_InfoNCE`` between projected time-series and metadata features (MKI).

All losses support ``reduction='none'`` so that the pruning-based
acceleration module can track per-sample losses across epochs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .tensor import Tensor


def _reduce(per_sample: Tensor, reduction: str) -> Tensor:
    if reduction == "none":
        return per_sample
    if reduction == "mean":
        return per_sample.mean()
    if reduction == "sum":
        return per_sample.sum()
    raise ValueError(f"unknown reduction {reduction!r}")


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    reduction: str = "mean",
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Cross entropy between logits (N, C) and integer targets (N,).

    ``weights`` are optional per-sample multipliers, used by the pruning
    modules for gradient rescaling (multiplying a sample's loss by ``w`` is
    equivalent to multiplying its gradient contribution by ``w``).
    """
    targets = np.asarray(targets, dtype=int)
    log_probs = F.log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(len(targets)), targets]
    per_sample = -picked
    if weights is not None:
        per_sample = per_sample * Tensor(np.asarray(weights, dtype=np.float64))
    return _reduce(per_sample, reduction)


def soft_cross_entropy(
    logits: Tensor,
    soft_targets: np.ndarray,
    reduction: str = "mean",
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Cross entropy against a soft target distribution (PISL loss).

    ``soft_targets`` is an (N, C) row-stochastic matrix (the paper's
    ``p_i``); the loss is ``-sum_j p_ij log phat_ij`` per sample.
    """
    soft = np.asarray(soft_targets, dtype=np.float64)
    log_probs = F.log_softmax(logits, axis=-1)
    per_sample = -(log_probs * Tensor(soft)).sum(axis=-1)
    if weights is not None:
        per_sample = per_sample * Tensor(np.asarray(weights, dtype=np.float64))
    return _reduce(per_sample, reduction)


def mse_loss(pred: Tensor, target: np.ndarray, reduction: str = "mean") -> Tensor:
    """Mean squared error; used by the reconstruction-style detectors."""
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    per_element = diff * diff
    return _reduce(per_element, reduction)


def info_nce(
    z_a: Tensor,
    z_b: Tensor,
    temperature: float = 0.1,
    reduction: str = "mean",
    weights: Optional[np.ndarray] = None,
) -> Tensor:
    """Symmetric InfoNCE loss between two batches of paired embeddings.

    Row ``i`` of ``z_a`` and row ``i`` of ``z_b`` are a positive pair; every
    other row in the batch is a negative.  Minimising this loss maximises a
    lower bound on the mutual information between the two views, which is
    exactly how the MKI module injects metadata knowledge into the selector.
    """
    if z_a.shape != z_b.shape:
        raise ValueError(f"paired embeddings must share a shape, got {z_a.shape} vs {z_b.shape}")
    n = z_a.shape[0]
    sim = F.cosine_similarity_matrix(z_a, z_b) * (1.0 / temperature)
    labels = np.arange(n)
    loss_ab = cross_entropy(sim, labels, reduction="none", weights=weights)
    loss_ba = cross_entropy(sim.transpose(), labels, reduction="none", weights=weights)
    per_sample = (loss_ab + loss_ba) * 0.5
    return _reduce(per_sample, reduction)

