"""Empirical check of the PA redundancy theory (Sect. A.1).

The paper argues that samples that are similar in value and in loss
contribute nearly identical gradients, which justifies pruning redundant
bucket members.  :func:`gradient_redundancy` measures exactly that on a
trained selector: the average gradient distance between samples that PA
would place in the same bucket versus random sample pairs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import nn
from ..data.windows import SelectorDataset
from .config import PruningConfig
from .lsh import SimHashLSH, bucket_indices


def _per_sample_gradient(selector, window: np.ndarray, label: int) -> np.ndarray:
    """Flattened gradient of the CE loss of one sample w.r.t. all parameters."""
    for p in selector.parameters():
        p.grad = None
    logits, _ = selector.forward(window[None, :])
    loss = nn.cross_entropy(logits, np.array([label]))
    loss.backward()
    pieces = []
    for p in selector.parameters():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        pieces.append(grad.ravel())
    return np.concatenate(pieces)


def gradient_redundancy(
    selector,
    dataset: SelectorDataset,
    losses: np.ndarray,
    config: Optional[PruningConfig] = None,
    max_pairs: int = 20,
    seed: int = 0,
) -> Dict[str, float]:
    """Compare gradient distances of PA-bucket pairs against random pairs.

    Returns the mean relative gradient distance ``||g_i - g_j|| / mean||g||``
    for (a) pairs of samples that fall into the same PA bucket (same LSH
    signature, same loss bin, above-average loss) and (b) random pairs.  The
    Sect. A.1 analysis predicts (a) < (b).
    """
    config = config or PruningConfig(method="pa", ratio=0.8, lsh_bits=8, n_bins=8)
    losses = np.asarray(losses, dtype=np.float64)
    if len(losses) != len(dataset):
        raise ValueError("losses must align with the dataset")
    rng = np.random.default_rng(seed)

    signatures = SimHashLSH(n_bits=config.lsh_bits, seed=seed).fit_signatures(dataset.windows)
    above = np.flatnonzero(losses >= losses.mean())
    buckets = bucket_indices(signatures, losses, above, config.n_bins)

    bucket_pairs: List[Tuple[int, int]] = []
    for bucket in buckets:
        for i in range(len(bucket) - 1):
            bucket_pairs.append((int(bucket[i]), int(bucket[i + 1])))
    rng.shuffle(bucket_pairs)
    bucket_pairs = bucket_pairs[:max_pairs]

    n = len(dataset)
    random_pairs = [(int(a), int(b)) for a, b in rng.integers(0, n, size=(max_pairs, 2)) if a != b]

    def mean_distance(pairs: List[Tuple[int, int]]) -> float:
        if not pairs:
            return float("nan")
        distances = []
        norms = []
        for i, j in pairs:
            gi = _per_sample_gradient(selector, dataset.windows[i], dataset.hard_labels[i])
            gj = _per_sample_gradient(selector, dataset.windows[j], dataset.hard_labels[j])
            distances.append(np.linalg.norm(gi - gj))
            norms.append(0.5 * (np.linalg.norm(gi) + np.linalg.norm(gj)))
        return float(np.mean(np.asarray(distances) / np.maximum(np.asarray(norms), 1e-12)))

    return {
        "bucket_pair_distance": mean_distance(bucket_pairs),
        "random_pair_distance": mean_distance(random_pairs),
        "n_bucket_pairs": float(len(bucket_pairs)),
        "n_random_pairs": float(len(random_pairs)),
    }
