"""Locality-sensitive hashing used by the Pruning-based Acceleration module.

PA needs to find groups of training samples that are similar *to each
other* cheaply and only once (sample values never change during training),
so it hashes every sample with SimHash (random-hyperplane LSH, Charikar
2002): samples whose signed projections agree on all bits land in the same
hash table.  Within a table, cosine-similar samples collide with high
probability.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np


class SimHashLSH:
    """Random-hyperplane LSH producing ``n_bits``-bit signatures."""

    def __init__(self, n_bits: int = 14, seed: int = 0) -> None:
        if not 1 <= n_bits <= 63:
            raise ValueError("n_bits must be between 1 and 63")
        self.n_bits = n_bits
        self.seed = seed
        self._hyperplanes: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "SimHashLSH":
        """Draw the random hyperplanes for inputs with ``x.shape[1]`` features."""
        x = np.asarray(x, dtype=np.float64)
        rng = np.random.default_rng(self.seed)
        self._hyperplanes = rng.normal(0.0, 1.0, size=(x.shape[1], self.n_bits))
        return self

    def signatures(self, x: np.ndarray) -> np.ndarray:
        """Integer signature of every row of ``x``."""
        if self._hyperplanes is None:
            raise RuntimeError("SimHashLSH must be fitted before hashing")
        x = np.asarray(x, dtype=np.float64)
        bits = (x @ self._hyperplanes) >= 0.0
        powers = 1 << np.arange(self.n_bits, dtype=np.int64)
        return (bits.astype(np.int64) @ powers).astype(np.int64)

    def fit_signatures(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).signatures(x)


def bucket_indices(
    signatures: np.ndarray,
    losses: np.ndarray,
    indices: np.ndarray,
    n_bins: int,
) -> List[np.ndarray]:
    """Split ``indices`` into PA buckets.

    A bucket is the intersection of one LSH hash table (samples similar in
    value) and one equi-depth bin of the current average loss (samples
    similar in loss).  Only buckets with more than one member are returned,
    because singleton buckets have nothing redundant to prune.
    """
    indices = np.asarray(indices, dtype=int)
    if len(indices) == 0:
        return []
    losses = np.asarray(losses, dtype=np.float64)
    local_losses = losses[indices]

    # Equi-depth loss bins over the candidate samples.
    n_bins = max(1, min(n_bins, len(indices)))
    quantiles = np.quantile(local_losses, np.linspace(0.0, 1.0, n_bins + 1)[1:-1]) if n_bins > 1 else []
    bin_ids = np.searchsorted(quantiles, local_losses, side="right")

    local_sigs = np.asarray(signatures)[indices]
    buckets: Dict[tuple, List[int]] = {}
    for position, index in enumerate(indices):
        key = (int(local_sigs[position]), int(bin_ids[position]))
        buckets.setdefault(key, []).append(int(index))
    return [np.asarray(members, dtype=int) for members in buckets.values() if len(members) > 1]
