"""Tests for the PA gradient-redundancy analysis."""

import numpy as np
import pytest

from repro.core import PruningConfig, TrainerConfig, gradient_redundancy
from repro.selectors import make_selector


def _fit_mlp(dataset, epochs=2, **kwargs):
    selector = make_selector("MLP", window=dataset.windows.shape[1],
                             n_classes=dataset.n_classes, hidden=32, feature_dim=16, seed=0)
    selector.fit(dataset, config=TrainerConfig(epochs=epochs, batch_size=32, seed=0, **kwargs))
    return selector


class TestGradientRedundancy:
    def test_bucket_pairs_have_more_similar_gradients(self, small_selector_dataset):
        """Empirical check of the Sect. A.1 argument on a trained selector."""
        selector = _fit_mlp(small_selector_dataset, epochs=2)
        # Use the per-sample losses of a forward pass as the loss signal and
        # make near-duplicate windows so that buckets are non-empty.
        dataset = small_selector_dataset
        losses = np.linspace(1.0, 2.0, len(dataset))
        result = gradient_redundancy(
            selector, dataset, losses,
            config=PruningConfig(method="pa", ratio=0.8, lsh_bits=4, n_bins=2),
            max_pairs=8, seed=0,
        )
        assert result["n_random_pairs"] > 0
        assert np.isfinite(result["random_pair_distance"])
        if result["n_bucket_pairs"] > 0:
            # Bucketed (similar) samples should not have wildly more different
            # gradients than random pairs; typically they are closer.
            assert result["bucket_pair_distance"] <= result["random_pair_distance"] * 1.5

    def test_mismatched_losses_raise(self, small_selector_dataset):
        selector = _fit_mlp(small_selector_dataset, epochs=1)
        with pytest.raises(ValueError):
            gradient_redundancy(selector, small_selector_dataset, np.zeros(3))

