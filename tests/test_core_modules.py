"""Tests for the KDSelector core modules: configs, PISL, MKI, LSH, pruning."""

import numpy as np
import pytest

from repro import nn
from repro.core import (
    InfoBatchPruner,
    MKIConfig,
    MKIModule,
    NoPruning,
    PAPruner,
    PISLConfig,
    PISLLoss,
    ProjectionHead,
    PruningConfig,
    SimHashLSH,
    TrainerConfig,
    bucket_indices,
    kdselector_config,
    make_pruner,
    performance_to_soft_labels,
)
from repro.text import HashingTextEncoder


class TestConfigs:
    def test_standard_config_disables_everything(self):
        config = TrainerConfig()
        assert not config.pisl.enabled
        assert not config.mki.enabled
        assert config.pruning.method == "none"

    def test_kdselector_config_enables_everything(self):
        config = kdselector_config()
        assert config.pisl.enabled and config.mki.enabled
        assert config.pruning.method == "pa"

    def test_replace_returns_modified_copy(self):
        config = TrainerConfig(epochs=3)
        other = config.replace(epochs=7)
        assert config.epochs == 3 and other.epochs == 7

    def test_invalid_pruning_method_raises(self):
        with pytest.raises(ValueError):
            PruningConfig(method="bogus")

    def test_invalid_pruning_ratio_raises(self):
        with pytest.raises(ValueError):
            PruningConfig(ratio=1.0)

    @pytest.mark.parametrize("bits", [0, -1, 64])
    def test_lsh_bits_outside_1_to_63_raise(self, bits):
        with pytest.raises(ValueError, match="^lsh_bits must be between 1 and 63$"):
            PruningConfig(lsh_bits=bits)

    def test_kdselector_config_paper_defaults(self):
        config = kdselector_config()
        assert config.pruning.ratio == pytest.approx(0.8)
        assert config.pruning.lsh_bits == 14
        assert config.pruning.n_bins == 8
        assert config.mki.temperature == pytest.approx(0.1)


class TestPISL:
    def test_soft_labels_are_distributions(self):
        perf = np.random.default_rng(0).uniform(0, 1, size=(10, 12))
        soft = performance_to_soft_labels(perf, t_soft=0.25)
        assert soft.shape == perf.shape
        assert np.allclose(soft.sum(axis=1), 1.0)
        assert (soft > 0).all()

    def test_soft_label_argmax_matches_best_model(self):
        perf = np.random.default_rng(1).uniform(0, 1, size=(20, 6))
        soft = performance_to_soft_labels(perf, t_soft=0.2)
        assert np.array_equal(soft.argmax(axis=1), perf.argmax(axis=1))

    def test_lower_temperature_sharpens(self):
        perf = np.array([[0.2, 0.5, 0.4]])
        sharp = performance_to_soft_labels(perf, t_soft=0.05)
        smooth = performance_to_soft_labels(perf, t_soft=1.0)
        assert sharp.max() > smooth.max()

    def test_invalid_temperature_raises(self):
        with pytest.raises(ValueError):
            performance_to_soft_labels(np.zeros((2, 3)), t_soft=0.0)

    def test_1d_input_raises(self):
        with pytest.raises(ValueError):
            performance_to_soft_labels(np.zeros(3))

    def test_pisl_loss_alpha_zero_equals_hard_ce(self):
        rng = np.random.default_rng(2)
        logits = nn.Tensor(rng.normal(size=(8, 5)))
        labels = rng.integers(0, 5, size=8)
        perf = rng.uniform(size=(8, 5))
        loss_pisl = PISLLoss(PISLConfig(enabled=True, alpha=0.0))
        loss_std = PISLLoss(PISLConfig(enabled=False))
        soft = loss_pisl.soft_labels(perf)
        a = loss_pisl(logits, labels, soft).numpy()
        b = loss_std(logits, labels, None).numpy()
        assert np.allclose(a, b)

    def test_pisl_loss_alpha_one_ignores_hard_labels(self):
        rng = np.random.default_rng(3)
        logits = nn.Tensor(rng.normal(size=(4, 3)))
        perf = rng.uniform(size=(4, 3))
        loss_fn = PISLLoss(PISLConfig(enabled=True, alpha=1.0))
        soft = loss_fn.soft_labels(perf)
        wrong_labels = np.zeros(4, dtype=int)
        right_labels = perf.argmax(axis=1)
        assert np.allclose(loss_fn(logits, wrong_labels, soft).numpy(),
                           loss_fn(logits, right_labels, soft).numpy())

    def test_pisl_loss_is_differentiable(self):
        rng = np.random.default_rng(4)
        logits = nn.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        perf = rng.uniform(size=(6, 4))
        loss_fn = PISLLoss(PISLConfig(enabled=True, alpha=0.5))
        loss_fn(logits, perf.argmax(axis=1), loss_fn.soft_labels(perf)).sum().backward()
        assert logits.grad is not None


class TestMKI:
    @pytest.fixture(scope="class")
    def module(self):
        config = MKIConfig(enabled=True, projection_dim=16, projection_hidden=32, text_dim=64)
        return MKIModule(feature_dim=24, config=config,
                         text_encoder=HashingTextEncoder(dim=64))

    def test_projection_head_shape(self):
        head = ProjectionHead(10, 4, hidden=8)
        out = head(nn.Tensor(np.zeros((3, 10))))
        assert out.shape == (3, 4)

    def test_encode_texts_shape_and_cache(self, module):
        texts = ["series from ECG", "series from SMD", "series from ECG"]
        out = module.encode_texts(texts)
        assert out.shape == (3, 64)
        assert np.allclose(out[0], out[2])
        assert len(module._embedding_cache) == 2

    def test_loss_is_positive_and_differentiable(self, module):
        rng = np.random.default_rng(5)
        features = nn.Tensor(rng.normal(size=(6, 24)), requires_grad=True)
        texts = [f"metadata number {i}" for i in range(6)]
        loss = module.loss(features, module.encode_texts(texts))
        assert loss.shape == (6,)
        loss.sum().backward()
        assert features.grad is not None
        assert all(p.grad is not None for p in module.trainable_parameters())

    def test_trainable_parameters_exclude_text_encoder(self, module):
        params = module.trainable_parameters()
        # Two MLPs with two layers each -> 8 parameter tensors.
        assert len(params) == 8

    def test_aligned_pairs_achieve_lower_loss_after_training(self):
        """Minimising L_MKI should pull matched series/text pairs together."""
        rng = np.random.default_rng(6)
        config = MKIConfig(enabled=True, projection_dim=8, projection_hidden=16, text_dim=32)
        module = MKIModule(feature_dim=8, config=config, text_encoder=HashingTextEncoder(dim=32))
        features_value = rng.normal(size=(16, 8))
        texts = [f"group {i % 4} metadata description" for i in range(16)]
        embeddings = module.encode_texts(texts)

        opt = nn.Adam(module.trainable_parameters(), lr=1e-2)
        initial = None
        final = None
        for step in range(30):
            loss = module.loss(nn.Tensor(features_value), embeddings).mean()
            if step == 0:
                initial = loss.item()
            opt.zero_grad()
            loss.backward()
            opt.step()
            final = loss.item()
        assert final < initial


class TestSimHashLSH:
    def test_signature_range(self):
        x = np.random.default_rng(0).normal(size=(50, 10))
        sigs = SimHashLSH(n_bits=8, seed=0).fit_signatures(x)
        assert sigs.shape == (50,)
        assert sigs.min() >= 0 and sigs.max() < 2 ** 8

    def test_identical_rows_same_signature(self):
        x = np.tile(np.random.default_rng(1).normal(size=(1, 16)), (5, 1))
        sigs = SimHashLSH(n_bits=12, seed=0).fit_signatures(x)
        assert len(np.unique(sigs)) == 1

    def test_similar_rows_collide_more_than_dissimilar(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=32)
        similar = base + 0.01 * rng.normal(size=(20, 32))
        dissimilar = rng.normal(size=(20, 32))
        lsh = SimHashLSH(n_bits=6, seed=0).fit(similar)
        sim_collisions = len(np.unique(lsh.signatures(similar)))
        dis_collisions = len(np.unique(lsh.signatures(dissimilar)))
        assert sim_collisions <= dis_collisions

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            SimHashLSH().signatures(np.zeros((2, 3)))

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            SimHashLSH(n_bits=0)

    def test_bucket_indices_only_multi_member_buckets(self):
        signatures = np.array([0, 0, 0, 1, 2, 2])
        losses = np.array([1.0, 1.01, 5.0, 1.0, 2.0, 2.0])
        buckets = bucket_indices(signatures, losses, np.arange(6), n_bins=2)
        for bucket in buckets:
            assert len(bucket) > 1
        # Samples 0 and 1 share a signature and a loss bin -> same bucket.
        assert any(set(bucket) >= {0, 1} for bucket in buckets)

    def test_bucket_indices_empty_input(self):
        assert bucket_indices(np.array([]), np.array([]), np.array([], dtype=int), 4) == []


class TestPruners:
    def _make(self, method, n=100, epochs=10, ratio=0.8, seed=0):
        config = PruningConfig(method=method, ratio=ratio, lsh_bits=6, n_bins=4)
        pruner = make_pruner(n, config, total_epochs=epochs, seed=seed)
        features = np.random.default_rng(seed).normal(size=(n, 16))
        if method != "none":
            pruner.setup(features)
        return pruner

    def test_factory_dispatch(self):
        assert isinstance(self._make("none"), NoPruning)
        assert isinstance(self._make("infobatch"), InfoBatchPruner)
        assert isinstance(self._make("pa"), PAPruner)

    def test_no_pruning_returns_everything(self):
        pruner = self._make("none")
        indices, weights = pruner.select(epoch=0)
        assert len(indices) == 100
        assert np.allclose(weights, 1.0)

    def test_first_epoch_uses_full_data(self):
        for method in ("infobatch", "pa"):
            pruner = self._make(method)
            indices, weights = pruner.select(epoch=0)
            assert len(indices) == 100
            assert np.allclose(weights, 1.0)

    def test_infobatch_prunes_low_loss_samples(self):
        pruner = self._make("infobatch", n=200, ratio=0.8)
        losses = np.concatenate([np.full(100, 0.1), np.full(100, 2.0)])
        pruner.update(np.arange(200), losses)
        indices, weights = pruner.select(epoch=1)
        # All high-loss samples are kept, most low-loss samples are pruned.
        assert np.isin(np.arange(100, 200), indices).all()
        kept_low = np.intersect1d(indices, np.arange(100))
        assert len(kept_low) < 60
        # Kept low-loss samples are rescaled by 1/(1-r) = 5.
        low_positions = np.isin(indices, kept_low)
        assert np.allclose(weights[low_positions], 5.0)

    def test_infobatch_full_data_in_last_epochs(self):
        pruner = self._make("infobatch", epochs=8)
        pruner.update(np.arange(100), np.random.default_rng(0).random(100))
        indices, _ = pruner.select(epoch=7)
        assert len(indices) == 100

    def test_pa_prunes_more_than_infobatch_with_redundant_samples(self):
        """PA's key property: redundant high-loss samples also get pruned."""
        rng = np.random.default_rng(3)
        n = 400
        # Make many nearly identical samples (redundant) with identical losses.
        base = rng.normal(size=16)
        features = np.vstack([
            base + 0.001 * rng.normal(size=(n // 2, 16)),   # redundant cluster
            rng.normal(size=(n // 2, 16)),                   # diverse samples
        ])
        losses = np.concatenate([np.full(n // 2, 3.0), rng.uniform(2.0, 4.0, size=n // 2)])

        config = PruningConfig(method="infobatch", ratio=0.8, lsh_bits=8, n_bins=4)
        infobatch = InfoBatchPruner(n, config, total_epochs=10, seed=0)
        infobatch.update(np.arange(n), losses)

        config_pa = PruningConfig(method="pa", ratio=0.8, lsh_bits=8, n_bins=4)
        pa = PAPruner(n, config_pa, total_epochs=10, seed=0)
        pa.setup(features)
        pa.update(np.arange(n), losses)

        kept_ib, _ = infobatch.select(epoch=1)
        kept_pa, _ = pa.select(epoch=1)
        assert len(kept_pa) < len(kept_ib)

    def test_pa_requires_setup(self):
        config = PruningConfig(method="pa")
        pruner = PAPruner(10, config, total_epochs=5, seed=0)
        with pytest.raises(RuntimeError):
            pruner.update(np.arange(10), np.random.default_rng(0).random(10))
            pruner.select(epoch=1)

    def test_pa_setup_requires_features(self):
        config = PruningConfig(method="pa")
        pruner = PAPruner(10, config, total_epochs=5, seed=0)
        with pytest.raises(ValueError):
            pruner.setup(None)

    def test_pruner_weights_unbiased_in_expectation(self):
        """Sum of weighted kept samples ~ total sample count (Sect. A.2)."""
        totals = []
        for seed in range(10):
            pruner = self._make("infobatch", n=300, ratio=0.5, seed=seed)
            losses = np.random.default_rng(seed).uniform(0, 1, size=300)
            pruner.update(np.arange(300), losses)
            _, weights = pruner.select(epoch=1)
            totals.append(weights.sum())
        assert np.mean(totals) == pytest.approx(300, rel=0.1)

    def test_average_losses_accumulate(self):
        pruner = self._make("infobatch")
        pruner.update(np.arange(100), np.full(100, 2.0))
        pruner.update(np.arange(50), np.full(50, 4.0))
        avg = pruner.average_losses
        assert avg[0] == pytest.approx(3.0)
        assert avg[99] == pytest.approx(2.0)

    def test_kept_fraction_history_tracks_epochs(self):
        """Everything is kept before any loss is seen; the next epoch prunes."""
        pruner = self._make("infobatch")
        first, _ = pruner.select(epoch=0)
        pruner.update(np.arange(100), np.random.default_rng(1).random(100))
        second, _ = pruner.select(epoch=1)
        assert np.array_equal(first, np.arange(100))
        assert len(second) < 100

    @pytest.mark.parametrize("seed,ratio,epoch", [(0, 0.8, 1), (5, 0.5, 3), (11, 0.3, 2)])
    def test_pa_without_collisions_selects_like_infobatch(self, seed, ratio, epoch):
        """With no two samples sharing a signature PA has no bucket to prune,
        so it keeps exactly InfoBatch's samples with InfoBatch's weights."""
        n, bits = 48, 16
        features = np.random.default_rng(seed).normal(size=(n, 32))
        signatures = SimHashLSH(n_bits=bits, seed=seed).fit_signatures(features)
        assert len(np.unique(signatures)) == n
        losses = np.random.default_rng(seed + 1).uniform(0, 2, size=n)

        infobatch = InfoBatchPruner(n, PruningConfig(method="infobatch", ratio=ratio), 10, seed=seed)
        pa = PAPruner(n, PruningConfig(method="pa", ratio=ratio, lsh_bits=bits, n_bins=2), 10, seed=seed)
        pa.setup(features)
        for pruner in (infobatch, pa):
            pruner.update(np.arange(n), losses)

        ib_indices, ib_weights = infobatch.select(epoch)
        pa_indices, pa_weights = pa.select(epoch)
        assert len(ib_indices) < n
        assert np.array_equal(pa_indices, ib_indices)
        assert np.array_equal(pa_weights, ib_weights)

    def test_unknown_method_factory_raises(self):
        config = PruningConfig(method="pa")
        object.__setattr__(config, "method", "bogus")
        with pytest.raises(ValueError):
            make_pruner(10, config, total_epochs=2)
