"""Tests for the KDSelector trainer (repro.core.trainer)."""

import numpy as np
import pytest

from repro.core import (
    MKIConfig,
    PISLConfig,
    PruningConfig,
    SelectorTrainer,
    TrainerConfig,
    TrainingReport,
    kdselector_config,
)
from repro.selectors import make_selector


def _mlp(dataset, seed=0, **kwargs):
    return make_selector(
        "MLP",
        window=dataset.windows.shape[1],
        n_classes=dataset.n_classes,
        hidden=kwargs.pop("hidden", 32),
        feature_dim=kwargs.pop("feature_dim", 16),
        seed=seed,
    )


class TestTrainerBasics:
    def test_rejects_non_nn_selector(self):
        with pytest.raises(TypeError):
            SelectorTrainer(make_selector("KNN"), TrainerConfig())

    def test_standard_training_produces_report(self, small_selector_dataset):
        selector = _mlp(small_selector_dataset)
        trainer = SelectorTrainer(selector, TrainerConfig(epochs=2, batch_size=16))
        report = trainer.fit(small_selector_dataset)
        assert isinstance(report, TrainingReport)
        assert len(report.epoch_losses) == 2
        assert report.total_time > 0
        assert report.n_samples == len(small_selector_dataset)
        assert report.epoch_samples_used == [len(small_selector_dataset)] * 2

    def test_report_summary_keys(self, small_selector_dataset):
        selector = _mlp(small_selector_dataset)
        report = SelectorTrainer(selector, TrainerConfig(epochs=1)).fit(small_selector_dataset)
        summary = report.summary()
        assert {"epochs", "final_loss", "total_time_s", "pruned_fraction", "pisl", "mki", "pruning"} <= set(summary)

    def test_training_is_deterministic_given_seed(self, small_selector_dataset):
        a = _mlp(small_selector_dataset, seed=4)
        b = _mlp(small_selector_dataset, seed=4)
        SelectorTrainer(a, TrainerConfig(epochs=1, seed=4)).fit(small_selector_dataset)
        SelectorTrainer(b, TrainerConfig(epochs=1, seed=4)).fit(small_selector_dataset)
        pa = a.predict_proba(small_selector_dataset.windows[:5])
        pb = b.predict_proba(small_selector_dataset.windows[:5])
        assert np.allclose(pa, pb)

    def test_fit_only_trains(self, small_selector_dataset, monkeypatch):
        """One static prefix per fit, one learnable forward per trained
        minibatch and no inference pass: pruning shortens everything a fit
        does."""
        selector = _mlp(small_selector_dataset)
        static_input, forward_static = selector.static_input, selector.forward_static
        prefixes, calls = [], []

        def counting_static_input(windows):
            prefixes.append(len(windows))
            return static_input(windows)

        def counting_forward_static(rows):
            calls.append(len(rows))
            return forward_static(rows)

        def no_inference(windows):
            raise AssertionError("a fit must not run predict_proba")

        monkeypatch.setattr(selector, "static_input", counting_static_input)
        monkeypatch.setattr(selector, "forward_static", counting_forward_static)
        monkeypatch.setattr(selector, "predict_proba", no_inference)
        config = kdselector_config(epochs=4, batch_size=16, projection_dim=8, lsh_bits=6)
        report = SelectorTrainer(selector, config).fit(small_selector_dataset)

        assert prefixes == [len(small_selector_dataset)]
        assert report.epoch_samples_used[1] < len(small_selector_dataset)
        batches = [-(-used // 16) for used in report.epoch_samples_used]
        assert len(calls) == sum(batches)
        assert sum(calls) == report.total_samples_processed

    def test_verbose_prints_progress(self, small_selector_dataset, capsys):
        selector = _mlp(small_selector_dataset)
        SelectorTrainer(selector, TrainerConfig(epochs=1, verbose=True)).fit(small_selector_dataset)
        assert "epoch 1/1" in capsys.readouterr().out


class TestKnowledgeModules:
    def test_pisl_only(self, small_selector_dataset):
        selector = _mlp(small_selector_dataset)
        config = TrainerConfig(epochs=1, pisl=PISLConfig(enabled=True, alpha=0.4, t_soft=0.25))
        report = SelectorTrainer(selector, config).fit(small_selector_dataset)
        assert report.config_summary["pisl"] is True
        assert report.config_summary["mki"] is False

    def test_mki_only(self, small_selector_dataset):
        selector = _mlp(small_selector_dataset)
        config = TrainerConfig(
            epochs=1,
            mki=MKIConfig(enabled=True, projection_dim=8, projection_hidden=16, text_dim=128),
        )
        trainer = SelectorTrainer(selector, config)
        report = trainer.fit(small_selector_dataset)
        assert report.config_summary["mki"] is True
        assert trainer.mki is not None
        # MKI adds the InfoNCE term, so the loss should exceed plain CE scale.
        assert report.epoch_losses[0] > 0

    def test_full_kdselector_runs(self, small_selector_dataset):
        selector = _mlp(small_selector_dataset)
        config = kdselector_config(epochs=3, batch_size=16, projection_dim=8)
        report = SelectorTrainer(selector, config).fit(small_selector_dataset)
        assert report.config_summary == {"pisl": True, "mki": True, "pruning": "pa"}
        assert len(report.epoch_losses) == 3

    def test_custom_text_encoder_is_used(self, small_selector_dataset):
        from repro.text import HashingTextEncoder

        selector = _mlp(small_selector_dataset)
        encoder = HashingTextEncoder(dim=32)
        config = TrainerConfig(epochs=1, mki=MKIConfig(enabled=True, projection_dim=8,
                                                       projection_hidden=16, text_dim=32))
        trainer = SelectorTrainer(selector, config, text_encoder=encoder)
        trainer.fit(small_selector_dataset)
        assert trainer.mki.text_encoder is encoder


class TestPruningIntegration:
    def test_infobatch_reduces_samples_after_first_epoch(self, small_selector_dataset):
        selector = _mlp(small_selector_dataset)
        config = TrainerConfig(
            epochs=3, batch_size=16,
            pruning=PruningConfig(method="infobatch", ratio=0.8, full_data_last_fraction=0.0),
        )
        report = SelectorTrainer(selector, config).fit(small_selector_dataset)
        assert report.epoch_samples_used[0] == len(small_selector_dataset)
        assert report.epoch_samples_used[1] < len(small_selector_dataset)
        assert report.pruned_fraction > 0

    def test_pa_reduces_samples_at_least_as_much_as_infobatch(self, selector_dataset):
        def run(method):
            selector = _mlp(selector_dataset, seed=1)
            config = TrainerConfig(
                epochs=3, batch_size=32, seed=1,
                pruning=PruningConfig(method=method, ratio=0.8, lsh_bits=8, n_bins=4,
                                      full_data_last_fraction=0.0),
            )
            return SelectorTrainer(selector, config).fit(selector_dataset)

        report_ib = run("infobatch")
        report_pa = run("pa")
        assert report_pa.total_samples_processed <= report_ib.total_samples_processed

    def test_pruned_training_still_learns(self, small_selector_dataset):
        selector = _mlp(small_selector_dataset, hidden=64, feature_dim=32)
        config = TrainerConfig(
            epochs=6, batch_size=16, lr=3e-3,
            pruning=PruningConfig(method="pa", ratio=0.5, lsh_bits=8, n_bins=4),
        )
        report = SelectorTrainer(selector, config).fit(small_selector_dataset)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_trainer_exposes_pruner_state(self, small_selector_dataset):
        selector = _mlp(small_selector_dataset)
        config = TrainerConfig(epochs=2, pruning=PruningConfig(method="infobatch", ratio=0.5))
        report = SelectorTrainer(selector, config).fit(small_selector_dataset)
        assert len(report.epoch_samples_used) == 2
        assert report.epoch_samples_used[0] == len(small_selector_dataset)
