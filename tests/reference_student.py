"""The per-minibatch student path the trainer's static prefix replaced.

Before the seam, :class:`repro.core.trainer.SelectorTrainer` called
``selector.forward(train_set.windows[batch_idx])`` for every minibatch, and
the student's :class:`~repro.selectors.student.StaticFeatureEncoder`
featurised that minibatch in its forward, bypassing the transform cache in
train mode.  ``ReferenceTrainer.fit``, ``ReferenceEncoder.transform`` /
``calibrate`` / ``forward`` and ``ReferenceStudentSelector.forward`` are
those methods as they were; a student built from this module trains and
predicts the old way, so its bytes can be compared with one the library
distils today.
"""

from __future__ import annotations

import time

import numpy as np

from repro import nn
from repro.core.trainer import SelectorTrainer, TrainingReport
from repro.core.pruning import make_pruner
from repro.core.mki import MKIModule
from repro.data.windows import SelectorDataset
from repro.selectors.features import extract_features
from repro.selectors.student import StaticFeatureEncoder, StudentSelector


class ReferenceTrainer(SelectorTrainer):
    """The training loop with one full forward per minibatch."""

    def fit(self, train_set: SelectorDataset) -> TrainingReport:
        """Run the configured training loop and return the training report.

        Each minibatch the pruner keeps costs one forward, one backward and
        one optimizer step; nothing else runs per epoch.  The per-sample
        losses of that forward are what the pruner averages.
        """
        config = self.config
        rng = np.random.default_rng(config.seed)

        window_length = train_set.windows.shape[1]
        self.selector.build(window=window_length, n_classes=train_set.n_classes)
        self.selector.train_mode(True)

        # ---------------- knowledge preparation ---------------- #
        soft_labels = self.pisl.soft_labels(train_set.performances) if config.pisl.enabled else None

        text_embeddings = None
        if config.mki.enabled:
            self.mki = MKIModule(self.selector.feature_dim, config.mki, text_encoder=self._text_encoder)
            text_embeddings = self.mki.encode_texts(train_set.metadata_texts)

        # ---------------- pruning preparation ---------------- #
        pruner = make_pruner(len(train_set), config.pruning, config.epochs, seed=config.seed)
        sample_features = train_set.windows
        if text_embeddings is not None:
            # With MKI the training sample is X_i = {T_i, z_K_i} (paper, Sect. 3).
            sample_features = np.concatenate([train_set.windows, text_embeddings], axis=1)
        pruner.setup(sample_features)

        # ---------------- optimizer ---------------- #
        parameters = self.selector.parameters()
        if self.mki is not None:
            parameters = parameters + self.mki.trainable_parameters()
        optimizer = nn.Adam(parameters, lr=config.lr, weight_decay=config.weight_decay)

        report = TrainingReport(
            n_samples=len(train_set),
            config_summary={
                "pisl": config.pisl.enabled,
                "mki": config.mki.enabled,
                "pruning": config.pruning.method,
            },
        )

        start_total = time.perf_counter()
        for epoch in range(config.epochs):
            indices, weights = pruner.select(epoch)
            order = rng.permutation(len(indices))
            indices, weights = indices[order], weights[order]

            epoch_loss = 0.0
            epoch_count = 0
            observed_losses = np.zeros(len(indices))

            for start in range(0, len(indices), config.batch_size):
                batch_idx = indices[start:start + config.batch_size]
                batch_weights = weights[start:start + config.batch_size]

                logits, features = self.selector.forward(train_set.windows[batch_idx])
                per_sample = self.pisl(
                    logits,
                    train_set.hard_labels[batch_idx],
                    soft_labels[batch_idx] if soft_labels is not None else None,
                )
                if self.mki is not None:
                    mki_loss = self.mki.loss(features, text_embeddings[batch_idx])
                    per_sample = per_sample + mki_loss * config.mki.weight

                # Gradient rescaling: weighting the per-sample loss is equivalent
                # to multiplying the corresponding gradients (Sect. 3, PA).
                weighted = per_sample * nn.Tensor(batch_weights)
                loss = weighted.sum() * (1.0 / len(batch_idx))

                optimizer.zero_grad()
                loss.backward()
                optimizer.clip_grad_norm(config.grad_clip)
                optimizer.step()

                observed_losses[start:start + len(batch_idx)] = per_sample.numpy()
                epoch_loss += float(per_sample.numpy().sum())
                epoch_count += len(batch_idx)

            pruner.update(indices, observed_losses)

            report.epoch_losses.append(epoch_loss / max(epoch_count, 1))
            report.epoch_samples_used.append(int(epoch_count))

            if config.verbose:
                print(
                    f"epoch {epoch + 1}/{config.epochs}: loss={report.epoch_losses[-1]:.4f} "
                    f"samples={epoch_count}/{len(train_set)}"
                )

        report.total_time = time.perf_counter() - start_total
        self.selector.train_mode(False)
        return report


class ReferenceEncoder(StaticFeatureEncoder):
    """Features computed inside the forward, per minibatch."""

    def transform(self, windows: np.ndarray) -> np.ndarray:
        """Raw static features of a 2-D windows matrix (cached at inference).

        During training every minibatch is a distinct submatrix, so the
        content-addressed cache would only churn; it is bypassed whenever
        the module is in train mode.
        """
        x = np.asarray(windows, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected a (n, window) matrix, got shape {x.shape}")
        use_cache = not self.training
        parts = []
        if self.features in ("stats", "both"):
            parts.append(self._cached(x, "stats_features", extract_features) if use_cache
                         else extract_features(x))
        if self.features in ("rocket", "both"):
            rocket = self._rocket()
            rocket_id = f"rocket:{self.seed}:{self.n_kernels}:{self.window}"
            parts.append(self._cached(x, rocket_id, rocket.transform) if use_cache
                         else rocket.transform(x))
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def calibrate(self, windows: np.ndarray) -> "StaticFeatureEncoder":
        """Fit the normalisation buffers on (training/calibration) windows."""
        feats = self.transform(np.asarray(windows, dtype=np.float64))
        mean = feats.mean(axis=0)
        scale = np.maximum(feats.std(axis=0), 1e-8)
        self.update_buffer("feat_mean", mean.astype(np.float64))
        self.update_buffer("feat_scale", scale.astype(np.float64))
        return self

    def forward(self, x) -> nn.Tensor:
        data = x.data if isinstance(x, nn.Tensor) else np.asarray(x, dtype=np.float64)
        if data.ndim == 3:  # (N, 1, L) from NNSelector._to_input
            data = data[:, 0, :]
        # normalising allocates a fresh array, so read-only cached transform
        # outputs are never mutated
        feats = (self.transform(data) - self.feat_mean) / self.feat_scale
        return self.act(self.fc1(nn.Tensor(feats)))


class ReferenceStudentSelector(StudentSelector):
    """A student whose fit and forward take the per-minibatch path."""

    def _make_encoder(self) -> nn.Module:
        return ReferenceEncoder(
            window=self.window,
            hidden=self.arch_kwargs.get("hidden", 64),
            features=self.arch_kwargs.get("features", "stats"),
            n_kernels=self.arch_kwargs.get("n_kernels", 96),
            seed=self.seed,
        )

    def forward(self, windows: np.ndarray):
        """Return (logits, features) for a batch of windows."""
        self.build()
        features = self.encoder(self._to_input(windows))
        logits = self.classifier(features)
        return logits, features

    def fit(self, dataset: SelectorDataset, config=None) -> "ReferenceStudentSelector":
        self.last_report_ = ReferenceTrainer(self, config).fit(dataset)
        return self
