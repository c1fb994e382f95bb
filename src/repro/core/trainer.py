"""Selector trainer implementing the KDSelector learning framework.

:class:`SelectorTrainer` trains any NN-based selector (encoder ``E_T`` +
linear classifier ``C_T``) with the standard SGD framework and, depending
on the configuration, enables the three plug-and-play modules of the paper:

* **PISL** — mixes hard-label cross entropy with the soft-label cross
  entropy derived from the full detector performance vectors.
* **MKI** — adds ``lambda * InfoNCE(h_T(z_T), h_K(z_K))`` where ``z_K`` is
  the frozen embedding of the metadata text.
* **PA / InfoBatch** — dynamically prunes samples each epoch and rescales
  the gradients of the survivors.

All three are independent: any subset can be switched on, with any encoder
architecture, which is exactly the plug-and-play property the paper
demonstrates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..data.windows import SelectorDataset
from ..text import TextEncoder
from .config import TrainerConfig
from .mki import MKIModule
from .pisl import PISLLoss
from .pruning import make_pruner


@dataclass
class TrainingReport:
    """Per-epoch curves and totals produced by :meth:`SelectorTrainer.fit`."""

    epoch_losses: List[float] = field(default_factory=list)
    epoch_samples_used: List[int] = field(default_factory=list)
    total_time: float = 0.0
    n_samples: int = 0
    config_summary: Dict[str, object] = field(default_factory=dict)

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")

    @property
    def total_samples_processed(self) -> int:
        return int(sum(self.epoch_samples_used))

    @property
    def pruned_fraction(self) -> float:
        """Fraction of sample visits skipped compared to full-data training."""
        full = self.n_samples * max(len(self.epoch_samples_used), 1)
        if full == 0:
            return 0.0
        return 1.0 - self.total_samples_processed / full

    def summary(self) -> Dict[str, object]:
        return {
            "epochs": len(self.epoch_losses),
            "final_loss": self.final_loss,
            "total_time_s": self.total_time,
            "pruned_fraction": self.pruned_fraction,
            **self.config_summary,
        }


class SelectorTrainer:
    """Trains an NN selector with any combination of PISL, MKI and PA."""

    def __init__(
        self,
        selector,
        config: Optional[TrainerConfig] = None,
        text_encoder: Optional[TextEncoder] = None,
    ) -> None:
        from ..selectors.nn_selector import NNSelector  # avoid an import cycle at module load

        if not isinstance(selector, NNSelector):
            raise TypeError(
                "SelectorTrainer only trains NN-based selectors; "
                f"got {type(selector).__name__} (non-NN selectors train via their own fit())"
            )
        self.selector = selector
        self.config = config or TrainerConfig()
        self._text_encoder = text_encoder
        self.mki: Optional[MKIModule] = None
        self.pisl = PISLLoss(self.config.pisl)

    # ------------------------------------------------------------------ #
    def fit(self, train_set: SelectorDataset) -> TrainingReport:
        """Run the configured training loop and return the training report.

        Each minibatch the pruner keeps costs one forward, one backward and
        one optimizer step; nothing else runs per epoch.  The per-sample
        losses of that forward are what the pruner averages.  The forward's
        gradient-free prefix (:meth:`NNSelector.static_input`) runs once
        over the training windows; each minibatch indexes its rows.
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
        static = self.selector.static_input(train_set.windows)
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

                logits, features = self.selector.forward_static(static[batch_idx])
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
