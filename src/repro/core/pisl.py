"""Performance-Informed Selector Learning (PISL).

The detection performance of *all* candidate models — not just the identity
of the best one — is knowledge that the standard hard-label framework
throws away.  PISL converts each performance vector ``P(M_j(T_i))`` into a
probability distribution over models with a temperature-controlled softmax
and uses it as a soft training target (Sect. 3 of the paper):

``p_i = softmax_j( P(M_j(T_i)) / t_soft )``

``L_PISL`` is the cross entropy between the predicted distribution and
``p_i``; the total objective is ``(1 - alpha) L_CE + alpha L_PISL``.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from .config import PISLConfig


def performance_to_soft_labels(performances: np.ndarray, t_soft: float = 0.25) -> np.ndarray:
    """Turn per-sample performance vectors into soft label distributions.

    Parameters
    ----------
    performances:
        Array (N, m): detection performance of each of the ``m`` TSAD models
        on the series each sample came from.
    t_soft:
        Softmax temperature.  Smaller values sharpen the distribution toward
        the best model; larger values spread probability mass across models
        with similar performance.
    """
    performances = np.asarray(performances, dtype=np.float64)
    if performances.ndim != 2:
        raise ValueError("performances must be a 2-D (n_samples, n_models) array")
    if t_soft <= 0:
        raise ValueError("t_soft must be positive")
    scaled = performances / t_soft
    scaled = scaled - scaled.max(axis=1, keepdims=True)
    exp = np.exp(scaled)
    return exp / exp.sum(axis=1, keepdims=True)


class PISLLoss:
    """Callable computing the mixed hard/soft objective of PISL.

    With ``alpha = 0`` this degrades exactly to the standard hard-label
    cross entropy, which is how the module stays plug-and-play.
    """

    def __init__(self, config: PISLConfig) -> None:
        self.config = config

    def soft_labels(self, performances: np.ndarray) -> np.ndarray:
        return performance_to_soft_labels(performances, self.config.t_soft)

    def __call__(
        self,
        logits: nn.Tensor,
        hard_labels: np.ndarray,
        soft_labels: np.ndarray | None,
    ) -> nn.Tensor:
        """Per-sample loss tensor (reduction is left to the trainer)."""
        hard = nn.cross_entropy(logits, hard_labels, reduction="none")
        if not self.config.enabled or soft_labels is None or self.config.alpha <= 0.0:
            return hard
        soft = nn.soft_cross_entropy(logits, soft_labels, reduction="none")
        alpha = self.config.alpha
        return hard * (1.0 - alpha) + soft * alpha
