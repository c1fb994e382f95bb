"""Meta-Knowledge Integration (MKI).

Metadata about each series (domain, length, anomaly counts and durations)
is described in natural language, embedded with a *frozen* pre-trained text
encoder into ``z_K``, and tied to the selector's time-series feature
``z_T`` by maximising a mutual-information lower bound: both features are
projected into a shared space by two MLPs ``h_T`` and ``h_K`` and the
InfoNCE loss between the projected pairs is minimised (Sect. 3).

Adding ``lambda * L_MKI`` to the selector objective is all that is needed
to use the module, so it remains plug-and-play and architecture-agnostic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..text import HashingTextEncoder, TextEncoder
from .config import MKIConfig


class ProjectionHead(nn.Module):
    """One-hidden-layer MLP projection (256 hidden units, ReLU), as in the paper."""

    def __init__(self, in_dim: int, out_dim: int, hidden: int = 256) -> None:
        super().__init__()
        self.fc1 = nn.Linear(in_dim, hidden)
        self.fc2 = nn.Linear(hidden, out_dim)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.fc2(self.fc1(x).relu())


class MKIModule(nn.Module):
    """Holds the frozen text encoder and the trainable projections h_T / h_K."""

    def __init__(
        self,
        feature_dim: int,
        config: MKIConfig,
        text_encoder: Optional[TextEncoder] = None,
    ) -> None:
        super().__init__()
        self.config = config
        self.text_encoder = text_encoder or HashingTextEncoder(dim=config.text_dim)
        self.h_t = ProjectionHead(feature_dim, config.projection_dim, hidden=config.projection_hidden)
        self.h_k = ProjectionHead(self.text_encoder.dim, config.projection_dim, hidden=config.projection_hidden)
        self._embedding_cache: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # frozen text encoding
    # ------------------------------------------------------------------ #
    def encode_texts(self, texts: Sequence[str]) -> np.ndarray:
        """Embed metadata texts with the frozen encoder (cached per string)."""
        missing = [text for text in texts if text not in self._embedding_cache]
        if missing:
            unique_missing = list(dict.fromkeys(missing))
            vectors = self.text_encoder.encode(unique_missing)
            for text, vector in zip(unique_missing, vectors):
                self._embedding_cache[text] = vector
        return np.stack([self._embedding_cache[text] for text in texts])

    # ------------------------------------------------------------------ #
    # loss
    # ------------------------------------------------------------------ #
    def loss(self, series_features: nn.Tensor, text_embeddings: np.ndarray) -> nn.Tensor:
        """Per-sample InfoNCE loss between projected series and text features."""
        projected_series = self.h_t(series_features)
        projected_text = self.h_k(nn.Tensor(np.asarray(text_embeddings, dtype=np.float64)))
        return nn.info_nce(
            projected_series,
            projected_text,
            temperature=self.config.temperature,
            reduction="none",
        )

    def trainable_parameters(self) -> List[nn.Parameter]:
        """Parameters of the projections (the text encoder stays frozen)."""
        return self.h_t.parameters() + self.h_k.parameters()
