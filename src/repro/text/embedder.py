"""Frozen text encoders standing in for the paper's BERT embeddings.

The MKI module requires a *pre-trained, frozen* language model that maps a
metadata description to a fixed-dimensional vector ``z_K``.  Downloading
BERT is impossible in this offline environment, so we provide
:class:`HashingTextEncoder`: a deterministic hashed bag-of-(sub)words
embedding followed by a fixed Gaussian random projection.

Why this preserves the behaviour MKI relies on:

* it is **frozen** — the map never changes during selector learning, just
  like the frozen BERT of the paper;
* it is **smooth** — descriptions sharing dataset names, anomaly counts and
  duration words land close to each other in cosine distance, so the
  InfoNCE objective can align time-series features with metadata clusters;
* it has the same interface (text in, 768-d vector out), so swapping in a
  real LLM embedding only requires implementing :class:`TextEncoder`.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Dict, Sequence

import numpy as np

from .tokenizer import tokenize_with_subwords


class TextEncoder(ABC):
    """Interface of a frozen sentence encoder."""

    #: dimensionality of the produced embeddings
    dim: int = 768

    @abstractmethod
    def encode(self, texts: Sequence[str]) -> np.ndarray:
        """Return an (n_texts, dim) matrix of embeddings."""


def _stable_token_hash(token: str, buckets: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % buckets


class HashingTextEncoder(TextEncoder):
    """Deterministic hashed n-gram sentence embedding (BERT substitute).

    Tokens (plus character n-grams) are hashed into ``n_buckets`` TF slots,
    the TF vector is IDF-free but sub-linearly damped (sqrt), then projected
    to ``dim`` dimensions with a fixed Gaussian matrix and L2-normalised.
    The encoder carries no trainable state and is therefore "frozen" by
    construction.
    """

    def __init__(self, dim: int = 768, n_buckets: int = 4096, seed: int = 1234) -> None:
        self.dim = dim
        self.n_buckets = n_buckets
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._projection = rng.normal(0.0, 1.0 / np.sqrt(n_buckets), size=(n_buckets, dim))
        self._cache: Dict[str, np.ndarray] = {}

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim))
        for i, text in enumerate(texts):
            out[i] = self._encode_single(text)
        return out

    def _encode_single(self, text: str) -> np.ndarray:
        cached = self._cache.get(text)
        if cached is not None:
            return cached
        counts = np.zeros(self.n_buckets)
        for token in tokenize_with_subwords(text):
            counts[_stable_token_hash(token, self.n_buckets)] += 1.0
        damped = np.sqrt(counts)
        embedding = damped @ self._projection
        norm = np.linalg.norm(embedding)
        if norm > 1e-12:
            embedding = embedding / norm
        self._cache[text] = embedding
        return embedding

