"""``repro.text`` — frozen text encoders used by the MKI module."""

from .embedder import HashingTextEncoder, TextEncoder
from .tokenizer import char_ngrams, tokenize, tokenize_with_subwords

__all__ = [
    "HashingTextEncoder", "TextEncoder",
    "char_ngrams", "tokenize", "tokenize_with_subwords",
]
