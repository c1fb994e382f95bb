"""Tests for the frozen text encoders (repro.text)."""

import numpy as np
import pytest

from repro.text import (
    HashingTextEncoder,
    char_ngrams,
    tokenize,
    tokenize_with_subwords,
)


class TestTokenizer:
    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("Hello, World 42!") == ["hello", "world", "42"]

    def test_tokenize_empty_string(self):
        assert tokenize("") == []

    def test_char_ngrams_boundaries(self):
        grams = char_ngrams("ecg", 3, 3)
        assert "<ec" in grams and "cg>" in grams

    def test_char_ngrams_short_token(self):
        assert char_ngrams("ab", 5, 6) == []

    def test_subword_tokenizer_keeps_numbers_whole(self):
        tokens = tokenize_with_subwords("length 1600")
        assert "1600" in tokens
        assert not any(t.startswith("<16") for t in tokens)


class TestHashingTextEncoder:
    @pytest.fixture(scope="class")
    def encoder(self):
        return HashingTextEncoder(dim=128, n_buckets=1024, seed=0)

    def test_output_shape_and_norm(self, encoder):
        out = encoder.encode(["This is a time series from dataset ECG."])
        assert out.shape == (1, 128)
        assert np.linalg.norm(out[0]) == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self, encoder):
        text = "There are 2 anomalies in this series."
        assert np.allclose(encoder.encode([text]), encoder.encode([text]))

    def test_deterministic_across_instances(self):
        a = HashingTextEncoder(dim=64, seed=5)
        b = HashingTextEncoder(dim=64, seed=5)
        text = "The length of the series is 1200."
        assert np.allclose(a.encode([text]), b.encode([text]))

    def test_similar_texts_closer_than_dissimilar(self, encoder):
        base = "This is a time series from dataset ECG with 2 anomalies of length 30."
        similar = "This is a time series from dataset ECG with 3 anomalies of length 25."
        different = "Completely unrelated words about web service latency indicators."
        e_base, e_sim, e_diff = encoder.encode([base, similar, different])
        cos_sim = float(e_base @ e_sim)
        cos_diff = float(e_base @ e_diff)
        assert cos_sim > cos_diff

    def test_cache_reuses_embeddings(self, encoder):
        text = "cached metadata description"
        first = encoder.encode([text])
        assert text in encoder._cache
        second = encoder.encode([text, text])
        assert np.allclose(second[0], first[0])
        assert np.allclose(second[0], second[1])

    def test_empty_text_is_finite(self, encoder):
        out = encoder.encode([""])
        assert np.all(np.isfinite(out))
