"""Micro-benchmarks of the KDSelector building blocks.

These use pytest-benchmark's repeated timing (unlike the table benches,
which run the full experiment once) and track the cost of the pieces the
paper's training loop touches every step: soft-label computation (PISL),
frozen text embedding + InfoNCE (MKI), SimHash signatures and bucket
construction (PA), the selector forward/backward pass, and the oracle's
per-detector scoring.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import PruningConfig, PAPruner, SimHashLSH, performance_to_soft_labels
from repro.core.mki import MKIModule
from repro.core.config import MKIConfig
from repro.data import generate_series
from repro.detectors import make_detector
from repro.selectors import ResNetEncoder, extract_features
from repro.text import HashingTextEncoder

RNG = np.random.default_rng(0)


@pytest.mark.benchmark(group="micro-pisl")
def test_micro_soft_label_computation(benchmark):
    performances = RNG.uniform(0, 1, size=(2048, 12))
    result = benchmark(performance_to_soft_labels, performances, 0.25)
    assert result.shape == (2048, 12)


@pytest.mark.benchmark(group="micro-mki")
def test_micro_text_embedding(benchmark):
    encoder = HashingTextEncoder(dim=768)
    texts = [
        f"This is a time series from dataset ECG. The length of the series is {1000 + i}. "
        f"There are {i % 4} anomalies in this series."
        for i in range(64)
    ]

    def encode():
        encoder._cache.clear()  # measure cold encoding, not the cache
        return encoder.encode(texts)

    out = benchmark(encode)
    assert out.shape == (64, 768)


@pytest.mark.benchmark(group="micro-mki")
def test_micro_infonce_loss(benchmark):
    config = MKIConfig(enabled=True, projection_dim=64, text_dim=256)
    module = MKIModule(feature_dim=64, config=config)
    features = nn.Tensor(RNG.normal(size=(64, 64)), requires_grad=True)
    embeddings = RNG.normal(size=(64, 256))

    def loss_and_grad():
        loss = module.loss(features, embeddings).mean()
        loss.backward()
        return loss.item()

    value = benchmark(loss_and_grad)
    assert value > 0


@pytest.mark.benchmark(group="micro-pa")
def test_micro_simhash_signatures(benchmark):
    windows = RNG.normal(size=(4096, 128))
    lsh = SimHashLSH(n_bits=14, seed=0).fit(windows)
    signatures = benchmark(lsh.signatures, windows)
    assert signatures.shape == (4096,)


@pytest.mark.benchmark(group="micro-pa")
def test_micro_pa_selection(benchmark):
    n = 4096
    config = PruningConfig(method="pa", ratio=0.8, lsh_bits=14, n_bins=8,
                           full_data_last_fraction=0.0)
    pruner = PAPruner(n, config, total_epochs=10, seed=0)
    pruner.setup(RNG.normal(size=(n, 128)))
    pruner.update(np.arange(n), RNG.uniform(0, 2, size=n))

    indices, weights = benchmark(pruner.select, 1)
    assert len(indices) == len(weights)
    assert len(indices) < n


@pytest.mark.benchmark(group="micro-selector")
def test_micro_resnet_forward_backward(benchmark):
    nn.init.set_seed(0)
    encoder = ResNetEncoder(mid_channels=12, num_layers=2)
    head = nn.Linear(encoder.feature_dim, 12)
    batch = RNG.normal(size=(64, 1, 96))
    labels = RNG.integers(0, 12, size=64)

    def step():
        logits = head(encoder(nn.Tensor(batch)))
        loss = nn.cross_entropy(logits, labels)
        encoder.zero_grad()
        head.zero_grad()
        loss.backward()
        return loss.item()

    value = benchmark(step)
    assert value > 0


@pytest.mark.benchmark(group="micro-selector")
def test_micro_feature_extraction(benchmark):
    windows = RNG.normal(size=(512, 96))
    features = benchmark(extract_features, windows)
    assert features.shape[0] == 512


@pytest.mark.benchmark(group="micro-oracle")
@pytest.mark.parametrize("detector_name", ["IForest", "IForest1", "LOF", "MP", "HBOS", "POLY"])
def test_micro_detector_scoring(benchmark, detector_name):
    record = generate_series("IOPS", 0, 1000, seed=3)
    detector = make_detector(detector_name, window=24)
    scores = benchmark(detector.detect, record.series)
    assert scores.shape == record.series.shape
