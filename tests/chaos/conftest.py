"""Fixtures for the fault-injection (chaos) suite.

Everything here is deterministic on purpose: the traffic and the trained
selector derive from fixed seeds, and every fault is a signal sent between
specific ticks, so a failing chaos run replays exactly.  The
``chaos_world`` fixture mirrors the ``streaming_world`` fixture of
``tests/test_streaming.py`` at the same small scale — chaos runs pay for
process churn, not for model training.
"""

import numpy as np
import pytest

from repro.core import TrainerConfig
from repro.data import build_selector_dataset, generate_series
from repro.selectors import make_selector
from repro.service import ServiceConfig, ShardedService, make_engine_factory
from repro.streaming import StreamEngine, StreamingConfig


@pytest.fixture(scope="session")
def chaos_world():
    """A trained selector + deterministic multi-stream traffic."""
    train_records = [generate_series(name, 0, 400, seed=4)
                     for name in ("ECG", "IOPS", "MGAB", "SMD")]
    detector_names = ["IForest", "HBOS", "MP", "POLY"]
    gen = np.random.default_rng(9)
    matrix = gen.uniform(0.05, 0.4, size=(len(train_records), len(detector_names)))
    matrix[np.arange(len(train_records)), np.arange(len(train_records))] += 0.5
    dataset = build_selector_dataset(train_records, matrix, detector_names,
                                     window=64, stride=64)
    selector = make_selector("MLP", window=64, n_classes=4, hidden=16,
                             feature_dim=8, seed=0)
    selector.fit(dataset, config=TrainerConfig(epochs=2, batch_size=32))

    gen = np.random.default_rng(17)
    streams = {f"s{i}": gen.normal(size=300) for i in range(8)}
    return {"selector": selector, "detector_names": detector_names,
            "streams": streams}


@pytest.fixture(scope="session")
def chaos_reference(chaos_world):
    """The uninterrupted single-process answers every chaos run must match."""
    engine = StreamEngine(chaos_world["selector"], chaos_world["detector_names"],
                          StreamingConfig(window=64, stride=32))
    updates = {}
    for tick in range(3):
        for sid, series in chaos_world["streams"].items():
            engine.append(sid, series[tick * 100:(tick + 1) * 100])
        for sid, update in engine.flush().items():
            updates[sid] = update.as_dict()
    return {
        "updates": updates,
        "scores": {sid: engine.scores(sid) for sid in chaos_world["streams"]},
    }


@pytest.fixture
def make_chaos_service(chaos_world):
    """Factory for services over the shared world; closes them at teardown."""
    services = []

    def build(n_shards=2, **config_overrides):
        factory = make_engine_factory(chaos_world["selector"],
                                      chaos_world["detector_names"],
                                      StreamingConfig(window=64, stride=32))
        service = ShardedService(factory, ServiceConfig(n_shards=n_shards,
                                                        **config_overrides))
        services.append(service)
        return service

    yield build
    for service in services:
        service.close()
