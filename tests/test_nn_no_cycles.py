"""The autograd graph is a DAG: reference counting alone frees it.

Every op hands :func:`repro.nn.tensor._node` one VJP per parent and no VJP
holds its own output, so a training step, a no-grad forward or a neural
detector's score leaves nothing for the cyclic garbage collector.
"""

import gc

import numpy as np
import pytest

from repro import nn
from repro.data import generate_series
from repro.detectors import make_detector
from repro.distill import quantize_teacher
from repro.nn.tensor import Tensor, concatenate
from repro.selectors import make_selector

N_CLASSES = 5
WINDOW = 64

TRAINABLE = {
    "ConvNet": ("ConvNet", {"mid_channels": 8}),
    "ResNet": ("ResNet", {"mid_channels": 8, "num_layers": 2}),
    "InceptionTime": ("InceptionTime", {"mid_channels": 8, "num_layers": 2}),
    "Transformer": ("Transformer", {"embed_dim": 16, "num_layers": 1, "num_heads": 2}),
    "MLP": ("MLP", {"hidden": 32, "feature_dim": 16}),
    "LSTMSelector": ("LSTMSelector", {"hidden": 8, "downsample": 8}),
    "Student": ("Student", {"features": "both", "hidden": 16, "n_kernels": 16}),
}


def cyclic_garbage(fn) -> int:
    """Objects the cyclic GC finds after ``fn()`` runs with the GC off.

    ``fn`` runs once beforehand, so one-time lazy state is not counted.
    """
    fn()
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


def every_op(backward: bool) -> None:
    """One graph through every op, ``conv1d``, ``pad1d`` and ``concatenate`` included."""
    rng = np.random.default_rng(0)
    a = Tensor(rng.uniform(0.5, 1.5, size=(2, 3, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    h = nn.functional.conv1d(a, w, b, padding=1)
    h = concatenate([h[:, :2], h[:, 2:]], axis=1).relu().gelu() - 1.0
    h = (h.tanh().sigmoid() + h.exp() * 0.5).log() ** 2 / 3.0
    h = h.swapaxes(1, 2).transpose((0, 2, 1)).reshape(2, -1)
    h = h.matmul(Tensor(rng.normal(size=(32, 5)), requires_grad=True))
    loss = h.var(axis=1).sum() + (-h).max(axis=1).mean()
    if backward:
        loss.backward()


def test_every_op_with_gradients():
    assert cyclic_garbage(lambda: every_op(backward=True)) == 0


def test_every_op_without_gradients():
    def forward():
        with nn.no_grad():
            every_op(backward=False)

    assert cyclic_garbage(forward) == 0


@pytest.fixture(scope="module")
def windows():
    return np.random.default_rng(0).normal(size=(12, WINDOW))


@pytest.mark.parametrize("tier", list(TRAINABLE))
def test_training_step_and_no_grad_forward(tier, windows):
    name, kwargs = TRAINABLE[tier]
    selector = make_selector(name, window=WINDOW, n_classes=N_CLASSES, seed=0, **kwargs).build()
    optimizer = nn.Adam(selector.parameters(), lr=1e-3)
    labels = np.arange(len(windows)) % N_CLASSES

    def train_step():
        selector.train_mode(True)
        logits, _ = selector.forward(windows)
        loss = nn.cross_entropy(logits, labels)
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()

    assert cyclic_garbage(train_step) == 0
    assert cyclic_garbage(lambda: selector.predict_proba(windows[:3])) == 0


def test_no_grad_forward_records_no_graph(windows):
    name, kwargs = TRAINABLE["ResNet"]
    selector = make_selector(name, window=WINDOW, n_classes=N_CLASSES, seed=0, **kwargs).build()
    with nn.no_grad():
        logits, features = selector.forward(windows[:3])
    for out in (logits, features):
        assert not out.requires_grad
        assert out._prev == () and out._vjps == ()


def test_int8_twin_forward(windows):
    name, kwargs = TRAINABLE["ResNet"]
    teacher = make_selector(name, window=WINDOW, n_classes=N_CLASSES, seed=0, **kwargs).build()
    twin, _ = quantize_teacher(teacher, windows, min_agreement=None)
    assert cyclic_garbage(lambda: twin.predict_proba(windows[:3])) == 0


@pytest.mark.parametrize("detector", ["AE", "LSTM-AD", "CNN"])
def test_neural_detector_score(detector):
    series = generate_series("ECG", 0, 300, seed=4).series
    model = make_detector(detector, window=16, epochs=1)
    assert cyclic_garbage(lambda: model.score(series)) == 0
