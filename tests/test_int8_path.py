"""Forward hooks and the one int8 quantization path built on them.

Covers :meth:`repro.nn.Module.register_forward_hook` (order, removal, what
a hook sees, bitwise neutrality on every registered NN selector), the
int8 twin's outputs pinned for three conv teachers, and the cascade router
reading the slow tier's quality from the twin's own gate result.
"""

import hashlib

import numpy as np
import pytest

from repro import nn
from repro.cascade import CalibrationResult, CascadeRouter
from repro.distill import quantize_teacher
from repro.obs import explain_stream
from repro.selectors import make_selector, selector_names
from repro.selectors.teacher_int8 import QUANT_SUMMARY_KEYS
from repro.streaming import StreamEngine, StreamingConfig
from repro.system.selector_store import SelectorStore

#: tiny architectures for every registered NN selector
TINY_ARCHS = {
    "ConvNet": {"mid_channels": 8},
    "ResNet": {"mid_channels": 8, "num_layers": 2},
    "InceptionTime": {"mid_channels": 8, "num_layers": 2},
    "Transformer": {"embed_dim": 16, "num_layers": 1, "num_heads": 2},
    "MLP": {"hidden": 32, "feature_dim": 16},
    "LSTMSelector": {"hidden": 8, "downsample": 8},
    "Student": {"features": "both", "hidden": 16, "n_kernels": 16},
}


def _tiny_selector(name, window):
    if name == "TeacherInt8":
        teacher = _tiny_selector("ResNet", window)
        windows = np.random.default_rng(1).normal(size=(24, window))
        return quantize_teacher(teacher, windows, min_agreement=None)[0]
    return make_selector(name, window=window, n_classes=5, seed=0, **TINY_ARCHS[name]).build()


class TestForwardHooks:
    def test_hooks_run_in_registration_order_until_removed(self):
        module = nn.Linear(4, 3)
        calls = []
        handles = [module.register_forward_hook(lambda m, args, out, k=k: calls.append(k))
                   for k in range(3)]
        module(nn.Tensor(np.ones((2, 4))))
        assert calls == [0, 1, 2]
        handles[1].remove()
        handles[1].remove()  # removing twice is harmless
        calls.clear()
        module(nn.Tensor(np.ones((2, 4))))
        assert calls == [0, 2]
        for handle in handles:
            handle.remove()
        calls.clear()
        module(nn.Tensor(np.ones((2, 4))))
        assert calls == [] and module._forward_hooks == {}

    def test_hook_sees_the_conv_input_before_padding_and_the_output(self):
        conv = nn.Conv1d(3, 4, kernel_size=5, padding=2)
        x = nn.Tensor(np.random.default_rng(0).normal(size=(2, 3, 10)))
        seen = []
        conv.register_forward_hook(lambda m, args, out: seen.append((m, args, out)))
        output = conv(x)
        [(module, args, hooked)] = seen
        assert module is conv and hooked is output
        assert len(args) == 1 and args[0] is x and args[0].shape == (2, 3, 10)
        assert output.shape == (2, 4, 10)

    def test_hook_return_value_is_ignored(self):
        module = nn.Linear(4, 3)
        x = nn.Tensor(np.ones((2, 4)))
        expected = module(x).numpy()
        module.register_forward_hook(lambda m, args, out: nn.Tensor(np.zeros((2, 3))))
        assert np.array_equal(module(x).numpy(), expected)

    def test_every_nn_selector_is_bitwise_unchanged_under_no_op_hooks(self):
        assert set(TINY_ARCHS) | {"TeacherInt8"} == set(selector_names(neural=True))
        windows = np.random.default_rng(5).normal(size=(9, 64))
        for name in selector_names(neural=True):
            selector = _tiny_selector(name, 64)
            before = selector.predict_proba(windows)
            calls = []
            handles = [sub.register_forward_hook(lambda m, args, out: calls.append(m))
                       for root in (selector.encoder, selector.classifier)
                       for _, sub in root.named_modules()]
            hooked = selector.predict_proba(windows)
            for handle in handles:
                handle.remove()
            assert calls, name
            assert np.array_equal(before, hooked), name
            assert np.array_equal(before, selector.predict_proba(windows)), name


#: quantize_teacher's gate and the twin's predict_proba digest, recorded
#: before calibration moved onto forward hooks and one conv/BN walk
INT8_PINS = {
    "ResNet": ("3b12cb859b0c4d3d", 1.0, 8, 6, "61720f2f68b4854e"),
    "ConvNet": ("17361f41eb800984", 0.9791666666666666, 3, 3, "47347d3bb3871505"),
    "InceptionTime": ("210b759acab9b53e", 1.0, 10, 0, "935bf878143a3234"),
}


def _perturbed_teacher(base):
    """A tiny untrained teacher whose batch norms fold non-trivially."""
    teacher = make_selector(base, window=32, n_classes=5, seed=0, **TINY_ARCHS[base]).build()
    rng = np.random.default_rng(11)
    for _, module in teacher.encoder.named_modules():
        if isinstance(module, nn.BatchNorm1d):
            n = module.num_features
            module.weight.data = rng.uniform(0.5, 1.5, size=n)
            module.bias.data = rng.normal(scale=0.1, size=n)
            module.update_buffer("running_mean", rng.normal(scale=0.1, size=n))
            module.update_buffer("running_var", rng.uniform(0.5, 2.0, size=n))
    return teacher


@pytest.fixture(scope="module")
def pin_windows():
    rng = np.random.default_rng(3)
    return rng.normal(size=(48, 32)), rng.normal(size=(40, 32))


class TestInt8Pins:
    @pytest.mark.parametrize("base", sorted(INT8_PINS))
    def test_quantize_teacher_matches_pins(self, base, pin_windows, tmp_path):
        calibration, query = pin_windows
        quantized, gate = quantize_teacher(_perturbed_teacher(base), calibration,
                                           min_agreement=None)
        proba = quantized.predict_proba(query)
        digest = hashlib.blake2b(proba.tobytes(), digest_size=8).hexdigest()
        assert (gate["act_scales_hash"], gate["agreement"], gate["n_quantized_convs"],
                gate["n_folded_bns"], digest) == INT8_PINS[base]
        assert quantized.quant_provenance == gate

        store = SelectorStore(tmp_path / "store")
        store.save("m-int8", quantized)
        restored = store.load("m-int8")
        assert np.array_equal(restored.predict_proba(query), proba)
        manifest = store.info("m-int8").metadata["quantization"]
        assert tuple(manifest) == QUANT_SUMMARY_KEYS
        assert manifest == {key: gate[key] for key in QUANT_SUMMARY_KEYS}

    def test_explain_shows_the_same_summary_as_the_store(self, pin_windows):
        calibration, query = pin_windows
        quantized, gate = quantize_teacher(_perturbed_teacher("ConvNet"), calibration,
                                           min_agreement=None)
        engine = StreamEngine(quantized, [f"D{k}" for k in range(5)],
                              StreamingConfig(window=32))
        engine.push("s", query.ravel())
        report = explain_stream(engine, "s")
        assert report["quantization"] == {key: gate[key] for key in QUANT_SUMMARY_KEYS}

    def test_calibration_leaves_no_hook_behind(self, pin_windows):
        teacher = _perturbed_teacher("ResNet")
        quantize_teacher(teacher, pin_windows[0], min_agreement=None)
        for root in (teacher.encoder, teacher.classifier):
            assert all(not sub._forward_hooks for _, sub in root.named_modules())


class _Twin:
    """A slow selector that carries an int8 gate result."""

    quant_provenance = {"agreement": 0.93}

    def predict_proba(self, windows):
        return np.full((len(windows), 3), 1.0 / 3.0)


class TestRouterSlowQuality:
    def test_slow_quality_comes_from_the_slow_selector(self):
        router = CascadeRouter(_Twin(), slow_tier="teacher-int8",
                               escalation_rate=0.2, kept_agreement=0.99, window=32)
        assert router.plan_quality("teacher") == 0.93
        assert router.plan_quality("cascade") == pytest.approx(0.2 * 0.93 + 0.8 * 0.99)

    def test_from_calibration_reads_it_too(self):
        calibration = CalibrationResult(0.1, 0.25, 0.99, 0.9)
        router = CascadeRouter.from_calibration(_Twin(), calibration,
                                                slow_tier="teacher-int8", window=32)
        assert router.plan_quality("teacher") == 0.93

    def test_float_teacher_is_quality_one(self):
        teacher = _tiny_selector("ConvNet", 32)
        assert CascadeRouter(teacher, window=32).plan_quality("teacher") == 1.0

    def test_quantized_twin_prices_its_measured_agreement(self, pin_windows):
        quantized, gate = quantize_teacher(_perturbed_teacher("ConvNet"), pin_windows[0],
                                           min_agreement=None)
        router = CascadeRouter(quantized, slow_tier="teacher-int8", window=32)
        assert router.plan_quality("teacher") == gate["agreement"] < 1.0
