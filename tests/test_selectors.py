"""Tests for the selector zoo (repro.selectors)."""

import numpy as np
import pytest

from repro.core import TrainerConfig, kdselector_config
from repro.distill import quantize_teacher
from repro.selectors import (
    FEATURE_NAMES,
    ConvNetEncoder,
    InceptionTimeEncoder,
    LSTMEncoder,
    MLPEncoder,
    NNSelector,
    ResNetEncoder,
    RocketFeatureTransform,
    TransformerEncoder,
    extract_features,
    make_selector,
    selector_names,
)
from repro import nn

NEURAL = ["ConvNet", "ResNet", "InceptionTime", "Transformer", "MLP", "LSTMSelector",
          "Student", "TeacherInt8"]
# TeacherInt8 is inference-only (built by repro.distill.quantize_teacher);
# its fit() raises by design, so it is excluded from the generic fit tests.
TRAINABLE_NEURAL = [n for n in NEURAL if n != "TeacherInt8"]
NON_NEURAL = ["KNN", "SVC", "AdaBoost", "RandomForest", "LogisticRegression",
              "DecisionTree", "Ridge", "NN1Euclidean", "Rocket"]


class TestRegistry:
    def test_seventeen_selectors_registered(self):
        assert len(selector_names()) == 17

    def test_neural_flag_partition(self):
        assert set(selector_names(neural=True)) == set(NEURAL)
        assert set(selector_names(neural=False)) == set(NON_NEURAL)

    def test_make_selector_unknown_raises(self):
        with pytest.raises(KeyError):
            make_selector("NotASelector")


class TestFeatureExtraction:
    def test_feature_matrix_shape(self):
        windows = np.random.default_rng(0).normal(size=(10, 64))
        features = extract_features(windows)
        assert features.shape == (10, len(FEATURE_NAMES))
        assert np.all(np.isfinite(features))

    def test_single_window_input(self):
        features = extract_features(np.random.default_rng(1).normal(size=64))
        assert features.shape == (1, len(FEATURE_NAMES))

    def test_constant_window_is_finite(self):
        features = extract_features(np.zeros((2, 32)))
        assert np.all(np.isfinite(features))

    def test_mean_std_columns_correct(self):
        windows = np.random.default_rng(2).normal(3.0, 2.0, size=(5, 128))
        features = extract_features(windows)
        assert np.allclose(features[:, FEATURE_NAMES.index("mean")], windows.mean(axis=1))
        assert np.allclose(features[:, FEATURE_NAMES.index("std")], windows.std(axis=1))

    def test_periodic_window_has_low_spectral_entropy(self):
        t = np.arange(128)
        periodic = np.sin(2 * np.pi * t / 16)[None, :]
        noise = np.random.default_rng(3).normal(size=(1, 128))
        col = FEATURE_NAMES.index("spectral_entropy")
        assert extract_features(periodic)[0, col] < extract_features(noise)[0, col]

    def test_trend_slope_sign(self):
        up = np.linspace(0, 1, 64)[None, :]
        down = np.linspace(1, 0, 64)[None, :]
        col = FEATURE_NAMES.index("linear_trend_slope")
        assert extract_features(up)[0, col] > 0
        assert extract_features(down)[0, col] < 0


class TestEncoders:
    @pytest.mark.parametrize("encoder_cls,kwargs", [
        (ConvNetEncoder, {"mid_channels": 8}),
        (ResNetEncoder, {"mid_channels": 8}),
        (InceptionTimeEncoder, {"mid_channels": 8}),
        (TransformerEncoder, {"embed_dim": 16, "num_layers": 1, "num_heads": 2}),
        (LSTMEncoder, {"hidden": 8, "downsample": 8}),
    ])
    def test_encoder_output_shape(self, encoder_cls, kwargs):
        encoder = encoder_cls(**kwargs)
        x = nn.Tensor(np.random.default_rng(0).normal(size=(3, 1, 64)))
        out = encoder(x)
        assert out.shape == (3, encoder.feature_dim)

    def test_mlp_encoder(self):
        encoder = MLPEncoder(window=64, hidden=32, feature_dim=16)
        out = encoder(nn.Tensor(np.zeros((2, 1, 64))))
        assert out.shape == (2, 16)

    def test_resnet_gradients_reach_first_conv(self):
        encoder = ResNetEncoder(mid_channels=8, num_layers=2)
        x = nn.Tensor(np.random.default_rng(1).normal(size=(2, 1, 32)))
        encoder(x).sum().backward()
        first_conv_weight = encoder.blocks[0].conv1.conv.weight
        assert first_conv_weight.grad is not None
        assert np.abs(first_conv_weight.grad).sum() > 0


class TestNNSelectors:
    @pytest.fixture(scope="class")
    def fast_config(self):
        return TrainerConfig(epochs=1, batch_size=32, lr=1e-3)

    @pytest.mark.parametrize("name", TRAINABLE_NEURAL)
    def test_fit_predict_all_architectures(self, name, small_selector_dataset, fast_config):
        kwargs = {"window": small_selector_dataset.windows.shape[1],
                  "n_classes": small_selector_dataset.n_classes, "seed": 0}
        if name in ("ConvNet", "ResNet", "InceptionTime"):
            kwargs["mid_channels"] = 8
        elif name == "Transformer":
            kwargs.update(embed_dim=16, num_layers=1, num_heads=2)
        elif name == "MLP":
            kwargs.update(hidden=32, feature_dim=16)
        elif name == "LSTMSelector":
            kwargs.update(hidden=8, downsample=8)
        selector = make_selector(name, **kwargs)
        selector.fit(small_selector_dataset, config=fast_config)
        proba = selector.predict_proba(small_selector_dataset.windows[:8])
        assert proba.shape == (8, small_selector_dataset.n_classes)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-6)

    def test_feature_dim_requires_build(self):
        selector = make_selector("ResNet", window=32, n_classes=4)
        with pytest.raises(RuntimeError):
            _ = selector.feature_dim
        selector.build()
        assert selector.feature_dim > 0

    def test_encode_returns_features(self, small_selector_dataset):
        selector = make_selector("MLP", window=small_selector_dataset.windows.shape[1],
                                 n_classes=small_selector_dataset.n_classes, hidden=16, feature_dim=8)
        selector.build()
        features = selector.encode(small_selector_dataset.windows[:4])
        assert features.shape == (4, 8)

    def test_fit_records_report(self, small_selector_dataset, fast_config):
        selector = make_selector("MLP", window=small_selector_dataset.windows.shape[1],
                                 n_classes=small_selector_dataset.n_classes, hidden=16, feature_dim=8)
        selector.fit(small_selector_dataset, config=fast_config)
        assert hasattr(selector, "last_report_")
        assert len(selector.last_report_.epoch_losses) == 1

    def test_training_reduces_loss(self, small_selector_dataset):
        selector = make_selector("MLP", window=small_selector_dataset.windows.shape[1],
                                 n_classes=small_selector_dataset.n_classes, hidden=64, feature_dim=32)
        selector.fit(small_selector_dataset, config=TrainerConfig(epochs=8, batch_size=16, lr=3e-3))
        losses = selector.last_report_.epoch_losses
        assert losses[-1] < losses[0]

    def test_kdselector_config_accepted(self, small_selector_dataset):
        selector = make_selector("MLP", window=small_selector_dataset.windows.shape[1],
                                 n_classes=small_selector_dataset.n_classes, hidden=16, feature_dim=8)
        selector.fit(small_selector_dataset, config=kdselector_config(epochs=2, batch_size=32))
        assert selector.last_report_.config_summary["pisl"] is True


class TestNonNNSelectors:
    @pytest.mark.parametrize("name", NON_NEURAL)
    def test_fit_predict_all_non_nn(self, name, small_selector_dataset):
        kwargs = {}
        if name == "Rocket":
            kwargs["n_kernels"] = 32
        if name == "RandomForest":
            kwargs["n_estimators"] = 5
        if name == "AdaBoost":
            kwargs["n_estimators"] = 5
        selector = make_selector(name, **kwargs)
        selector.fit(small_selector_dataset)
        proba = selector.predict_proba(small_selector_dataset.windows[:8])
        assert proba.shape == (8, small_selector_dataset.n_classes)
        assert np.all(proba >= 0)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-6)

    def test_predict_requires_fit(self):
        selector = make_selector("KNN")
        with pytest.raises(RuntimeError):
            selector.predict_proba(np.zeros((2, 64)))

    def test_probabilities_cover_unseen_classes(self, small_selector_dataset):
        """Classes absent from training still get a (zero) probability column."""
        selector = make_selector("KNN")
        selector.fit(small_selector_dataset)
        proba = selector.predict_proba(small_selector_dataset.windows[:3])
        assert proba.shape[1] == small_selector_dataset.n_classes

    def test_rocket_transform_features(self):
        transform = RocketFeatureTransform(n_kernels=16, seed=0).fit(window_length=64)
        features = transform.transform(np.random.default_rng(0).normal(size=(4, 64)))
        assert features.shape == (4, 32)
        ppv = features[:, 0::2]
        assert (ppv >= 0).all() and (ppv <= 1).all()

    def test_rocket_transform_requires_fit(self):
        with pytest.raises(RuntimeError):
            RocketFeatureTransform().transform(np.zeros((1, 32)))

    def test_rocket_grouped_transform_matches_per_kernel_loop(self):
        """The grouped-gather transform is bitwise identical to the retained
        per-kernel reference loop, including clamped-dilation short windows
        (each kernel still applies as its own matvec over shared patches —
        a stacked multi-kernel GEMM would change BLAS summation order)."""
        transform = RocketFeatureTransform(n_kernels=64, seed=7).fit(window_length=96)
        rng = np.random.default_rng(3)
        for length in (96, 16):  # 16 forces the dilation clamp
            windows = rng.normal(size=(8, length))
            assert np.array_equal(transform.transform(windows),
                                  transform._transform_per_kernel(windows))

    def test_knn_memorises_training_windows(self, small_selector_dataset):
        selector = make_selector("NN1Euclidean")
        selector.fit(small_selector_dataset)
        predictions = selector.predict(small_selector_dataset.windows)
        agreement = (predictions == small_selector_dataset.hard_labels).mean()
        assert agreement > 0.9


#: batch sizes the row-invariance tests slice: one window, small odd
#: batches, and sizes below, at and across the 64-window predict chunk
ROW_COUNTS = (1, 2, 3, 7, 31, 64, 65, 100, 130)

#: tiny untrained architectures for every NN tier
TINY_TIERS = {
    "ConvNet": ("ConvNet", {"mid_channels": 8}),
    "ResNet": ("ResNet", {"mid_channels": 8, "num_layers": 2}),
    "InceptionTime": ("InceptionTime", {"mid_channels": 8, "num_layers": 2}),
    "Transformer": ("Transformer", {"embed_dim": 16, "num_layers": 1, "num_heads": 2}),
    "MLP": ("MLP", {"hidden": 32, "feature_dim": 16}),
    "LSTMSelector": ("LSTMSelector", {"hidden": 8, "downsample": 8}),
    "Student-stats": ("Student", {"features": "stats", "hidden": 16}),
    "Student-rocket": ("Student", {"features": "rocket", "hidden": 16, "n_kernels": 16}),
    "Student-both": ("Student", {"features": "both", "hidden": 16, "n_kernels": 16}),
}


class TestRowInvariance:
    """A window's output is bitwise independent of the batch it arrives in."""

    @pytest.fixture(scope="class")
    def windows(self):
        return np.random.default_rng(5).normal(size=(max(ROW_COUNTS), 64))

    @staticmethod
    def _tier(tier, windows):
        if tier == "TeacherInt8":
            teacher = make_selector("ResNet", window=windows.shape[1], n_classes=5,
                                    seed=0, mid_channels=8, num_layers=2)
            quantized, _ = quantize_teacher(teacher, windows[:32], min_agreement=None)
            return quantized
        name, kwargs = TINY_TIERS[tier]
        return make_selector(name, window=windows.shape[1], n_classes=5, seed=0,
                             **kwargs).build()

    @pytest.mark.parametrize("tier", list(TINY_TIERS) + ["TeacherInt8"])
    def test_predict_proba_rows_match_single_window_calls(self, tier, windows):
        selector = self._tier(tier, windows)
        single = np.vstack([selector.predict_proba(windows[i:i + 1])
                            for i in range(len(windows))])
        for n in ROW_COUNTS:
            assert np.array_equal(selector.predict_proba(windows[:n]), single[:n]), \
                f"{tier}: rows of a {n}-window batch differ from one-window calls"

    def test_rocket_transform_rows_match_single_window_calls(self):
        transform = RocketFeatureTransform(n_kernels=24, seed=0).fit(window_length=64)
        rng = np.random.default_rng(6)
        for length in (64, 16):  # 16 forces the dilation clamp
            windows = rng.normal(size=(max(ROW_COUNTS), length))
            single = np.vstack([transform.transform(windows[i:i + 1])
                                for i in range(len(windows))])
            for n in ROW_COUNTS:
                assert np.array_equal(transform.transform(windows[:n]), single[:n]), \
                    f"length {length}: rows of a {n}-window transform differ"
