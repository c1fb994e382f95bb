"""Tests for repro.nn.functional (conv1d, softmax, dropout...)."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor


def numeric_gradient(fn, value, eps=1e-6):
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    it = np.nditer(value, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = value.copy(); plus[idx] += eps
        minus = value.copy(); minus[idx] -= eps
        grad[idx] = (fn(plus) - fn(minus)) / (2 * eps)
        it.iternext()
    return grad


class TestConv1d:
    def test_output_shape_no_padding(self):
        x = Tensor(np.zeros((2, 3, 10)))
        w = Tensor(np.zeros((4, 3, 3)))
        assert F.conv1d(x, w).shape == (2, 4, 8)

    def test_output_shape_with_padding_and_stride(self):
        x = Tensor(np.zeros((1, 1, 16)))
        w = Tensor(np.zeros((2, 1, 5)))
        assert F.conv1d(x, w, padding=2, stride=2).shape == (1, 2, 8)

    def test_matches_manual_convolution(self):
        x_val = np.arange(6, dtype=float).reshape(1, 1, 6)
        w_val = np.array([[[1.0, 0.0, -1.0]]])
        out = F.conv1d(Tensor(x_val), Tensor(w_val)).numpy()
        expected = np.array([x_val[0, 0, i] - x_val[0, 0, i + 2] for i in range(4)])
        assert np.allclose(out[0, 0], expected)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 5)))
        w = Tensor(np.zeros((2, 1, 3)))
        b = Tensor(np.array([1.0, -2.0]))
        out = F.conv1d(x, w, b).numpy()
        assert np.allclose(out[0, 0], 1.0)
        assert np.allclose(out[0, 1], -2.0)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            F.conv1d(Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((3, 4, 3))))

    def test_too_small_input_raises(self):
        with pytest.raises(ValueError):
            F.conv1d(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 5))))

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(0)
        x_val = rng.normal(size=(2, 2, 8))
        w_val = rng.normal(size=(3, 2, 3))
        b_val = rng.normal(size=3)

        x = Tensor(x_val, requires_grad=True)
        w = Tensor(w_val, requires_grad=True)
        b = Tensor(b_val, requires_grad=True)
        out = F.conv1d(x, w, b, padding=1)
        (out * out).sum().backward()

        def loss_x(v):
            o = F.conv1d(Tensor(v), Tensor(w_val), Tensor(b_val), padding=1)
            return float((o.numpy() ** 2).sum())

        def loss_w(v):
            o = F.conv1d(Tensor(x_val), Tensor(v), Tensor(b_val), padding=1)
            return float((o.numpy() ** 2).sum())

        assert np.allclose(x.grad, numeric_gradient(loss_x, x_val), atol=1e-4)
        assert np.allclose(w.grad, numeric_gradient(loss_w, w_val), atol=1e-4)

    def test_dilation(self):
        x = Tensor(np.zeros((1, 1, 10)))
        w = Tensor(np.zeros((1, 1, 3)))
        assert F.conv1d(x, w, dilation=2).shape == (1, 1, 6)


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        value = np.random.default_rng(2).normal(size=(5, 4))
        out = F.softmax(Tensor(value), axis=-1).numpy()
        assert np.allclose(out.sum(axis=1), 1.0)
        assert (out > 0).all()

    def test_softmax_invariant_to_shift(self):
        value = np.random.default_rng(3).normal(size=(2, 6))
        a = F.softmax(Tensor(value)).numpy()
        b = F.softmax(Tensor(value + 100.0)).numpy()
        assert np.allclose(a, b)

    def test_log_softmax_matches_log_of_softmax(self):
        value = np.random.default_rng(4).normal(size=(3, 5))
        assert np.allclose(
            F.log_softmax(Tensor(value)).numpy(),
            np.log(F.softmax(Tensor(value)).numpy()),
        )

    def test_softmax_gradient_sums_to_zero(self):
        t = Tensor(np.random.default_rng(5).normal(size=(1, 4)), requires_grad=True)
        F.softmax(t)[0, 0].backward()
        assert abs(t.grad.sum()) < 1e-8


class TestDropoutAndLinear:
    def test_dropout_disabled_in_eval(self):
        x = Tensor(np.ones((4, 4)))
        out = F.dropout(x, 0.5, training=False)
        assert np.allclose(out.numpy(), 1.0)

    def test_dropout_scales_kept_units(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((1000,)))
        out = F.dropout(x, 0.5, training=True, rng=rng).numpy()
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)
        assert 0.3 < (out > 0).mean() < 0.7

    def test_dropout_default_rng_is_seeded_and_deterministic(self):
        """Regression: the no-rng fallback must use the thread-local seeded
        stream (repro.nn.init.get_rng), not a fresh unseeded generator."""
        from repro.nn.init import set_seed

        x = Tensor(np.ones((64, 8)))
        set_seed(123)
        first = F.dropout(x, 0.5, training=True).numpy()
        set_seed(123)
        second = F.dropout(x, 0.5, training=True).numpy()
        assert np.array_equal(first, second)

        set_seed(124)
        other = F.dropout(x, 0.5, training=True).numpy()
        assert not np.array_equal(first, other)
        set_seed(0)  # restore the thread default for later tests

    def test_linear_2d(self):
        x = Tensor(np.ones((2, 3)))
        w = Tensor(np.ones((4, 3)))
        b = Tensor(np.arange(4, dtype=float))
        out = F.linear(x, w, b).numpy()
        assert out.shape == (2, 4)
        assert np.allclose(out[0], 3.0 + np.arange(4))

    def test_linear_3d(self):
        x = Tensor(np.ones((2, 5, 3)))
        w = Tensor(np.ones((4, 3)))
        assert F.linear(x, w).shape == (2, 5, 4)

    def test_cosine_similarity_diagonal_is_one(self):
        value = np.random.default_rng(6).normal(size=(4, 8))
        sim = F.cosine_similarity_matrix(Tensor(value), Tensor(value)).numpy()
        assert np.allclose(np.diag(sim), 1.0, atol=1e-6)
        assert (sim <= 1.0 + 1e-9).all()
