"""Tests for repro.nn.functional (conv1d, softmax, dropout...)."""

import itertools

import numpy as np
import pytest

from repro import nn
from repro.accel.precision import use_precision
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


def _index_gather(x, kernel, stride, dilation):
    """The fancy-index im2col that ``_im2col_1d`` replaced.

    The gather lays its result out in (K, L_out, N, C) memory order; the
    reshape copies it C-contiguous, except where C or K is 1, where it is a
    view of that order.
    """
    n, c, length = x.shape
    l_out = (length - (kernel - 1) * dilation - 1) // stride + 1
    idx = np.arange(kernel)[:, None] * dilation + np.arange(l_out)[None, :] * stride
    return x[:, :, idx].reshape(n, c * kernel, l_out)


def _add_at_col2im(gcols, x_shape, padding, kernel, stride, dilation):
    """The input gradient from (N, C * K, L_out) column gradients: one
    ``np.add.at`` over the (L_out, K) index grid, added into zeros."""
    n, c, length = x_shape
    l_out = gcols.shape[2]
    gcols = gcols.reshape(n, c, kernel, l_out).transpose(0, 1, 3, 2)
    padded = np.zeros((n, c, length + 2 * padding), dtype=gcols.dtype)
    idx = np.arange(kernel)[None, :] * dilation + np.arange(l_out)[:, None] * stride
    np.add.at(padded, (slice(None), slice(None), idx), gcols)
    return np.zeros(x_shape, dtype=gcols.dtype) + padded[..., padding:padding + length]


def _geometries(stride):
    """col2im's grid (dilation 1-3, padding 0-2, kernel 1-9) with one and two
    input channels and one and three output positions:
    ``(dilation, padding, kernel, c_in, length)``."""
    for dilation, padding, kernel, c_in, l_out in itertools.product(
            [1, 2, 3], [0, 1, 2], range(1, 10), [1, 2], [1, 3]):
        length = (kernel - 1) * dilation + 1 + (l_out - 1) * stride - 2 * padding
        if length >= 1:
            yield dilation, padding, kernel, c_in, length


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

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 8])
    def test_input_gradient_matches_add_at_col2im(self, precision, stride):
        """col2im by per-tap slice-adds is byte-equal to one ``np.add.at``
        over the (L_out, K) index grid (stride 8 with kernel 8 is the
        Transformer stem's default patch)."""
        with use_precision(precision):
            for dilation, padding, kernel in itertools.product([1, 2, 3], [0, 1, 2], range(1, 10)):
                rng = np.random.default_rng([stride, dilation, padding, kernel])
                length = (kernel - 1) * dilation + 3 * stride + 2
                x = Tensor(rng.normal(size=(3, 2, length)), requires_grad=True)
                w = Tensor(rng.normal(size=(4, 2, kernel)))
                out = F.conv1d(x, w, stride=stride, padding=padding, dilation=dilation)
                grad = rng.normal(size=out.shape).astype(out.dtype)
                out.backward(grad)

                gcols = np.einsum("ok,nol->nkl", w.data.reshape(4, 2 * kernel), grad, optimize=True)
                expected = _add_at_col2im(gcols, x.shape, padding, kernel, stride, dilation)
                assert x.grad.dtype == np.dtype(precision)
                assert x.grad.tobytes() == expected.tobytes(), (dilation, padding, kernel)


class TestConv1dKernelReferences:
    """``conv1d``'s kernels are byte-equal to the expressions they replaced:
    the fancy-index gather, ``np.pad`` and ``np.einsum(..., optimize=True)``."""

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 8])
    def test_im2col_equals_the_index_gather_in_value_and_layout(self, precision, stride):
        """One strided copy with the gather's layout, so the forward GEMM
        reads the same memory order: C-contiguous where C and K exceed 1.
        An input whose channels are innermost gives the same columns."""
        dtype = np.dtype(precision)
        for dilation, padding, kernel, c_in, length in _geometries(stride):
            rng = np.random.default_rng([stride, dilation, padding, kernel, c_in])
            x = rng.normal(size=(3, c_in, length + 2 * padding)).astype(dtype)
            for data in (x, np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)):
                cols, l_out = F._im2col_1d(data, kernel, stride, dilation)
                expected = _index_gather(data, kernel, stride, dilation)
                assert cols.shape == expected.shape and l_out == expected.shape[2]
                assert cols.strides == expected.strides, (dilation, padding, kernel, c_in)
                assert cols.tobytes() == expected.tobytes()
                assert cols.flags.c_contiguous or c_in == 1 or kernel == 1

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("stride", [1, 2, 3, 4, 8])
    def test_forward_and_vjps_equal_the_gather_gemm_and_einsum(self, precision, stride):
        with use_precision(precision):
            for (dilation, padding, kernel, c_in, length), c_out in itertools.product(
                    _geometries(stride), [1, 4]):
                rng = np.random.default_rng([stride, dilation, padding, kernel, c_in, c_out])
                x = Tensor(rng.normal(size=(3, c_in, length)), requires_grad=True)
                w = Tensor(rng.normal(size=(c_out, c_in, kernel)), requires_grad=True)
                b = Tensor(rng.normal(size=c_out), requires_grad=True)
                out = F.conv1d(x, w, b, stride=stride, padding=padding, dilation=dilation)
                grad = rng.normal(size=out.shape).astype(out.dtype)
                out.backward(grad)

                geometry = (dilation, padding, kernel, c_in, c_out)
                cols = _index_gather(np.pad(x.data, [(0, 0), (0, 0), (padding, padding)]),
                                     kernel, stride, dilation)
                w2d = w.data.reshape(c_out, c_in * kernel)
                expected = np.matmul(w2d, cols) + b.data[None, :, None]
                assert out.data.tobytes() == expected.tobytes(), geometry
                expected = np.einsum("nol,nkl->ok", grad, cols, optimize=True)
                expected = np.zeros_like(w.data) + expected.reshape(w.shape)
                assert w.grad.tobytes() == expected.tobytes(), geometry
                gcols = np.einsum("ok,nol->nkl", w2d, grad, optimize=True)
                expected = _add_at_col2im(gcols, x.shape, padding, kernel, stride, dilation)
                assert x.grad.tobytes() == expected.tobytes(), geometry


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
