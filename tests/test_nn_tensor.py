"""Tests for the autodiff tensor engine (repro.nn.tensor)."""

import itertools

import numpy as np
import pytest

from repro import nn
from repro.accel.precision import use_precision
from repro.nn.tensor import Tensor, concatenate


def numeric_gradient(fn, value, eps=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    value = np.asarray(value, dtype=np.float64)
    grad = np.zeros_like(value)
    it = np.nditer(value, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = value.copy()
        plus[idx] += eps
        minus = value.copy()
        minus[idx] -= eps
        grad[idx] = (fn(plus) - fn(minus)) / (2 * eps)
        it.iternext()
    return grad


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_detach_breaks_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert np.shares_memory(d.data, t.data)

    def test_item_scalar(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 5)))
        assert len(t) == 4
        assert t.size == 20
        assert t.ndim == 2


class TestArithmeticGradients:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [3.0, 4.0])
        assert np.allclose(b.grad, [1.0, 2.0])

    def test_sub_and_neg(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).backward()
        assert np.allclose(a.grad, [1.0])
        assert np.allclose(b.grad, [-1.0])

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-1.5])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward()
        assert np.allclose(a.grad, [6.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_radd_rmul_scalars(self):
        a = Tensor([2.0], requires_grad=True)
        (3.0 + 2.0 * a).backward()
        assert np.allclose(a.grad, [2.0])

    def test_rsub_rtruediv(self):
        a = Tensor([2.0], requires_grad=True)
        out = 1.0 - a
        out.backward()
        assert np.allclose(a.grad, [-1.0])
        b = Tensor([4.0], requires_grad=True)
        (8.0 / b).backward()
        assert np.allclose(b.grad, [-0.5])

    def test_broadcast_add_unbroadcasts_gradient(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)

    def test_broadcast_mul_keepdims_axis(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.full((2, 1), 2.0), requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 3.0)

    def test_gradient_accumulates_across_uses(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2 + a * 3).backward()
        assert np.allclose(a.grad, [5.0])


class TestMatmulGradients:
    def test_matmul_2d_matches_numeric(self):
        rng = np.random.default_rng(0)
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 2))

        a = Tensor(a_val, requires_grad=True)
        b = Tensor(b_val, requires_grad=True)
        (a @ b).sum().backward()

        num_a = numeric_gradient(lambda v: (v @ b_val).sum(), a_val)
        num_b = numeric_gradient(lambda v: (a_val @ v).sum(), b_val)
        assert np.allclose(a.grad, num_a, atol=1e-5)
        assert np.allclose(b.grad, num_b, atol=1e-5)

    def test_matmul_batched(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4, 5)), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (2, 3, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_no_grad_2d_rows_are_batch_independent(self):
        """Inference rows match one-row products bitwise at any row count;
        with gradients on, the product stays the plain one-GEMM batch."""
        rng = np.random.default_rng(2)
        for k in (1, 3, 7, 16, 33, 64, 127, 257):
            for m in (1, 4, 12, 64, 100):
                a, b = rng.normal(size=(130, k)), rng.normal(size=(k, m))
                assert np.array_equal(Tensor(a).matmul(Tensor(b)).numpy(), a @ b)
                with nn.no_grad():
                    single = np.vstack([Tensor(a[i:i + 1]).matmul(Tensor(b)).numpy()
                                        for i in range(len(a))])
                    for n in (2, 3, 7, 31, 64, 65, 130):
                        assert np.array_equal(Tensor(a[:n]).matmul(Tensor(b)).numpy(),
                                              single[:n]), (k, m, n)


class TestNonLinearities:
    @pytest.mark.parametrize("op", ["exp", "log", "tanh", "sigmoid", "relu", "gelu", "sqrt"])
    def test_unary_matches_numeric(self, op):
        rng = np.random.default_rng(2)
        value = rng.uniform(0.2, 2.0, size=(4,))  # positive so log/sqrt are safe
        t = Tensor(value, requires_grad=True)
        getattr(t, op)().sum().backward()
        numeric = numeric_gradient(lambda v: getattr(Tensor(v), op)().sum().item(), value)
        assert np.allclose(t.grad, numeric, atol=1e-4)

    def test_relu_zero_gradient_for_negatives(self):
        t = Tensor([-1.0, 2.0], requires_grad=True)
        t.relu().sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        t = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        out = t.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(t.grad, 1.0)

    def test_mean_gradient_scaled(self):
        t = Tensor(np.ones((2, 4)), requires_grad=True)
        t.mean().backward()
        assert np.allclose(t.grad, 1.0 / 8)

    def test_mean_axis_tuple(self):
        t = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = t.mean(axis=(0, 2))
        assert out.shape == (3,)
        out.sum().backward()
        assert np.allclose(t.grad, 1.0 / 8)

    def test_var_matches_numpy(self):
        value = np.random.default_rng(3).normal(size=(5, 7))
        assert np.allclose(Tensor(value).var(axis=1).numpy(), value.var(axis=1))

    def test_max_gradient_goes_to_argmax(self):
        t = Tensor([[1.0, 5.0, 3.0]], requires_grad=True)
        t.max(axis=1).sum().backward()
        assert np.allclose(t.grad, [[0.0, 1.0, 0.0]])

    def test_max_ties_split_gradient(self):
        t = Tensor([[2.0, 2.0]], requires_grad=True)
        t.max(axis=1).sum().backward()
        assert np.allclose(t.grad.sum(), 1.0)


class TestShapeOps:
    def test_reshape_backward(self):
        t = Tensor(np.arange(6, dtype=float), requires_grad=True)
        t.reshape(2, 3).sum().backward()
        assert t.grad.shape == (6,)

    def test_transpose_roundtrip(self):
        value = np.random.default_rng(5).normal(size=(2, 3, 4))
        t = Tensor(value, requires_grad=True)
        t.transpose((2, 0, 1)).sum().backward()
        assert t.grad.shape == value.shape

    def test_swapaxes(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.swapaxes(1, 2).shape == (2, 4, 3)

    def test_getitem_backward_scatter(self):
        t = Tensor(np.arange(5, dtype=float), requires_grad=True)
        t[np.array([0, 0, 2])].sum().backward()
        assert np.allclose(t.grad, [2.0, 0.0, 1.0, 0.0, 0.0])

    def test_slice_backward(self):
        t = Tensor(np.arange(8, dtype=float), requires_grad=True)
        t[2:5].sum().backward()
        expected = np.zeros(8)
        expected[2:5] = 1.0
        assert np.allclose(t.grad, expected)

    def test_pad1d(self):
        t = Tensor(np.ones((1, 2, 4)), requires_grad=True)
        out = t.pad1d(2, 3)
        assert out.shape == (1, 2, 9)
        out.sum().backward()
        assert np.allclose(t.grad, 1.0)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_pad1d_equals_np_pad(self, precision):
        rng = np.random.default_rng(1)
        with use_precision(precision):
            for shape, left, right in itertools.product(
                    [(5,), (2, 5), (3, 2, 7)], [0, 1, 3], [0, 2]):
                value = rng.normal(size=shape)
                value[value < -0.8] = -0.0
                for data in (value, np.asfortranarray(value)):
                    t = Tensor(data, requires_grad=True)
                    out = t.pad1d(left, right)
                    expected = np.pad(t.data, [(0, 0)] * (t.ndim - 1) + [(left, right)])
                    assert out.dtype == expected.dtype == np.dtype(precision)
                    assert out.data.tobytes() == expected.tobytes(), (shape, left, right)
                    grad = rng.normal(size=out.shape).astype(out.dtype)
                    out.backward(grad)
                    assert t.grad.tobytes() == grad[..., left:left + shape[-1]].tobytes()


class TestGraphUtilities:
    def test_no_grad_disables_tracking(self):
        with nn.no_grad():
            t = Tensor([1.0], requires_grad=True)
            out = t * 2
        assert not t.requires_grad
        assert not out.requires_grad

    def test_concatenate_backward(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        concatenate([a, b], axis=0).sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (3, 2)

    def test_backward_on_nonscalar_requires_matching_grad(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = t * 3
        out.backward(np.ones((2, 2)) * 2)
        assert np.allclose(t.grad, 6.0)

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3
        z = y + y  # two paths through y
        z.backward()
        assert np.allclose(x.grad, [6.0])

    def test_repeated_backward_accumulates_into_leaves(self):
        a = Tensor([1.0], requires_grad=True)
        y = (a * 2).sum()
        y.backward()
        y.backward()
        assert np.array_equal(a.grad, [4.0])

    def test_interior_gradients_are_dropped_once_consumed(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        hidden = a * 3
        loss = (hidden * hidden).sum()
        loss.backward()
        assert hidden.grad is None and loss.grad is None
        assert np.array_equal(a.grad, [18.0, 36.0])

    def test_constant_inputs_record_no_graph(self):
        out = (Tensor([1.0, 2.0]) * 2).exp().sum()
        assert not out.requires_grad
        assert out._prev == () and out._vjps == ()
        with nn.no_grad():
            out = (Tensor([1.0], requires_grad=True) * 2).sum()
        assert not out.requires_grad
        assert out._prev == () and out._vjps == ()


class TestAccumulate:
    """A node's first gradient is stored as ``0.0 + grad`` in a fresh array
    of the node's dtype; later ones are added in place."""

    def test_a_negative_zero_gradient_is_stored_as_positive_zero(self):
        leaf = Tensor([1.0, 2.0], requires_grad=True)
        leaf.backward(np.array([-0.0, 3.0]))
        assert leaf.grad.tobytes() == np.array([0.0, 3.0]).tobytes()
        inner = Tensor([1.0, -2.0], requires_grad=True)
        (inner * -0.0).sum().backward()  # both VJP entries are -0.0
        assert not np.signbit(inner.grad).any()

    def test_a_second_backward_does_not_write_through_returned_views(self):
        """``reshape``, ``pad1d``'s slice and ``concatenate``'s pieces hand
        their parents views of the gradient they were given; a stored
        gradient that adopted one would carry a second ``backward``'s
        ``+=`` into the caller's array."""
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 2, 1)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 2, 3)), requires_grad=True)
        out = concatenate([a.reshape(2, 2, 3), b.pad1d(1, 1), c], axis=1)
        grad = rng.normal(size=out.shape)
        before = grad.copy()
        out.backward(grad)
        first = [t.grad.copy() for t in (a, b, c)]
        assert not any(np.shares_memory(t.grad, grad) for t in (a, b, c))
        out.backward(grad)
        assert grad.tobytes() == before.tobytes()
        for t, once in zip((a, b, c), first):
            assert t.grad.tobytes() == (once + once).tobytes()

    def test_a_float64_gradient_is_stored_in_a_float32_leaf_dtype(self):
        with use_precision("float32"):
            leaf = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        grad = np.array([0.1, -1.0 / 3.0, 1e-40])
        leaf.backward(grad)
        assert leaf.grad.dtype == np.float32
        assert leaf.grad.tobytes() == grad.astype(np.float32).tobytes()
