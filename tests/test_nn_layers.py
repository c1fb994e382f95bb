"""Tests for repro.nn.layers and the module system."""

import itertools

import numpy as np
import pytest

from repro import nn
from repro.accel.precision import use_precision
from repro.nn.tensor import Tensor, concatenate


class TestLinearAndConvModules:
    def test_linear_shapes(self):
        layer = nn.Linear(8, 3)
        out = layer(Tensor(np.zeros((5, 8))))
        assert out.shape == (5, 3)

    def test_linear_without_bias_has_single_parameter(self):
        layer = nn.Linear(4, 2, bias=False)
        assert len(layer.parameters()) == 1

    def test_conv1d_module(self):
        layer = nn.Conv1d(2, 6, kernel_size=3, padding=1)
        out = layer(Tensor(np.zeros((4, 2, 16))))
        assert out.shape == (4, 6, 16)

    def test_parameters_are_trainable(self):
        layer = nn.Linear(3, 3)
        for p in layer.parameters():
            assert p.requires_grad


class TestNormalisation:
    def test_batchnorm_normalises_batch(self):
        layer = nn.BatchNorm1d(4)
        x = Tensor(np.random.default_rng(0).normal(3.0, 2.0, size=(64, 4)))
        out = layer(x).numpy()
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_batchnorm_eval_uses_running_stats(self):
        layer = nn.BatchNorm1d(2)
        x = Tensor(np.random.default_rng(1).normal(5.0, 1.0, size=(32, 2)))
        for _ in range(40):
            layer(x)
        layer.eval()
        out = layer(Tensor(np.full((4, 2), 5.0))).numpy()
        # After many updates the running mean approaches 5, so a constant-5
        # input normalises to roughly zero in eval mode.
        assert np.all(np.abs(out) < 0.5)

    def test_batchnorm_3d_input(self):
        layer = nn.BatchNorm1d(3)
        out = layer(Tensor(np.random.default_rng(2).normal(size=(8, 3, 20))))
        assert out.shape == (8, 3, 20)

    def test_batchnorm_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            nn.BatchNorm1d(3)(Tensor(np.zeros(3)))

    def test_layernorm_normalises_last_dim(self):
        layer = nn.LayerNorm(16)
        out = layer(Tensor(np.random.default_rng(3).normal(2.0, 3.0, size=(4, 16)))).numpy()
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)


class TestActivationsAndDropout:
    def test_relu_module(self):
        assert np.allclose(nn.ReLU()(Tensor([-1.0, 2.0])).numpy(), [0.0, 2.0])

    def test_dropout_respects_training_flag(self):
        layer = nn.Dropout(0.9, seed=0)
        layer.eval()
        out = layer(Tensor(np.ones(100))).numpy()
        assert np.allclose(out, 1.0)


class TestSequentialAndModuleList:
    def test_sequential_chains(self):
        model = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        assert model(Tensor(np.zeros((3, 4)))).shape == (3, 2)
        assert len(model) == 3
        assert isinstance(model[0], nn.Linear)

    def test_sequential_collects_parameters(self):
        model = nn.Sequential(nn.Linear(4, 8), nn.Linear(8, 2))
        assert len(model.parameters()) == 4

    def test_module_list(self):
        items = nn.ModuleList([nn.Linear(2, 2), nn.Linear(2, 2)])
        assert len(items) == 2
        assert len(items.parameters()) == 4
        with pytest.raises(RuntimeError):
            items(Tensor(np.zeros((1, 2))))

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dropout(0.5), nn.Linear(2, 2))
        model.eval()
        assert not model[0].training
        model.train()
        assert model[0].training


class TestAttentionTransformerLSTM:
    def test_attention_output_shape(self):
        attn = nn.MultiHeadSelfAttention(16, 4)
        out = attn(Tensor(np.random.default_rng(5).normal(size=(2, 10, 16))))
        assert out.shape == (2, 10, 16)

    def test_attention_rejects_bad_heads(self):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(10, 3)

    def test_transformer_layer_gradients_flow(self):
        layer = nn.TransformerEncoderLayer(8, 2, dropout=0.0)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 6, 8)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in layer.parameters())

    def test_lstm_output_shape(self):
        lstm = nn.LSTM(3, 7)
        out = lstm(Tensor(np.random.default_rng(7).normal(size=(4, 9, 3))))
        assert out.shape == (4, 9, 7)

    def test_lstm_cell_state_shapes(self):
        cell = nn.LSTMCell(2, 5)
        h = Tensor(np.zeros((3, 5)))
        c = Tensor(np.zeros((3, 5)))
        h2, c2 = cell(Tensor(np.zeros((3, 2))), (h, c))
        assert h2.shape == (3, 5)
        assert c2.shape == (3, 5)

    def test_positional_encoding_adds_position_information(self):
        pe = nn.PositionalEncoding(8)
        x = Tensor(np.zeros((1, 5, 8)))
        out = pe(x).numpy()
        assert not np.allclose(out[0, 0], out[0, 1])


class TestStateDict:
    def test_state_dict_roundtrip(self):
        model = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        clone = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        clone.load_state_dict(model.state_dict())
        x = Tensor(np.random.default_rng(8).normal(size=(3, 4)))
        assert np.allclose(model(x).numpy(), clone(x).numpy())

    def test_state_dict_includes_buffers(self):
        bn = nn.BatchNorm1d(3)
        state = bn.state_dict()
        assert any(key.startswith("__buffer__.") for key in state)

    def test_load_state_dict_shape_mismatch_raises(self):
        model = nn.Linear(4, 2)
        bad = {"weight": np.zeros((3, 3)), "bias": np.zeros(2)}
        with pytest.raises(ValueError):
            model.load_state_dict(bad)

    def test_load_state_dict_unknown_key_raises(self):
        with pytest.raises(KeyError):
            nn.Linear(2, 2).load_state_dict({"nope": np.zeros(2)})

    def test_zero_grad_clears(self):
        model = nn.Linear(3, 1)
        out = model(Tensor(np.ones((2, 3))))
        out.sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None


def _unrolled(lstm, x):
    """The reference: ``lstm``'s cell unrolled through the graph, one node per op and step."""
    n, steps, _ = x.shape
    h = Tensor(np.zeros((n, lstm.hidden_size)))
    c = Tensor(np.zeros((n, lstm.hidden_size)))
    outputs = []
    for step in range(steps):
        h, c = lstm.cell(x[:, step, :], (h, c))
        outputs.append(h.reshape(n, 1, lstm.hidden_size))
    return concatenate(outputs, axis=1)


def _bytes(arrays):
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _run(forward, lstm, x_value, weights, x_grad=False):
    """Bytes of ``forward``'s output and of the gradients of ``(output * weights).sum()``:
    the parameters' (``None`` for a frozen one), then ``x``'s if it requires one."""
    lstm.zero_grad()
    x = Tensor(x_value, requires_grad=x_grad)
    out = forward(x)
    (out * Tensor(weights)).sum().backward()
    grads = [p.grad for p in lstm.parameters()] + ([x.grad] if x_grad else [])
    return _bytes([out.data]), _bytes(grads)


def _lstm_case(n, steps, d, h, seed=0):
    nn.init.set_seed(seed)
    lstm = nn.LSTM(d, h)
    rng = np.random.default_rng([n, steps, d, h, seed])
    return lstm, rng.normal(size=(n, steps, d)), rng.normal(size=(n, steps, h))


class TestFusedLSTM:
    """``nn.LSTM`` runs one fused ``functional.lstm`` node per sequence; it must
    be byte-equal to ``LSTMCell`` unrolled through the graph, over a bounded
    grid of shapes and both precisions."""

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    @pytest.mark.parametrize("steps", [1, 2, 5, 16, 40])
    def test_matches_unrolled_cells(self, precision, n, steps):
        with use_precision(precision):
            for d, h in itertools.product([1, 3], [4, 16]):
                lstm, x_value, weights = _lstm_case(n, steps, d, h)
                fused = _run(lstm, lstm, x_value, weights)
                reference = _run(lambda x: _unrolled(lstm, x), lstm, x_value, weights)
                assert fused[0][0][0] == np.dtype(precision).str
                assert fused == reference, (d, h)
                with nn.no_grad():
                    assert _bytes([lstm(Tensor(x_value)).data]) == \
                        _bytes([_unrolled(lstm, Tensor(x_value)).data]), (d, h)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_last_state_loss_matches_unrolled(self, precision):
        # LSTM-AD and the LSTM selector read only the last step's state.
        with use_precision(precision):
            lstm, x_value, weights = _lstm_case(64, 16, 1, 16)
            last = weights[:, -1, :]

            def run(forward):
                lstm.zero_grad()
                (forward(Tensor(x_value))[:, -1, :] * Tensor(last)).sum().backward()
                return _bytes([p.grad for p in lstm.parameters()])

            assert run(lstm) == run(lambda x: _unrolled(lstm, x))

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_input_gradient_matches_unrolled(self, precision):
        with use_precision(precision):
            for n, steps, d, h in [(1, 1, 1, 4), (7, 5, 3, 4), (64, 16, 3, 16)]:
                lstm, x_value, weights = _lstm_case(n, steps, d, h)
                fused = _run(lstm, lstm, x_value, weights, x_grad=True)
                assert fused[1][-1] is not None
                assert fused == _run(lambda x: _unrolled(lstm, x), lstm, x_value, weights, x_grad=True)

    @pytest.mark.parametrize("frozen", [("weight_hh",), ("weight_ih", "bias"),
                                        ("weight_ih", "weight_hh", "bias")])
    def test_frozen_parameters(self, frozen):
        lstm, x_value, weights = _lstm_case(7, 5, 3, 4)
        for name in frozen:
            getattr(lstm.cell, name).requires_grad = False
        x_grad = len(frozen) == 3  # with every parameter frozen, only x needs a gradient
        fused = _run(lstm, lstm, x_value, weights, x_grad=x_grad)
        names = ["weight_ih", "weight_hh", "bias"]
        assert [g is None for g in fused[1][:3]] == [name in frozen for name in names]
        assert fused == _run(lambda x: _unrolled(lstm, x), lstm, x_value, weights, x_grad=x_grad)

    def test_second_backward_recomputes_the_bptt(self):
        lstm, x_value, weights = _lstm_case(7, 5, 3, 4)
        other = np.random.default_rng(1).normal(size=weights.shape)
        expected = {}
        for name, value in (("weights", weights), ("other", other)):
            _run(lambda x: _unrolled(lstm, x), lstm, x_value, value)
            expected[name] = [p.grad for p in lstm.parameters()]
        lstm.zero_grad()
        out = lstm(Tensor(x_value))
        (out * Tensor(weights)).sum().backward()
        lstm.zero_grad()
        (out * Tensor(other)).sum().backward()  # the same graph, a new output gradient
        assert _bytes([p.grad for p in lstm.parameters()]) == _bytes(expected["other"])
        (out * Tensor(weights)).sum().backward()  # without zero_grad, it adds to the leaves
        for p, a, b in zip(lstm.parameters(), expected["weights"], expected["other"]):
            assert np.allclose(p.grad, a + b)

    def test_one_node_per_sequence(self):
        lstm = nn.LSTM(3, 4)
        x = Tensor(np.ones((2, 6, 3)))
        out = lstm(x)
        assert out._prev == (x, lstm.cell.weight_ih, lstm.cell.weight_hh, lstm.cell.bias)
        with nn.no_grad():
            assert lstm(x)._prev == ()

    def test_state_dict_keys_are_the_cell_parameters(self):
        # stored LSTM selectors load by these keys
        assert sorted(nn.LSTM(1, 8).state_dict()) == ["cell.bias", "cell.weight_hh", "cell.weight_ih"]


def _unrolled_batch_norm(self, x):
    """The reference: ``BatchNorm1d.forward`` as it was built from ``Tensor``
    ops, one graph node per op (``self`` is the module)."""
    if x.ndim == 3:
        reduce_axes = (0, 2)
        shape = (1, self.num_features, 1)
    elif x.ndim == 2:
        reduce_axes = (0,)
        shape = (1, self.num_features)
    else:
        raise ValueError(f"BatchNorm1d expects 2-D or 3-D input, got {x.ndim}-D")

    if self.training:
        mean = x.mean(axis=reduce_axes, keepdims=True)
        var = x.var(axis=reduce_axes, keepdims=True)
        self.update_buffer(
            "running_mean",
            (1 - self.momentum) * self._buffers["running_mean"] + self.momentum * mean.data.reshape(-1),
        )
        self.update_buffer(
            "running_var",
            (1 - self.momentum) * self._buffers["running_var"] + self.momentum * var.data.reshape(-1),
        )
    else:
        mean = Tensor(self._buffers["running_mean"].reshape(shape))
        var = Tensor(self._buffers["running_var"].reshape(shape))

    normed = (x - mean) / (var + self.eps) ** 0.5
    return normed * self.weight.reshape(shape) + self.bias.reshape(shape)


#: every (N, C, L) of the grid; L is None for a 2-D (N, C) input
_BN_SHAPES = [(n, c, length) for n, c, length in itertools.product(
    [1, 2, 7, 64], [1, 3, 12], [None, 1, 5, 96])]
#: (policy, the policy the module is built under)
_BN_PRECISIONS = [("float64", "float64"), ("float32", "float32"), ("float32", "float64")]


def _bn_case(n, c, length, parameters, seed=0):
    """A module built under ``parameters`` with drawn parameters and running
    statistics; an input with a constant and an all-zero channel; output
    weights holding exact zeros and -0.0."""
    rng = np.random.default_rng([n, c, length or 0, seed])
    with use_precision(parameters):
        bn = nn.BatchNorm1d(c)
    bn.weight.data[...] = rng.normal(1.0, 0.5, size=c)
    bn.bias.data[...] = rng.normal(0.0, 0.5, size=c)
    bn.update_buffer("running_mean", rng.normal(size=c))
    bn.update_buffer("running_var", rng.uniform(0.2, 3.0, size=c))
    shape = (n, c) if length is None else (n, c, length)
    x_value = rng.normal(3.0, 2.0, size=shape)
    if c > 1:
        x_value[:, 0] = 1.25
    if c > 2:
        x_value[:, -1] = 0.0
    weights = rng.normal(size=shape)
    weights[rng.random(shape) < 0.25] = 0.0
    weights[rng.random(shape) < 0.25] = -0.0
    return bn, x_value, weights


def _bn_run(forward, bn, x_value, weights, x_grad):
    """Bytes of ``forward``'s output and the running statistics after it, and
    of the gradients of ``(output * weights).sum()``: weight's and bias's
    (``None`` when frozen), then x's if it requires one.  The module's
    running statistics are restored afterwards."""
    bn.zero_grad()
    buffers = dict(bn._buffers)
    x = Tensor(x_value, requires_grad=x_grad)
    out = forward(x)
    (out * Tensor(weights)).sum().backward()
    state = _bytes([out.data, bn.running_mean, bn.running_var])
    for name, value in buffers.items():
        bn.update_buffer(name, value)
    grads = [bn.weight.grad, bn.bias.grad] + ([x.grad] if x_grad else [])
    return state, _bytes(grads)


class TestFusedBatchNorm:
    """``nn.BatchNorm1d`` runs one ``functional.batch_norm`` node; it must be
    byte-equal to the graph its forward used to build, in outputs, running
    statistics and every gradient, over a grid fixed in advance."""

    @pytest.mark.parametrize("precision, parameters", _BN_PRECISIONS)
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("frozen", [(), ("weight",), ("bias",), ("weight", "bias")])
    def test_matches_the_unrolled_graph(self, precision, parameters, training, x_grad, frozen):
        with use_precision(precision):
            for n, c, length in _BN_SHAPES:
                bn, x_value, weights = _bn_case(n, c, length, parameters)
                bn.train(training)
                for name in frozen:
                    getattr(bn, name).requires_grad = False
                fused = _bn_run(bn, bn, x_value, weights, x_grad)
                reference = _bn_run(lambda x: _unrolled_batch_norm(bn, x), bn, x_value, weights,
                                    x_grad)
                assert fused[0][0][0] == np.dtype(precision).str
                assert [g is None for g in fused[1][:2]] == [name in frozen for name in
                                                             ("weight", "bias")]
                assert fused == reference, (n, c, length)

    @pytest.mark.parametrize("training", [True, False])
    def test_inference_matches_the_unrolled_graph(self, training):
        for precision, parameters in _BN_PRECISIONS:
            with use_precision(precision), nn.no_grad():
                for n, c, length in _BN_SHAPES:
                    bn, x_value, _ = _bn_case(n, c, length, parameters)
                    bn.train(training)
                    fused = _bytes([bn(Tensor(x_value)).data, bn.running_mean, bn.running_var])
                    bn.load_state_dict(_bn_case(n, c, length, parameters)[0].state_dict())
                    reference = _bytes([_unrolled_batch_norm(bn, Tensor(x_value)).data,
                                        bn.running_mean, bn.running_var])
                    assert fused == reference, (precision, parameters, n, c, length)

    @pytest.mark.parametrize("training", [True, False])
    def test_float64_input_under_the_float32_policy(self, training):
        # x's gradient sums its terms in x's dtype, as its accumulation does
        for n, c, length in [(7, 3, 5), (64, 12, 96), (2, 3, None)]:
            bn, x_value, weights = _bn_case(n, c, length, "float64")
            bn.train(training)

            def run(forward):
                bn.zero_grad()
                x = Tensor(x_value, requires_grad=True)  # built under float64
                with use_precision("float32"):
                    out = forward(x)
                    (out * Tensor(weights)).sum().backward()
                return _bytes([out.data, x.grad, bn.weight.grad, bn.bias.grad])

            buffers = dict(bn._buffers)
            fused = run(bn)
            for name, value in buffers.items():
                bn.update_buffer(name, value)
            assert fused == run(lambda x: _unrolled_batch_norm(bn, x)), (n, c, length)

    def test_second_backward_over_one_graph(self):
        bn, x_value, weights = _bn_case(7, 3, 5, "float64")
        other = np.random.default_rng(1).normal(size=weights.shape)
        expected = {}
        for name, value in (("weights", weights), ("other", other)):
            expected[name] = _bn_run(lambda x: _unrolled_batch_norm(bn, x), bn, x_value, value,
                                     x_grad=True)[1]
        bn.zero_grad()
        x = Tensor(x_value, requires_grad=True)
        out = bn(x)
        (out * Tensor(weights)).sum().backward()
        bn.zero_grad()
        x.grad = None
        (out * Tensor(other)).sum().backward()  # the same graph, a new output gradient
        assert _bytes([bn.weight.grad, bn.bias.grad, x.grad]) == expected["other"]
        (out * Tensor(weights)).sum().backward()  # without zero_grad, it adds to the leaves
        for grad, a, b in zip([bn.weight.grad, bn.bias.grad, x.grad], expected["weights"],
                              expected["other"]):
            a, b = (np.frombuffer(v[2], dtype=v[0]).reshape(v[1]) for v in (a, b))
            assert np.allclose(grad, a + b)

    def test_one_node_per_call(self):
        bn = nn.BatchNorm1d(3)
        x = Tensor(np.ones((2, 3, 6)))
        for training in (True, False):
            bn.train(training)
            assert bn(x)._prev == (x, bn.weight, bn.bias)
            with nn.no_grad():
                assert bn(x)._prev == ()
