"""Tests for repro.nn.layers and the module system."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


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
