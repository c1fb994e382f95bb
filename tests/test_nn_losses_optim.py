"""Tests for losses, optimizers and serialization of repro.nn."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = nn.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-4

    def test_uniform_prediction_equals_log_classes(self):
        logits = Tensor(np.zeros((4, 5)))
        loss = nn.cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert loss.item() == pytest.approx(np.log(5), abs=1e-6)

    def test_reduction_none_returns_per_sample(self):
        logits = Tensor(np.zeros((3, 2)))
        loss = nn.cross_entropy(logits, np.array([0, 1, 0]), reduction="none")
        assert loss.shape == (3,)

    def test_reduction_sum(self):
        logits = Tensor(np.zeros((3, 2)))
        total = nn.cross_entropy(logits, np.array([0, 1, 0]), reduction="sum")
        assert total.item() == pytest.approx(3 * np.log(2))

    def test_unknown_reduction_raises(self):
        with pytest.raises(ValueError):
            nn.cross_entropy(Tensor(np.zeros((1, 2))), np.array([0]), reduction="bogus")

    def test_sample_weights_scale_loss(self):
        logits = Tensor(np.zeros((2, 2)))
        weighted = nn.cross_entropy(logits, np.array([0, 1]), reduction="sum", weights=np.array([2.0, 0.0]))
        assert weighted.item() == pytest.approx(2 * np.log(2))

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(np.array([[1.0, 2.0, 0.5]]), requires_grad=True)
        nn.cross_entropy(logits, np.array([1])).backward()
        probs = np.exp(logits.data) / np.exp(logits.data).sum()
        expected = probs.copy()
        expected[0, 1] -= 1.0
        assert np.allclose(logits.grad, expected, atol=1e-8)


class TestSoftCrossEntropy:
    def test_matches_hard_ce_for_onehot_targets(self):
        rng = np.random.default_rng(0)
        logits_value = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        onehot = np.eye(4)[labels]
        hard = nn.cross_entropy(Tensor(logits_value), labels).item()
        soft = nn.soft_cross_entropy(Tensor(logits_value), onehot).item()
        assert hard == pytest.approx(soft, abs=1e-9)

    def test_minimised_when_prediction_matches_target(self):
        target = np.array([[0.7, 0.2, 0.1]])
        matching_logits = Tensor(np.log(target), requires_grad=True)
        loss_match = nn.soft_cross_entropy(matching_logits, target).item()
        loss_other = nn.soft_cross_entropy(Tensor(np.array([[0.0, 5.0, 0.0]])), target).item()
        assert loss_match < loss_other

    def test_per_sample_weights(self):
        logits = Tensor(np.zeros((2, 3)))
        target = np.full((2, 3), 1.0 / 3)
        loss = nn.soft_cross_entropy(logits, target, reduction="sum", weights=np.array([0.0, 1.0]))
        assert loss.item() == pytest.approx(np.log(3))


class TestInfoNCE:
    def test_identical_views_give_low_loss(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(16, 8))
        loss_same = nn.info_nce(Tensor(z), Tensor(z), temperature=0.05).item()
        loss_rand = nn.info_nce(Tensor(z), Tensor(rng.normal(size=(16, 8))), temperature=0.05).item()
        assert loss_same < loss_rand

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            nn.info_nce(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 5))))

    def test_reduction_none_per_pair(self):
        z = np.random.default_rng(2).normal(size=(5, 6))
        loss = nn.info_nce(Tensor(z), Tensor(z), reduction="none")
        assert loss.shape == (5,)

    def test_gradients_flow_to_both_views(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        nn.info_nce(a, b).backward()
        assert a.grad is not None and b.grad is not None


class TestOptimizers:
    def _quadratic_problem(self):
        target = np.array([3.0, -2.0])
        param = nn.Parameter(np.zeros(2))
        return param, target

    def test_adam_converges(self):
        param, target = self._quadratic_problem()
        opt = nn.Adam([param], lr=0.1)
        for _ in range(300):
            loss = ((param - Tensor(target)) ** 2).sum()
            opt.zero_grad(); loss.backward(); opt.step()
        assert np.allclose(param.data, target, atol=1e-2)

    def test_weight_decay_pulls_toward_zero(self):
        param = nn.Parameter(np.full(2, 5.0))
        opt = nn.Adam([param], lr=0.1, weight_decay=0.5)
        loss = (param * 0.0).sum()
        opt.zero_grad(); loss.backward(); opt.step()
        assert np.all(param.data < 5.0)

    def test_optimizer_requires_trainable_params(self):
        frozen = nn.Parameter(np.zeros(2))
        frozen.requires_grad = False
        with pytest.raises(ValueError):
            nn.Adam([frozen], lr=0.1)

    def test_clip_grad_norm(self):
        param = nn.Parameter(np.zeros(4))
        param.grad = np.full(4, 100.0)
        opt = nn.Adam([param], lr=0.1)
        norm = opt.clip_grad_norm(1.0)
        assert norm == pytest.approx(200.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)

    def test_step_skips_params_without_grad(self):
        param = nn.Parameter(np.ones(2))
        opt = nn.Adam([param], lr=0.1)
        opt.step()  # no gradient yet; should not move or crash
        assert np.allclose(param.data, 1.0)


class TestSerialization:
    def test_save_and_load_state(self, tmp_path):
        model = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        path = tmp_path / "model.npz"
        nn.save_state(model, path, metadata={"epochs": 3})

        clone = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        metadata = nn.load_state(clone, path)
        assert metadata == {"epochs": 3}
        x = Tensor(np.random.default_rng(5).normal(size=(3, 4)))
        assert np.allclose(model(x).numpy(), clone(x).numpy())

    def test_load_appends_npz_suffix(self, tmp_path):
        model = nn.Linear(2, 2)
        path = tmp_path / "weights"
        nn.save_state(model, path)
        clone = nn.Linear(2, 2)
        nn.load_state(clone, path)  # resolves weights.npz
        assert np.allclose(model.weight.data, clone.weight.data)

    def test_batchnorm_buffers_roundtrip(self, tmp_path):
        bn = nn.BatchNorm1d(3)
        bn(Tensor(np.random.default_rng(6).normal(2.0, 1.0, size=(32, 3))))
        nn.save_state(bn, tmp_path / "bn.npz")
        clone = nn.BatchNorm1d(3)
        nn.load_state(clone, tmp_path / "bn.npz")
        assert np.allclose(bn._buffers["running_mean"], clone._buffers["running_mean"])
