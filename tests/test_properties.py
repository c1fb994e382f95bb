"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import nn
from repro.core import PruningConfig, SimHashLSH, make_pruner, performance_to_soft_labels
from repro.data.anomalies import inject_anomalies
from repro.data.windows import extract_windows
from repro.detectors.base import normalize_scores, sliding_windows, window_scores_to_point_scores
from repro.eval.metrics import auc_pr, auc_roc, best_f1, precision_recall_curve
from repro.ml.scalers import zscore
from repro.nn import functional as F

# Keep hypothesis example counts moderate so the suite stays fast.
FAST = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def float_arrays(min_len=1, max_len=200):
    return st.integers(min_value=min_len, max_value=max_len).flatmap(
        lambda n: arrays(np.float64, n, elements=finite_floats)
    )


class TestMetricProperties:
    @FAST
    @given(
        scores=float_arrays(min_len=5, max_len=100),
        labels_seed=st.integers(0, 2 ** 31 - 1),
    )
    def test_auc_metrics_bounded(self, scores, labels_seed):
        rng = np.random.default_rng(labels_seed)
        labels = (rng.random(len(scores)) < 0.3).astype(int)
        pr = auc_pr(labels, scores)
        roc = auc_roc(labels, scores)
        f1 = best_f1(labels, scores)
        assert 0.0 <= pr <= 1.0
        assert 0.0 <= roc <= 1.0
        assert 0.0 <= f1 <= 1.0

    @FAST
    @given(scores=float_arrays(min_len=5, max_len=100), seed=st.integers(0, 2 ** 31 - 1))
    def test_auc_invariant_to_monotone_transform(self, scores, seed):
        """Ranking metrics only depend on the ordering of the scores."""
        rng = np.random.default_rng(seed)
        labels = (rng.random(len(scores)) < 0.4).astype(int)
        if labels.sum() == 0 or labels.sum() == len(labels):
            return
        # Quantise so the affine transform cannot merge almost-equal scores
        # through floating-point rounding (which would legitimately change ties).
        scores = np.round(scores, 6)
        shifted = 3.0 * scores + 7.0  # strictly monotone transform
        assert auc_pr(labels, scores) == pytest.approx(auc_pr(labels, shifted), abs=1e-9)
        assert auc_roc(labels, scores) == pytest.approx(auc_roc(labels, shifted), abs=1e-9)

    @FAST
    @given(scores=float_arrays(min_len=10, max_len=100), seed=st.integers(0, 2 ** 31 - 1))
    def test_precision_recall_curve_is_valid(self, scores, seed):
        rng = np.random.default_rng(seed)
        labels = (rng.random(len(scores)) < 0.5).astype(int)
        if labels.sum() == 0:
            return
        precision, recall, _ = precision_recall_curve(labels, scores)
        assert np.all((precision >= 0) & (precision <= 1))
        assert np.all((recall >= 0) & (recall <= 1))
        assert np.all(np.diff(recall) >= -1e-12)

    @FAST
    @given(labels_len=st.integers(5, 50), flip=st.booleans())
    def test_perfect_and_inverted_ranking_extremes(self, labels_len, flip):
        labels = np.zeros(labels_len, dtype=int)
        labels[-2:] = 1
        scores = np.linspace(0, 1, labels_len)
        if flip:
            assert auc_roc(labels, -scores) == pytest.approx(0.0)
        else:
            assert auc_roc(labels, scores) == pytest.approx(1.0)


class TestScoreAndWindowProperties:
    @FAST
    @given(scores=float_arrays(min_len=2, max_len=300))
    def test_normalize_scores_in_unit_interval(self, scores):
        out = normalize_scores(scores)
        assert out.shape == scores.shape
        assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12

    @FAST
    @given(
        length=st.integers(10, 300),
        window=st.integers(2, 40),
        stride=st.integers(1, 10),
    )
    def test_sliding_window_count_formula(self, length, window, stride):
        if window > length:
            return
        series = np.arange(length, dtype=float)
        windows = sliding_windows(series, window, stride)
        assert windows.shape == ((length - window) // stride + 1, window)
        # Each row is a contiguous slice of the series.
        assert np.allclose(windows[0], series[:window])

    @FAST
    @given(
        length=st.integers(10, 200),
        window=st.integers(2, 30),
        value=st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    def test_constant_window_scores_spread_is_constant(self, length, window, value):
        if window > length:
            return
        n_windows = length - window + 1
        out = window_scores_to_point_scores(np.full(n_windows, value), length, window)
        assert out.shape == (length,)
        assert np.allclose(out, value)

    @FAST
    @given(length=st.integers(4, 500), window=st.integers(4, 64))
    def test_extract_windows_are_z_normalised(self, length, window):
        series = np.random.default_rng(length).normal(size=length) * 5 + 3
        windows = extract_windows(series, window, stride=window)
        assert np.all(np.isfinite(windows))
        assert np.allclose(windows.mean(axis=1), 0.0, atol=1e-8)

    @FAST
    @given(values=float_arrays(min_len=2, max_len=200))
    def test_zscore_idempotent_scale(self, values):
        z = zscore(values)
        assert np.all(np.isfinite(z))
        if values.std() > 1e-9:
            assert abs(z.mean()) < 1e-6
            assert z.std() == pytest.approx(1.0, abs=1e-6)


class TestSoftLabelProperties:
    @FAST
    @given(
        n=st.integers(1, 30),
        m=st.integers(2, 15),
        t_soft=st.floats(min_value=0.05, max_value=2.0),
        seed=st.integers(0, 2 ** 31 - 1),
    )
    def test_soft_labels_valid_distributions(self, n, m, t_soft, seed):
        perf = np.random.default_rng(seed).uniform(0, 1, size=(n, m))
        soft = performance_to_soft_labels(perf, t_soft)
        assert soft.shape == (n, m)
        assert np.allclose(soft.sum(axis=1), 1.0, atol=1e-9)
        assert (soft >= 0).all()
        # Order preservation: better-performing models never get less probability.
        order_perf = np.argsort(perf, axis=1)
        order_soft = np.argsort(soft, axis=1)
        assert np.array_equal(order_perf[:, -1], order_soft[:, -1])


class TestPruningProperties:
    @FAST
    @given(
        n=st.integers(20, 300),
        ratio=st.floats(min_value=0.1, max_value=0.9),
        seed=st.integers(0, 10_000),
        method=st.sampled_from(["infobatch", "pa"]),
    )
    def test_pruner_invariants(self, n, ratio, seed, method):
        """Selected indices are unique and valid; weights are >= 1; hard samples kept by InfoBatch."""
        config = PruningConfig(method=method, ratio=ratio, lsh_bits=6, n_bins=4,
                               full_data_last_fraction=0.0)
        pruner = make_pruner(n, config, total_epochs=10, seed=seed)
        features = np.random.default_rng(seed).normal(size=(n, 8))
        pruner.setup(features)
        losses = np.random.default_rng(seed + 1).uniform(0, 2, size=n)
        pruner.update(np.arange(n), losses)

        indices, weights = pruner.select(epoch=1)
        assert len(indices) == len(np.unique(indices))
        assert indices.min() >= 0 and indices.max() < n
        assert (weights >= 1.0 - 1e-12).all()
        # The kept fraction lies in (0, 1].
        assert 0 < len(indices) <= n

    @FAST
    @given(
        n=st.integers(16, 128),
        bits=st.integers(2, 16),
        seed=st.integers(0, 10_000),
    )
    def test_simhash_deterministic_and_bounded(self, n, bits, seed):
        x = np.random.default_rng(seed).normal(size=(n, 12))
        lsh = SimHashLSH(n_bits=bits, seed=seed)
        sig1 = lsh.fit_signatures(x)
        sig2 = lsh.signatures(x)
        assert np.array_equal(sig1, sig2)
        assert sig1.max() < 2 ** bits


class TestAnomalyInjectionProperties:
    @FAST
    @given(
        length=st.integers(200, 600),
        n_anomalies=st.integers(0, 4),
        seed=st.integers(0, 2 ** 31 - 1),
        kind=st.sampled_from(["spike", "level_shift", "noise_burst", "flatline"]),
    )
    def test_labels_consistent_with_spans(self, length, n_anomalies, seed, kind):
        rng = np.random.default_rng(seed)
        base = np.sin(np.linspace(0, 12 * np.pi, length))
        series, labels, spans = inject_anomalies(
            base, rng, kinds=(kind,), n_anomalies=n_anomalies, length_range=(8, 24)
        )
        assert series.shape == labels.shape == base.shape
        assert np.all(np.isfinite(series))
        assert labels.sum() == sum(span.length for span in spans)
        assert len(spans) <= n_anomalies
        outside = np.ones(length, dtype=bool)
        for span in spans:
            outside[span.start:span.start + span.length] = False
        # Points outside the injected spans are untouched.
        assert np.allclose(series[outside], base[outside])


class TestAutodiffProperties:
    @FAST
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        seed=st.integers(0, 2 ** 31 - 1),
    )
    def test_softmax_rows_are_distributions(self, rows, cols, seed):
        x = np.random.default_rng(seed).normal(scale=5.0, size=(rows, cols))
        out = F.softmax(nn.Tensor(x), axis=-1).numpy()
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)
        assert (out >= 0).all()

    @FAST
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5)),
        seed=st.integers(0, 2 ** 31 - 1),
    )
    def test_sum_gradient_is_ones(self, shape, seed):
        value = np.random.default_rng(seed).normal(size=shape)
        t = nn.Tensor(value, requires_grad=True)
        t.sum().backward()
        assert np.allclose(t.grad, 1.0)

    @FAST
    @given(
        n=st.integers(2, 8),
        c=st.integers(2, 6),
        seed=st.integers(0, 2 ** 31 - 1),
    )
    def test_cross_entropy_gradient_rows_sum_to_zero(self, n, c, seed):
        rng = np.random.default_rng(seed)
        logits = nn.Tensor(rng.normal(size=(n, c)), requires_grad=True)
        labels = rng.integers(0, c, size=n)
        nn.cross_entropy(logits, labels).backward()
        # d/dlogits of CE is softmax - onehot, whose rows sum to zero.
        assert np.allclose(logits.grad.sum(axis=1), 0.0, atol=1e-9)

    @FAST
    @given(
        n=st.integers(1, 5),
        length=st.integers(8, 40),
        kernel=st.integers(1, 7),
        seed=st.integers(0, 2 ** 31 - 1),
    )
    def test_conv1d_output_length_formula(self, n, length, kernel, seed):
        if kernel > length:
            return
        rng = np.random.default_rng(seed)
        x = nn.Tensor(rng.normal(size=(n, 1, length)))
        w = nn.Tensor(rng.normal(size=(2, 1, kernel)))
        out = F.conv1d(x, w)
        assert out.shape == (n, 2, length - kernel + 1)
