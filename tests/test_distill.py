"""Tests for the distilled student and int8 teacher tiers (repro.distill).

Covers the int8 kernels (per-channel round-trip bounds, calibration
determinism, exact serialization), the distillation pipeline (student vs
teacher agreement, the bitwise-untouched teacher), teacher quantization
behind the dequantize-compare gate, the content-addressed transform
cache, the incremental student refresh loop, and the ``distill`` CLI
command with the ``--selector-tier`` serving flags.
"""

import numpy as np
import pytest

from repro import nn
from repro.cascade import CascadeRouter, margins
from repro.core import TrainerConfig
from repro.data import build_selector_dataset, generate_series
from repro.data.windows import extract_windows
from repro.distill import (
    DistillConfig,
    RefreshConfig,
    StudentRefresher,
    StudentSelector,
    calibration_split,
    distill_student,
    quantize_teacher,
    selection_agreement,
    teacher_soft_dataset,
)
from repro.eval import aggregate_window_probas, predict_for_series
from repro.nn.quant import (
    INT8_LEVELS,
    QuantizedConv1d,
    QuantizedLinear,
    calibrate_activation_scale,
    quantize_weight_per_channel,
)
from repro.selectors.teacher_int8 import conv_bn_sites
from repro.obs import AuditLog
from repro.selectors import make_selector
from repro.selectors.features import (
    _count_peaks,
    _longest_strike_above_mean,
    _longest_strike_batch,
    _peak_distance,
    _peak_stats_batch,
    extract_features,
    extract_features_cached,
)
from repro.serving import SelectionService, ServingConfig
from repro.serving.transform_cache import (
    cached_transform,
    configure_transform_cache,
    default_transform_cache,
)
from repro.streaming import StreamEngine, StreamingConfig, replay_records
from repro.system.selector_store import SelectorStore


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


# --------------------------------------------------------------------------- #
# int8 kernels (repro.nn.quant)
# --------------------------------------------------------------------------- #
class TestQuantKernels:
    def test_per_channel_round_trip_bound(self, rng):
        weight = rng.normal(scale=3.0, size=(16, 40))
        q, scale = quantize_weight_per_channel(weight)
        assert q.dtype == np.int8 and scale.shape == (16,)
        dequantized = q.astype(np.float64) * scale[:, None]
        # round-half-to-even: per-element error bounded by half a level
        assert np.all(np.abs(weight - dequantized) <= scale[:, None] / 2 + 1e-12)
        # each channel's absmax hits the full level range exactly
        assert np.all(np.abs(q).max(axis=1) == INT8_LEVELS)

    def test_zero_rows_get_unit_scale(self):
        weight = np.zeros((3, 5))
        weight[1] = [1.0, -2.0, 0.5, 0.0, 0.25]
        q, scale = quantize_weight_per_channel(weight)
        assert scale[0] == 1.0 and scale[2] == 1.0
        assert np.all(q[0] == 0) and np.all(q[2] == 0)

    def test_rejects_non_2d_weight(self):
        with pytest.raises(ValueError):
            quantize_weight_per_channel(np.zeros(4))

    def test_activation_scale_deterministic_and_iterable(self, rng):
        acts = rng.normal(size=(50, 8))
        scale = calibrate_activation_scale(acts)
        assert scale == calibrate_activation_scale(acts.copy())
        assert scale == np.abs(acts).max() / INT8_LEVELS
        # iterable form sees the union of all samples
        assert calibrate_activation_scale([acts[:10], acts[10:]]) == scale
        assert calibrate_activation_scale(np.empty((0, 8))) == 1.0

    def test_quantized_linear_matches_float_within_bound(self, rng):
        linear = nn.Linear(24, 6)
        x = rng.normal(size=(32, 24))
        act_scale = calibrate_activation_scale(x)
        quantized = QuantizedLinear(24, 6)
        quantized.load_weights(linear.weight.data, linear.bias.data, act_scale)
        expected = linear(nn.Tensor(x)).numpy()
        got = quantized(nn.Tensor(x)).numpy()
        # both operands carry at most half-a-level error; the product error
        # is bounded by the sum of the per-operand contributions
        w_err = (quantized.weight_scale / 2)[None, :] * np.abs(x).sum(axis=1)[:, None]
        dequantized = quantized.weight_q.astype(np.float64) * quantized.weight_scale[:, None]
        x_err = act_scale / 2 * np.abs(dequantized).sum(axis=1)[None, :]
        assert np.all(np.abs(got - expected) <= w_err + x_err + 1e-9)

    def test_forward_rejects_non_2d(self):
        module = QuantizedLinear(4, 2)
        with pytest.raises(ValueError):
            module(nn.Tensor(np.zeros(4)))

    def test_int32_fallback_matches_float32_gemm_semantics(self, rng):
        # wide enough that in_features * 127 * 127 >= 2**24 -> int32 path
        wide = QuantizedLinear(1100, 3)
        narrow_weight = rng.normal(size=(3, 1100))
        wide.load_weights(narrow_weight, None, act_scale=0.05)
        x = rng.normal(scale=2.0, size=(4, 1100))
        got = wide(nn.Tensor(x)).numpy()
        # recompute the exact integer accumulation by hand
        q_x = np.clip(np.rint(x / 0.05), -INT8_LEVELS, INT8_LEVELS)
        acc = q_x.astype(np.int64) @ wide.weight_q.astype(np.int64).T
        expected = acc * (0.05 * wide.weight_scale)[None, :]
        assert np.array_equal(got, expected)

    def test_serialization_round_trips_int8_payload(self, rng, tmp_path):
        linear = nn.Linear(12, 5)
        module = QuantizedLinear(12, 5)
        module.load_weights(linear.weight.data, linear.bias.data, act_scale=0.1)
        nn.save_state(module, tmp_path / "q.npz")
        restored = QuantizedLinear(12, 5)
        nn.load_state(restored, tmp_path / "q.npz")
        assert restored.weight_q.dtype == np.int8
        assert np.array_equal(restored.weight_q, module.weight_q)
        assert np.array_equal(restored.weight_scale, module.weight_scale)
        assert np.array_equal(restored.act_scale, module.act_scale)
        x = rng.normal(size=(8, 12))
        assert np.array_equal(restored(nn.Tensor(x)).numpy(),
                              module(nn.Tensor(x)).numpy())


class TestBufferDtypePreservation:
    """The serialization fix: buffers keep their dtype through save/load."""

    class _Buffered(nn.Module):
        def __init__(self):
            super().__init__()
            self.register_buffer("f32", np.arange(4, dtype=np.float32))
            self.register_buffer("i8", np.arange(-3, 3, dtype=np.int8))
            self.register_buffer("f64", np.arange(4, dtype=np.float64))

    def test_register_buffer_preserves_dtype(self):
        module = self._Buffered()
        assert module.f32.dtype == np.float32
        assert module.i8.dtype == np.int8
        assert module.f64.dtype == np.float64

    def test_save_load_round_trip_keeps_dtypes(self, tmp_path):
        module = self._Buffered()
        nn.save_state(module, tmp_path / "m.npz")
        restored = self._Buffered()
        restored.update_buffer("f32", np.zeros(4, dtype=np.float32))
        nn.load_state(restored, tmp_path / "m.npz")
        assert restored.f32.dtype == np.float32
        assert restored.i8.dtype == np.int8
        assert restored.f64.dtype == np.float64
        assert np.array_equal(restored.f32, module.f32)

    def test_state_dict_load_preserves_float32(self):
        module = self._Buffered()
        state = module.state_dict()
        restored = self._Buffered()
        restored.load_state_dict(state)
        assert restored.f32.dtype == np.float32


# --------------------------------------------------------------------------- #
# vectorised feature kernels stay bitwise-equal to the per-row references
# --------------------------------------------------------------------------- #
class TestVectorisedFeatures:
    def test_longest_strike_matches_reference(self, rng):
        x = rng.normal(size=(40, 50))
        above = x > x.mean(axis=1, keepdims=True)
        batch = _longest_strike_batch(above)
        reference = [_longest_strike_above_mean(row) for row in x]
        assert np.array_equal(batch, np.asarray(reference, dtype=np.float64))

    def test_peak_stats_match_reference(self, rng):
        x = rng.normal(size=(40, 50))
        counts, distances = _peak_stats_batch(x)
        assert np.array_equal(counts, [float(_count_peaks(row)) for row in x])
        assert np.array_equal(distances, [_peak_distance(row) for row in x])

    def test_peak_stats_degenerate_width(self):
        counts, distances = _peak_stats_batch(np.zeros((3, 2)))
        assert np.array_equal(counts, np.zeros(3))
        assert np.array_equal(distances, np.full(3, 2.0))

    def test_constant_rows(self):
        x = np.ones((4, 30))
        above = x > x.mean(axis=1, keepdims=True)
        assert np.array_equal(_longest_strike_batch(above), np.zeros(4))


# --------------------------------------------------------------------------- #
# content-addressed transform cache
# --------------------------------------------------------------------------- #
@pytest.fixture
def fresh_cache():
    """Small transform cache for the test; restore the env default after."""
    configure_transform_cache(8)
    yield default_transform_cache()
    configure_transform_cache(None)


class TestTransformCache:
    def test_hit_is_bitwise_identical_and_read_only(self, rng, fresh_cache):
        x = rng.normal(size=(6, 32))
        calls = []

        def fn(arr):
            calls.append(1)
            return arr * 2.0

        first = cached_transform(x, "double", fn)
        second = cached_transform(x.copy(), "double", fn)
        assert len(calls) == 1  # second call served from the cache
        assert second is first
        assert np.array_equal(first, x * 2.0)
        assert not second.flags.writeable
        with pytest.raises(ValueError):
            second[0, 0] = 99.0

    def test_transform_id_separates_entries(self, rng, fresh_cache):
        x = rng.normal(size=(4, 16))
        a = cached_transform(x, "a", lambda arr: arr + 1)
        b = cached_transform(x, "b", lambda arr: arr - 1)
        assert not np.array_equal(a, b)

    def test_disabled_cache_passes_through(self, rng):
        configure_transform_cache(0)
        try:
            assert default_transform_cache() is None
            x = rng.normal(size=(4, 16))
            out = cached_transform(x, "t", lambda arr: arr * 3)
            assert np.array_equal(out, x * 3)
        finally:
            configure_transform_cache(None)

    def test_extract_features_cached_matches_direct(self, rng, fresh_cache):
        windows = rng.normal(size=(10, 64))
        direct = extract_features(windows)
        cached = extract_features_cached(windows)
        assert np.array_equal(direct, cached)
        hits_before = fresh_cache.stats.hits
        again = extract_features_cached(windows.copy())
        assert fresh_cache.stats.hits == hits_before + 1
        assert again is cached


# --------------------------------------------------------------------------- #
# distillation
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def distill_world():
    """A small trained teacher + transfer/query windows."""
    families = ("ECG", "IOPS", "MGAB", "SMD")
    train_records = [generate_series(name, 0, 400, seed=4) for name in families]
    detector_names = ["IForest", "HBOS", "MP", "POLY"]
    gen = np.random.default_rng(9)
    matrix = gen.uniform(0.05, 0.4, size=(len(train_records), len(detector_names)))
    matrix[np.arange(len(train_records)), np.arange(len(train_records))] += 0.5
    dataset = build_selector_dataset(train_records, matrix, detector_names,
                                     window=64, stride=64)
    teacher = make_selector("ResNet", window=64, n_classes=4, mid_channels=12,
                            num_layers=2, seed=0)
    teacher.fit(dataset, config=TrainerConfig(epochs=2, batch_size=32))

    transfer_records = [generate_series(families[i % len(families)], i, 800, seed=11)
                        for i in range(12)]
    transfer = np.vstack([extract_windows(r.series, 64, stride=32)
                          for r in transfer_records])
    query_records = [generate_series(families[i % len(families)], i, 600, seed=12)
                     for i in range(6)]
    query = np.vstack([extract_windows(r.series, 64) for r in query_records])
    return {"teacher": teacher, "detector_names": detector_names,
            "transfer": transfer, "query": query}


@pytest.fixture(scope="module")
def distilled(distill_world):
    student, report = distill_student(
        distill_world["teacher"], distill_world["transfer"],
        distill_world["detector_names"],
        DistillConfig(epochs=30, seed=0))
    return student, report


class TestCalibrationSplit:
    def test_deterministic_partition(self):
        train_a, calib_a = calibration_split(100, 0.25, seed=3)
        train_b, calib_b = calibration_split(100, 0.25, seed=3)
        assert np.array_equal(train_a, train_b) and np.array_equal(calib_a, calib_b)
        assert len(calib_a) == 25
        assert sorted(np.concatenate([train_a, calib_a])) == list(range(100))

    def test_seed_changes_split(self):
        _, calib_a = calibration_split(100, 0.25, seed=3)
        _, calib_b = calibration_split(100, 0.25, seed=4)
        assert not np.array_equal(calib_a, calib_b)

    def test_degenerate_sizes(self):
        train, calib = calibration_split(1, 0.5, seed=0)
        assert len(calib) == 0 and len(train) == 1
        train, calib = calibration_split(10, 0.0, seed=0)
        assert len(calib) == 0 and len(train) == 10
        # at least one training row always survives
        _, calib = calibration_split(4, 0.99, seed=0)
        assert len(calib) <= 3


class TestSelectionAgreement:
    def test_empty_is_perfect(self):
        assert selection_agreement(np.empty((0, 3)), np.empty((0, 3))) == 1.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            selection_agreement(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_counts_matching_argmax(self):
        a = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        b = np.array([[0.8, 0.2], [0.7, 0.3], [0.1, 0.9]])
        assert selection_agreement(a, b) == pytest.approx(1 / 3)


class TestDistillStudent:
    def test_soft_dataset_wraps_teacher_proba(self, distill_world):
        windows = distill_world["transfer"][:20]
        dataset = teacher_soft_dataset(distill_world["teacher"], windows,
                                       distill_world["detector_names"])
        proba = distill_world["teacher"].predict_proba(windows)
        assert np.array_equal(dataset.performances, proba)
        assert np.array_equal(dataset.hard_labels, proba.argmax(axis=1))
        assert dataset.window_size == 64

    def test_student_agrees_with_teacher(self, distill_world, distilled):
        student, report = distilled
        assert report.student_parameters < report.teacher_parameters
        # regression floor on held-out windows the student never saw
        agreement = selection_agreement(
            student.predict_proba(distill_world["query"]),
            distill_world["teacher"].predict_proba(distill_world["query"]))
        assert agreement >= 0.9
        assert report.student_agreement >= 0.9

    def test_teacher_bitwise_untouched(self, distill_world):
        teacher = distill_world["teacher"]
        before = teacher.predict_proba(distill_world["query"])
        distill_student(teacher, distill_world["transfer"][:60],
                        distill_world["detector_names"],
                        DistillConfig(epochs=2, seed=1))
        assert np.array_equal(teacher.predict_proba(distill_world["query"]), before)

    def test_rejects_tiny_transfer_sets(self, distill_world):
        with pytest.raises(ValueError):
            distill_student(distill_world["teacher"],
                            distill_world["transfer"][:1],
                            distill_world["detector_names"])


class TestStoreRoundTrip:
    def test_student_round_trip_bitwise(self, distill_world, distilled, tmp_path):
        student, _ = distilled
        store = SelectorStore(tmp_path / "store")
        store.save("s", student)

        restored = store.load("s")
        query = distill_world["query"]
        assert np.array_equal(restored.predict_proba(query),
                              student.predict_proba(query))


# --------------------------------------------------------------------------- #
# incremental refresh
# --------------------------------------------------------------------------- #
class TestStudentRefresher:
    def test_no_escalation_when_in_agreement(self, distill_world, distilled):
        student, _ = distilled
        refresher = StudentRefresher(distill_world["teacher"], student,
                                     RefreshConfig(min_agreement=0.5))
        outcome = refresher.refresh(distill_world["query"])
        assert not outcome.escalated and outcome.steps == 0
        assert refresher._checks.value == 1
        assert refresher._escalations.value == 0

    def test_empty_windows_no_op(self, distill_world, distilled):
        student, _ = distilled
        refresher = StudentRefresher(distill_world["teacher"], student)
        outcome = refresher.refresh(np.empty((0, 64)))
        assert outcome.windows == 0 and not outcome.escalated

    def test_escalation_finetunes_and_audits(self, distill_world, tmp_path):
        # a fresh, deliberately stale student: distill briefly, then perturb
        student, _ = distill_student(
            distill_world["teacher"], distill_world["transfer"],
            distill_world["detector_names"], DistillConfig(epochs=20, seed=2))
        noise = np.random.default_rng(5)
        student.classifier.weight.data += noise.normal(
            scale=0.3, size=student.classifier.weight.data.shape)

        audit = AuditLog(tmp_path / "audit.jsonl")
        refresher = StudentRefresher(
            distill_world["teacher"], student,
            RefreshConfig(min_agreement=0.99, steps=60, lr=1e-2, seed=0))
        before = student.predict_proba(distill_world["query"][:8])
        outcome = refresher.refresh(distill_world["transfer"], audit=audit,
                                    stream="s0")
        assert outcome.escalated and outcome.steps == 60
        assert outcome.agreement_after >= outcome.agreement_before
        assert refresher._escalations.value == 1
        assert refresher._finetune_steps.value == 60
        # the served student was fine-tuned in place
        assert not np.array_equal(
            student.predict_proba(distill_world["query"][:8]), before)
        events = audit.events(event="student_refresh")
        assert len(events) == 1
        assert events[0]["stream"] == "s0" and events[0]["escalated"] is True

    def test_refresh_from_series_windows_the_tail(self, distill_world, distilled):
        student, _ = distilled
        refresher = StudentRefresher(distill_world["teacher"], student,
                                     RefreshConfig(min_agreement=0.0))
        series = generate_series("ECG", 0, 500, seed=13).series
        outcome = refresher.refresh_from_series(series, window=64, stride=32)
        assert outcome is not None and outcome.windows > 0
        assert refresher.refresh_from_series(np.zeros(10), window=64, stride=32) is None


# --------------------------------------------------------------------------- #
# CLI: distill + --selector-tier
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def cli_distilled(tmp_path_factory):
    from repro.system.cli import main

    root = tmp_path_factory.mktemp("distill_cli")
    data_dir = root / "data"
    perf = root / "perf.npz"
    store = root / "store"
    assert main(["generate-data", str(data_dir), "--datasets", "ECG", "IOPS",
                 "SMD", "--per-dataset", "1", "--length", "400", "--seed", "3"]) == 0
    assert main(["label", str(data_dir), str(perf), "--detector-window", "16"]) == 0
    assert main(["train", str(data_dir), str(perf), "--selector", "MLP",
                 "--store", str(store), "--name", "m", "--window", "64",
                 "--stride", "32", "--epochs", "2"]) == 0
    assert main(["distill", str(data_dir), "--store", str(store), "--name", "m",
                 "--window", "64", "--stride", "32", "--epochs", "10"]) == 0
    return {"root": root, "data_dir": data_dir, "store": store}


class TestDistillCLI:
    def test_distill_saves_student_tier(self, cli_distilled):
        store = SelectorStore(cli_distilled["store"])
        assert isinstance(store.load("m-student"), StudentSelector)
        assert "cascade_threshold" in store.info("m-student").metadata
        assert "m-student-int8" not in {info.name for info in store.list()}

    def test_batch_select_with_student_tier(self, cli_distilled, capsys):
        from repro.system.cli import main

        assert main(["batch-select", str(cli_distilled["data_dir"]),
                     "--store", str(cli_distilled["store"]), "--name", "m",
                     "--selector-tier", "student", "--window", "64"]) == 0
        assert "series/s" in capsys.readouterr().out

    def test_missing_student_tier_is_actionable(self, cli_distilled):
        from repro.system.cli import main

        with pytest.raises(SystemExit, match="distill"):
            main(["batch-select", str(cli_distilled["data_dir"]),
                  "--store", str(cli_distilled["store"]), "--name", "ghost",
                  "--selector-tier", "student", "--window", "64"])

    def test_refresh_flag_requires_student_tier(self, cli_distilled):
        from repro.system.cli import main

        series = cli_distilled["data_dir"] / "ECG_0.csv"
        with pytest.raises(SystemExit, match="selector-tier"):
            main(["stream", str(series), "--store", str(cli_distilled["store"]),
                  "--name", "m", "--refresh-min-agreement", "0.9",
                  "--window", "64"])

    def test_sharded_cascade_audit_trains_and_explains(self, cli_distilled,
                                                        tmp_path, capsys):
        from repro.system.cli import main

        files = sorted(cli_distilled["data_dir"].glob("*.csv"))[:2]
        audit, model = tmp_path / "audit.jsonl", tmp_path / "cost_model.json"
        assert main(["serve-sharded", *map(str, files),
                     "--store", str(cli_distilled["store"]), "--name", "m",
                     "--cascade", "--audit", str(audit), "--window", "64",
                     "--shards", "2"]) == 0
        assert main(["train-cost-model", str(audit), "--output", str(model),
                     "--window", "64"]) == 0
        capsys.readouterr()
        assert main(["explain", files[0].stem, "--audit", str(audit)]) == 0
        assert "cascade:" in capsys.readouterr().out

    def test_stream_with_refresh_and_tier(self, cli_distilled, capsys):
        from repro.system.cli import main

        series = sorted(cli_distilled["data_dir"].glob("*.csv"))[0]
        assert main(["stream", str(series), "--store", str(cli_distilled["store"]),
                     "--name", "m", "--selector-tier", "student",
                     "--refresh-min-agreement", "0.5", "--window", "64",
                     "--stride", "32", "--drift-threshold", "0.5"]) == 0
        assert "selected" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# int8 conv kernels + the 2**24 exact-accumulation boundary
# --------------------------------------------------------------------------- #
def _conv_integer_reference(module, x):
    """Integer im2col reference for QuantizedConv1d (int64, always exact)."""
    s = float(module.act_scale[0])
    q = np.clip(np.rint(np.asarray(x, dtype=np.float64) / s), -INT8_LEVELS, INT8_LEVELS)
    if module.padding:
        n, c, length = q.shape
        padded = np.zeros((n, c, length + 2 * module.padding))
        padded[:, :, module.padding:module.padding + length] = q
        q = padded
    n, _, length = q.shape
    span = (module.kernel_size - 1) * module.dilation + 1
    l_out = (length - span) // module.stride + 1
    weights = module.weight_q.astype(np.int64)
    out = np.zeros((n, module.out_channels, l_out), dtype=np.int64)
    for t in range(l_out):
        start = t * module.stride
        patch = q[:, :, start:start + span:module.dilation].astype(np.int64)
        out[:, :, t] = np.einsum("nck,ock->no", patch, weights)
    return out


def _exact_int8_conv(in_channels, kernel_size, rng, stride=1):
    """A QuantizedConv1d whose scales are exactly 1.0 and bias is zero, so
    its forward output IS the raw integer accumulator — the dequantization
    multiplies by 1.0, which is exact on every path."""
    conv = QuantizedConv1d(in_channels, 4, kernel_size, stride=stride)
    weight = rng.integers(-INT8_LEVELS, INT8_LEVELS + 1,
                          size=(4, in_channels, kernel_size)).astype(np.float64)
    weight[0] = INT8_LEVELS          # the extreme row: every product maximal
    weight[:, 0, 0] = INT8_LEVELS    # pin per-row absmax so scale == 1.0
    conv.load_weights(weight, None, act_scale=1.0)
    assert np.all(conv.weight_scale == 1.0)
    return conv


def _boundary_input(in_channels, length, rng):
    x = rng.integers(-INT8_LEVELS, INT8_LEVELS + 1,
                     size=(3, in_channels, length)).astype(np.float64)
    x[0] = INT8_LEVELS  # one sample of all-max levels hits the peak sum
    return x


class TestQuantConvBoundary:
    """QuantizedConv1d at and one above the exact-float32 product limit.

    ``reduction * 127 * 127 < 2**24`` holds for ``reduction == 1040`` (the
    widest exact-float32 reduction) and fails at 1041, where the int32
    fallback must engage.  With unit scales the forward output equals the
    raw accumulator, so integer equality against an int64 reference is a
    bit-for-bit check of both paths — the all-max input row sums to
    16 790 289 > 2**24 at 1041, which a float32 accumulator could not
    represent.
    """

    def test_conv_at_exact_f32_limit(self, rng):
        conv = _exact_int8_conv(130, 8, rng)  # reduction 1040: float32 GEMM
        x = _boundary_input(130, 12, rng)
        y = conv.forward(x).numpy()
        assert np.array_equal(y, _conv_integer_reference(conv, x))

    def test_conv_one_above_limit_falls_back_to_int32(self, rng):
        conv = _exact_int8_conv(347, 3, rng)  # reduction 1041: int32 matmul
        x = _boundary_input(347, 8, rng)
        y = conv.forward(x).numpy()
        reference = _conv_integer_reference(conv, x)
        assert int(reference.max()) > 2 ** 24  # the boundary is actually hit
        assert np.array_equal(y, reference)

    def test_strided_conv_at_limit_uses_im2col_path(self, rng):
        conv = _exact_int8_conv(130, 8, rng, stride=2)  # stride 2: gather path
        x = _boundary_input(130, 17, rng)
        y = conv.forward(x).numpy()
        assert np.array_equal(y, _conv_integer_reference(conv, x))

    def test_conv_matches_float_conv_within_quantization_error(self, rng):
        """Geometry check: padding/stride/dilation agree with the float conv
        up to the bounded quantization error."""
        float_conv = nn.Conv1d(3, 5, 5, stride=2, padding=3, dilation=2)
        quant = QuantizedConv1d(3, 5, 5, stride=2, padding=3, dilation=2)
        quant.load_weights(float_conv.weight.data, float_conv.bias.data, act_scale=0.05)
        x = rng.normal(size=(4, 3, 40))
        expected = float_conv(nn.Tensor(x)).numpy()
        actual = quant.forward(x).numpy()
        assert actual.shape == expected.shape
        assert np.abs(actual - expected).max() < 0.2

    def test_chunking_and_composition_independence(self, rng):
        conv = _exact_int8_conv(6, 7, rng)
        x = rng.normal(scale=40.0, size=(20, 6, 32))
        full = conv.forward(x).numpy()
        parts = np.concatenate([conv.forward(x[i:i + 3]).numpy()
                                for i in range(0, 20, 3)])
        shuffled = conv.forward(x[::-1]).numpy()[::-1]
        assert np.array_equal(full, parts)
        assert np.array_equal(full, shuffled)


class TestQuantLinearBoundary:
    """QuantizedLinear's float32 path at the limit vs the int32 fallback.

    Both paths share one float64 dequantization, so an exact-integer
    float64 matmul (products ≤ 127², partial sums ≪ 2**53) is a
    path-independent ground truth to compare bit-for-bit against.
    """

    @staticmethod
    def _reference(module, x):
        s = float(module.act_scale[0])
        q_x = np.clip(np.rint(np.asarray(x, dtype=np.float64) / s),
                      -INT8_LEVELS, INT8_LEVELS)
        acc = q_x @ module.weight_q.astype(np.float64).T
        return acc * (s * module.weight_scale)[None, :] + module.bias

    def _boundary_linear(self, in_features, rng):
        linear = QuantizedLinear(in_features, 4)
        weight = rng.normal(size=(4, in_features))
        weight[0] = np.abs(weight[0].max())  # one uniform row maximises sums
        linear.load_weights(weight, rng.normal(size=4), act_scale=0.05)
        x = 0.05 * rng.integers(-INT8_LEVELS, INT8_LEVELS + 1,
                                size=(5, in_features)).astype(np.float64)
        x[0] = 0.05 * INT8_LEVELS
        return linear, x

    def test_linear_at_exact_f32_limit(self, rng):
        linear, x = self._boundary_linear(1040, rng)
        assert np.array_equal(linear.forward(x).numpy(), self._reference(linear, x))

    def test_linear_one_above_limit_falls_back_to_int32(self, rng):
        linear, x = self._boundary_linear(1041, rng)
        assert np.array_equal(linear.forward(x).numpy(), self._reference(linear, x))


# --------------------------------------------------------------------------- #
# teacher quantization (quantize_teacher + Int8TeacherSelector)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def quantized_teacher(distill_world):
    quantized, gate = quantize_teacher(distill_world["teacher"],
                                       distill_world["transfer"][:160],
                                       min_agreement=None)
    return quantized, gate


class TestQuantizeTeacher:
    def test_structure_is_fully_quantized(self, quantized_teacher, distill_world):
        quantized, gate = quantized_teacher
        convs = [module for _, module in quantized.encoder.named_modules()
                 if isinstance(module, QuantizedConv1d)]
        sites = list(conv_bn_sites(distill_world["teacher"].encoder))
        assert len(convs) == len(sites) == gate["n_quantized_convs"]
        assert all(conv.weight_q.dtype == np.int8 for conv in convs)
        assert isinstance(quantized.classifier, QuantizedLinear)
        # every ConvBlock/ResidualBlock norm folds; merged-output norms stay
        assert gate["n_folded_bns"] == sum(1 for *_, bn in sites if bn is not None) > 0

    def test_gate_measures_agreement(self, quantized_teacher, distill_world):
        quantized, gate = quantized_teacher
        proba_float = distill_world["teacher"].predict_proba(distill_world["transfer"][:160])
        proba_int8 = quantized.predict_proba(distill_world["transfer"][:160])
        assert gate["agreement"] == selection_agreement(proba_float, proba_int8)
        assert gate["agreement"] >= 0.97
        assert gate["n_calibration"] == 160
        assert set(gate["act_scales"]) > {"classifier"}
        assert len(gate["act_scales_hash"]) == 16

    def test_gate_raises_below_min_agreement(self, distill_world):
        with pytest.raises(ValueError, match="agrees with the float teacher"):
            quantize_teacher(distill_world["teacher"],
                             distill_world["transfer"][:40], min_agreement=1.1)

    def test_rejects_convless_selectors(self, distill_world):
        mlp = make_selector("MLP", window=64, n_classes=4, seed=0)
        mlp.build()
        with pytest.raises(ValueError, match="no Conv1d"):
            quantize_teacher(mlp, distill_world["transfer"][:20], min_agreement=None)

    def test_teacher_is_bitwise_untouched(self, distill_world):
        teacher = distill_world["teacher"]
        before = teacher.predict_proba(distill_world["query"][:30])
        quantize_teacher(teacher, distill_world["transfer"][:60], min_agreement=None)
        assert np.array_equal(before, teacher.predict_proba(distill_world["query"][:30]))

    def test_predict_is_chunk_and_batch_size_independent(self, quantized_teacher, distill_world):
        quantized, _ = quantized_teacher
        windows = distill_world["query"][:90]
        full = quantized.predict_proba(windows)
        chunked = np.vstack([quantized.predict_proba(windows[i:i + 37])
                             for i in range(0, len(windows), 37)])
        assert np.array_equal(full, chunked)

    def test_fit_raises(self, quantized_teacher):
        quantized, _ = quantized_teacher
        with pytest.raises(RuntimeError, match="inference-only"):
            quantized.fit(None)

    def test_store_round_trip_is_bitwise_with_provenance(self, quantized_teacher,
                                                         distill_world, tmp_path):
        quantized, gate = quantized_teacher
        store = SelectorStore(tmp_path / "store")
        store.save("m-int8", quantized)
        restored = store.load("m-int8")
        windows = distill_world["query"][:40]
        assert np.array_equal(quantized.predict_proba(windows),
                              restored.predict_proba(windows))
        assert restored.quant_provenance["act_scales_hash"] == gate["act_scales_hash"]
        manifest = store.info("m-int8").metadata["quantization"]
        assert manifest["agreement"] == gate["agreement"]
        assert manifest["act_scales_hash"] == gate["act_scales_hash"]
        assert "act_scales" not in manifest  # the full table lives in the npz


class TestServedTeacherInt8:
    """Every serving layer calls the int8 teacher's own ``predict_proba``.

    It runs at its own unpadded chunk width and its rows are chunk
    independent, so served selections and votes equal ``predict_for_series``
    on that selector bit for bit: through :class:`SelectionService`,
    through :class:`StreamEngine`, and as a cascade's slow tier.
    """

    @pytest.fixture(scope="class")
    def records(self):
        # 8 series x 20 windows: every batch spans more than 64 rows
        families = ("ECG", "IOPS", "MGAB", "SMD")
        return [generate_series(families[i % 4], 20 + i, 1280, seed=13) for i in range(8)]

    def test_selection_service_matches_predict_for_series(self, quantized_teacher,
                                                          distill_world, records):
        quantized, _ = quantized_teacher
        service = SelectionService(quantized, distill_world["detector_names"],
                                   ServingConfig(window=64, selector_tier="teacher-int8"))
        for record, result in zip(records, service.select_batch(records)):
            choice, aggregated = predict_for_series(quantized, record, 64)
            assert result.selected_index == choice
            assert list(result.votes.values()) == [float(v) for v in aggregated]

    def test_stream_engine_matches_predict_for_series(self, quantized_teacher,
                                                      distill_world, records):
        quantized, _ = quantized_teacher
        engine = StreamEngine(quantized, distill_world["detector_names"],
                              StreamingConfig(window=64, selector_tier="teacher-int8"))
        for _ in replay_records(engine, records, chunk=640):
            pass
        for record in records:
            view = engine.selection(record.name)
            choice, aggregated = predict_for_series(quantized, record, 64)
            assert view.selected_index == choice
            assert np.array_equal(view.aggregated, aggregated)

    def test_cascade_slow_tier_matches_router_route(self, quantized_teacher, distilled,
                                                    distill_world, records):
        quantized, _ = quantized_teacher
        student, _ = distilled
        windows = [extract_windows(record.series, 64) for record in records]
        fast_margins = margins(student.predict_proba(np.vstack(windows)))
        router = CascadeRouter(quantized, threshold=float(np.quantile(fast_margins, 0.75)),
                               slow_tier="teacher-int8", window=64)
        service = SelectionService(student, distill_world["detector_names"],
                                   ServingConfig(window=64, selector_tier="student"),
                                   cascade=router)
        results = service.select_batch(records)
        assert service.last_cascade["escalated_windows"] > 64
        for series_windows, result in zip(windows, results):
            proba, _ = router.route(series_windows, student.predict_proba(series_windows))
            choice, aggregated = aggregate_window_probas(proba, "vote")
            assert result.selected_index == choice
            assert list(result.votes.values()) == [float(v) for v in aggregated]


# --------------------------------------------------------------------------- #
# CLI: quantize-teacher + --selector-tier teacher-int8
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def cli_quantized(cli_distilled):
    from repro.system.cli import main

    store = cli_distilled["store"]
    data_dir = cli_distilled["data_dir"]
    perf = cli_distilled["root"] / "perf.npz"
    assert main(["train", str(data_dir), str(perf), "--selector", "ResNet",
                 "--store", str(store), "--name", "mq", "--window", "64",
                 "--stride", "32", "--epochs", "2"]) == 0
    assert main(["quantize-teacher", str(data_dir), "--store", str(store),
                 "--name", "mq", "--window", "64", "--stride", "32",
                 "--min-agreement", "0.0"]) == 0
    assert main(["distill", str(data_dir), "--store", str(store), "--name", "mq",
                 "--window", "64", "--stride", "32", "--epochs", "5"]) == 0
    return cli_distilled


class TestQuantizeTeacherCLI:
    def test_saves_int8_tier_with_provenance(self, cli_quantized):
        from repro.selectors.teacher_int8 import Int8TeacherSelector

        store = SelectorStore(cli_quantized["store"])
        restored = store.load("mq-int8")
        assert isinstance(restored, Int8TeacherSelector)
        assert restored.quant_provenance["base_type"] == "ResNet"
        assert "act_scales_hash" in store.info("mq-int8").metadata["quantization"]

    def test_batch_select_with_teacher_int8_tier(self, cli_quantized, capsys):
        from repro.system.cli import main

        assert main(["batch-select", str(cli_quantized["data_dir"]),
                     "--store", str(cli_quantized["store"]), "--name", "mq",
                     "--selector-tier", "teacher-int8", "--window", "64"]) == 0
        assert "series/s" in capsys.readouterr().out

    def test_missing_int8_tier_is_actionable(self, cli_quantized):
        from repro.system.cli import main

        with pytest.raises(SystemExit, match="quantize-teacher"):
            main(["batch-select", str(cli_quantized["data_dir"]),
                  "--store", str(cli_quantized["store"]), "--name", "m",
                  "--selector-tier", "teacher-int8", "--window", "64"])

    def test_cascade_escalates_to_int8_teacher(self, cli_quantized, capsys):
        from repro.system.cli import main

        series = sorted(cli_quantized["data_dir"].glob("*.csv"))[0]
        assert main(["stream", str(series), "--store", str(cli_quantized["store"]),
                     "--name", "mq", "--selector-tier", "teacher-int8",
                     "--cascade", "--cascade-threshold", "0.9",
                     "--window", "64", "--stride", "32"]) == 0
        assert "selected" in capsys.readouterr().out
