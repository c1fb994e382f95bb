"""Tests for the batched, cached selection-serving layer (repro.serving)."""

import os
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core import TrainerConfig
from repro.data import build_selector_dataset, generate_series
from repro.data.windows import extract_windows, extract_windows_batch
from repro.detectors import DEFAULT_MODEL_NAMES, NonFiniteSeriesError, make_detector
from repro.eval import Oracle, predict_for_series
from repro.ml.scalers import zscore, zscore_rows
from repro.selectors import make_selector
from repro.data import count_windows
from repro.serving import (
    LRUCache,
    SelectionService,
    ServingConfig,
    WorkerError,
    WorkerPool,
    microbatches,
    series_fingerprint,
    workers,
)
from repro.serving.workers import _fork_available
from repro.streaming import StreamEngine, StreamingConfig
from repro.system import ModelSelectionPipeline, PipelineConfig


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache and len(cache) == 1

    def test_miss_returns_none_and_counts(self):
        cache = LRUCache(capacity=2)
        assert cache.get("ghost") is None
        stats = cache.stats
        assert stats.misses == 1 and stats.hits == 0 and stats.lookups == 1
        assert stats.hit_rate == 0.0

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh "a" → "b" becomes the oldest
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_stats_accounting_exact(self):
        cache = LRUCache(capacity=8)
        cache.put("x", 0)
        for _ in range(3):
            cache.get("x")
        cache.get("y")
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.size) == (3, 1, 1)
        assert stats.hit_rate == pytest.approx(0.75)

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_clear_keeps_eviction_counter_and_restarts_occupancy(self):
        cache = LRUCache(capacity=2)
        for key in ("a", "b", "c"):  # "a" evicted
            cache.put(key, key)
        assert cache.stats.evictions == 1
        cache.clear()
        stats = cache.stats
        assert (stats.size, stats.evictions) == (0, 1)
        # a cleared cache refills from scratch: capacity applies afresh
        for key in ("x", "y"):
            cache.put(key, key)
        assert cache.stats.evictions == 1 and len(cache) == 2
        cache.put("z", "z")
        assert cache.stats.evictions == 2

    def test_refreshing_existing_key_never_evicts(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, not insert
        assert len(cache) == 2 and cache.stats.evictions == 0
        assert cache.get("a") == 10

    def test_lookup_after_clear_is_a_miss(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.clear()
        assert cache.get("a") is None
        stats = cache.stats
        assert (stats.hits, stats.misses) == (0, 1)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestSeriesFingerprint:
    def test_same_content_same_key(self):
        a = np.arange(100, dtype=np.float64)
        assert series_fingerprint(a) == series_fingerprint(a.copy())

    def test_different_content_different_key(self):
        a = np.arange(100, dtype=np.float64)
        b = a.copy()
        b[50] += 1e-9
        assert series_fingerprint(a) != series_fingerprint(b)

    def test_shape_and_dtype_matter(self):
        a = np.zeros(64, dtype=np.float64)
        assert series_fingerprint(a) != series_fingerprint(np.zeros(65))
        assert series_fingerprint(a) != series_fingerprint(np.zeros(64, dtype=np.float32))

    def test_extra_tokens_separate_configurations(self):
        a = np.arange(32, dtype=np.float64)
        assert series_fingerprint(a, extra=(96,)) != series_fingerprint(a, extra=(64,))


class TestWorkerPool:
    def test_sequential_fallback_runs_on_calling_thread(self):
        pool = WorkerPool(max_workers=0)
        threads = pool.map(lambda _: threading.current_thread(), range(5))
        assert not pool.is_parallel
        assert all(t is threading.main_thread() for t in threads)

    def test_sequential_and_parallel_agree(self):
        items = list(range(20))
        sequential = WorkerPool(0).map(lambda x: x * x, items)
        parallel = WorkerPool(4).map(lambda x: x * x, items)
        assert sequential == parallel == [x * x for x in items]

    def test_parallel_preserves_input_order(self):
        import time

        def slow_inverse(x):
            time.sleep(0.002 * (5 - x))  # later items finish first
            return x

        assert WorkerPool(4).map(slow_inverse, range(5)) == list(range(5))

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(max_workers=-1)

    @pytest.mark.skipif(not _fork_available(), reason="needs fork start method")
    def test_parallel_map_runs_in_forked_processes(self):
        pids = WorkerPool(2).map(lambda _: os.getpid(), range(4))
        assert len(pids) == 4 and os.getpid() not in pids

    def test_without_fork_runs_sequentially_in_the_calling_process(self, monkeypatch):
        monkeypatch.setattr(workers, "_fork_available", lambda: False)
        pool = WorkerPool(2)
        assert not pool.is_parallel
        assert pool.map(lambda x: (x, os.getpid()), range(5)) == \
            [(x, os.getpid()) for x in range(5)]

    @pytest.mark.skipif(not _fork_available(), reason="needs fork start method")
    def test_forked_worker_exception_propagates_with_worker_traceback(self):
        import traceback

        def explode_on_two(x):
            if x == 2:
                raise ValueError(f"bad item {x}")
            return x

        pool = WorkerPool(max_workers=2)
        with pytest.raises(ValueError, match="bad item 2") as excinfo:
            pool.map(explode_on_two, range(4))
        # the original exception type crosses the process boundary, chained
        # onto a WorkerError carrying the worker-side stack as text
        cause = excinfo.value.__cause__
        assert isinstance(cause, WorkerError)
        assert cause.item_index == 2 and cause.exc_type == "ValueError"
        assert "explode_on_two" in cause.worker_traceback
        assert "raise ValueError" in cause.worker_traceback
        rendered = "".join(traceback.format_exception(excinfo.value))
        assert "explode_on_two" in rendered  # visible in the final report

    @pytest.mark.skipif(not _fork_available(), reason="needs fork start method")
    def test_forked_worker_unpicklable_exception_still_reports(self):
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("cannot pickle this exception")

        def explode(x):
            raise Unpicklable("nope")

        pool = WorkerPool(max_workers=2)
        with pytest.raises(WorkerError) as excinfo:
            pool.map(explode, range(2))
        assert excinfo.value.exc_type == "Unpicklable"
        assert "explode" in excinfo.value.worker_traceback

    @pytest.mark.skipif(not _fork_available(), reason="needs fork start method")
    def test_forked_pool_usable_after_a_failure(self):
        def explode_on_two(x):
            if x == 2:
                raise ValueError("boom")
            return x * 10

        pool = WorkerPool(max_workers=2)
        with pytest.raises(ValueError):
            pool.map(explode_on_two, range(4))
        assert pool.map(explode_on_two, [0, 1]) == [0, 10]


class TestBatchedWindowing:
    def test_znormalize_matches_per_row_zscore(self, rng):
        windows = rng.normal(size=(17, 64))
        windows[3] = 2.5  # constant row
        expected = np.apply_along_axis(zscore, 1, windows)
        assert np.array_equal(zscore_rows(windows, dtype=np.float64), expected)

    def test_batch_extraction_matches_per_series(self, rng):
        series_list = [rng.normal(size=n) for n in (400, 37, 5, 256)]
        stacked, offsets = extract_windows_batch(series_list, 64, stride=32)
        per_series = [extract_windows(s, 64, stride=32) for s in series_list]
        assert np.array_equal(stacked, np.vstack(per_series))
        assert offsets.tolist() == np.cumsum([0] + [len(p) for p in per_series]).tolist()

    def test_window_count_matches_extraction(self, rng):
        for length in (5, 64, 100, 401):
            series = rng.normal(size=length)
            assert count_windows(length, 64, 32) == len(extract_windows(series, 64, stride=32))

    def test_microbatches_respect_window_budget(self):
        records = [generate_series("ECG", i, 400, seed=1) for i in range(6)]
        per_record = count_windows(400, 64, 64)
        batches = list(microbatches(records, 64, max_windows=2 * per_record))
        assert [r.name for batch in batches for r in batch] == [r.name for r in records]
        assert all(len(batch) <= 2 for batch in batches)

    def test_microbatches_never_split_one_series(self):
        record = generate_series("ECG", 0, 4000, seed=1)
        batches = list(microbatches([record], 64, max_windows=1))
        assert len(batches) == 1 and batches[0] == [record]

    def test_microbatches_oversized_series_isolated_among_small_ones(self):
        small = generate_series("ECG", 0, 128, seed=1)      # 2 windows
        big = generate_series("IOPS", 1, 4000, seed=1)      # 62 windows >> budget
        batches = list(microbatches([small, big, small], 64, max_windows=4))
        assert [[r.name for r in batch] for batch in batches] == \
            [[small.name], [big.name], [small.name]]

    def test_microbatches_empty_input_yields_no_batches(self):
        assert list(microbatches([], 64, max_windows=8)) == []

    def test_microbatches_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            list(microbatches([generate_series("ECG", 0, 100, seed=1)], 64, max_windows=0))


@pytest.fixture(scope="module")
def serving_world():
    """A trained selector + labelled query series shared by the service tests."""
    train_records = [generate_series(name, 0, 400, seed=4) for name in ("ECG", "IOPS", "MGAB", "SMD")]
    detector_names = ["IForest", "HBOS", "MP", "POLY"]
    gen = np.random.default_rng(9)
    matrix = gen.uniform(0.05, 0.4, size=(len(train_records), len(detector_names)))
    matrix[np.arange(len(train_records)), np.arange(len(train_records))] += 0.5
    dataset = build_selector_dataset(train_records, matrix, detector_names, window=64, stride=64)

    selector = make_selector("MLP", window=64, n_classes=4, hidden=16, feature_dim=8, seed=0)
    selector.fit(dataset, config=TrainerConfig(epochs=2, batch_size=32))

    queries = [generate_series(name, 3, 500, seed=6) for name in ("ECG", "IOPS", "MGAB", "SMD", "NAB")]
    return {"selector": selector, "detector_names": detector_names, "queries": queries}


def _fresh_service(world, **overrides) -> SelectionService:
    overrides.setdefault("window", 64)
    return SelectionService(world["selector"], world["detector_names"], ServingConfig(**overrides))


class TestSelectionService:
    def test_batch_matches_sequential_bitwise(self, serving_world):
        service = _fresh_service(serving_world)
        results = service.select_batch(serving_world["queries"])
        for record, result in zip(serving_world["queries"], results):
            choice, aggregated = predict_for_series(serving_world["selector"], record, 64)
            assert result.selected_index == choice
            assert result.selected_model == serving_world["detector_names"][choice]
            assert list(result.votes.values()) == [float(v) for v in aggregated]
            assert not result.from_cache

    def test_second_pass_is_served_from_cache(self, serving_world):
        service = _fresh_service(serving_world)
        cold = service.select_batch(serving_world["queries"])
        warm = service.select_batch(serving_world["queries"])
        assert all(r.from_cache for r in warm)
        assert all(not r.from_cache for r in cold)
        assert [(r.selected_index, r.votes) for r in warm] == \
               [(r.selected_index, r.votes) for r in cold]
        stats = service.stats
        n = len(serving_world["queries"])
        assert (stats.hits, stats.misses) == (n, n)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_duplicates_in_one_batch_computed_once(self, serving_world):
        service = _fresh_service(serving_world)
        record = serving_world["queries"][0]
        twin = generate_series("ECG", 3, 500, seed=6)  # same bytes, fresh object
        results = service.select_batch([record, twin])
        assert results[0].votes == results[1].votes
        assert not results[0].from_cache and not results[1].from_cache
        stats = service.stats
        assert (stats.hits, stats.misses, stats.size) == (0, 1, 1)

    def test_caller_mutating_votes_cannot_poison_cache(self, serving_world):
        service = _fresh_service(serving_world)
        record = serving_world["queries"][0]
        first = service.select(record)
        expected = dict(first.votes)
        first.votes.clear()  # a hostile/careless caller mutates its result
        second = service.select(record)
        assert second.from_cache and second.votes == expected
        second.votes["IForest"] = 99.0
        assert service.select(record).votes == expected

    def test_select_single_uses_same_path(self, serving_world):
        service = _fresh_service(serving_world)
        record = serving_world["queries"][0]
        first = service.select(record)
        second = service.select(record)
        assert not first.from_cache and second.from_cache
        assert first.votes == second.votes

    def test_cache_capacity_bounds_entries(self, serving_world):
        service = _fresh_service(serving_world, cache_capacity=2)
        service.select_batch(serving_world["queries"])
        stats = service.stats
        assert stats.size == 2
        assert stats.evictions == len(serving_world["queries"]) - 2

    def test_config_changes_cache_key(self, serving_world):
        vote = _fresh_service(serving_world)
        record = serving_world["queries"][0]
        key_vote = vote.fingerprint(record)
        mean = _fresh_service(serving_world, aggregation="mean")
        assert key_vote != mean.fingerprint(record)

    def test_as_dict_is_json_ready(self, serving_world):
        import json

        service = _fresh_service(serving_world)
        payload = service.select(serving_world["queries"][0]).as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["selected_model"] in serving_world["detector_names"]

    def test_pipeline_as_service_matches_select_model(self):
        model_set = {name: make_detector(name, window=16) for name in ("IForest", "HBOS")}
        pipeline = ModelSelectionPipeline(
            model_set=model_set,
            config=PipelineConfig(window=64, stride=64, detector_window=16, seed=0),
        )
        records = [generate_series(name, 0, 400, seed=4) for name in ("ECG", "SMD")]
        pipeline.prepare_training_data(records)
        pipeline.train_selector("KNN")

        service = pipeline.as_service(cache_capacity=16)
        for record in records:
            expected = pipeline.select_model(record)
            result = service.select(record)
            assert result.selected_model == expected["selected_model"]
            assert result.votes == expected["votes"]

    def test_as_service_requires_trained_selector(self):
        pipeline = ModelSelectionPipeline(model_set={"HBOS": make_detector("HBOS")})
        with pytest.raises(RuntimeError):
            pipeline.as_service()


class TestNonFiniteSelection:
    """A series holding NaN or an infinity gets a typed error at both
    selection entry points, naming the series and the first bad point,
    and nothing about it reaches the cache."""

    BAD_VALUES = (np.nan, np.inf, -np.inf)

    @staticmethod
    def _broken(world, value):
        record = world["queries"][0]
        series = record.series.copy()
        series[100] = value
        return replace(record, name="broken", series=series)

    @pytest.mark.parametrize("value", BAD_VALUES)
    def test_select_batch_rejects_before_caching(self, serving_world, value):
        service = _fresh_service(serving_world)
        healthy = serving_world["queries"][1]
        with pytest.raises(NonFiniteSeriesError,
                           match=r"^selection .*'broken'.* at index 100$"):
            service.select_batch([healthy, self._broken(serving_world, value)])
        stats = service.stats
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        # the rejected batch left no trace: the healthy series is a cold miss
        assert not service.select(healthy).from_cache

    @pytest.mark.parametrize("value", BAD_VALUES)
    def test_predict_for_series_rejects(self, serving_world, value):
        with pytest.raises(NonFiniteSeriesError,
                           match=r"^selection .*'broken'.* at index 100$"):
            predict_for_series(serving_world["selector"], self._broken(serving_world, value), 64)


class TestEmptySelection:
    """An empty series has no point to window: both selection entry points
    raise a ``ValueError`` naming it, and nothing about it reaches the cache."""

    @staticmethod
    def _empty(world):
        return replace(world["queries"][0], name="empty", series=np.zeros(0), labels=np.zeros(0),
                       anomalies=[])

    def test_select_batch_rejects_before_caching(self, serving_world):
        service = _fresh_service(serving_world)
        healthy = serving_world["queries"][1]
        with pytest.raises(ValueError, match=r"^selection cannot use empty series 'empty'$"):
            service.select_batch([healthy, self._empty(serving_world)])
        stats = service.stats
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        assert not service.select(healthy).from_cache

    def test_predict_for_series_rejects(self, serving_world):
        with pytest.raises(ValueError, match=r"^selection cannot use empty series 'empty'$"):
            predict_for_series(serving_world["selector"], self._empty(serving_world), 64)


class TestShortSeriesSelection:
    """A series shorter than the window is answered from one window padded
    with its last value.  The service, ``predict_for_series`` and the stream
    engine give the same answer bit for bit; only the engine marks it
    ``provisional``."""

    WINDOW = 32
    NAMES = list(DEFAULT_MODEL_NAMES)

    @pytest.fixture(scope="class")
    def convnet(self):
        selector = make_selector("ConvNet", window=self.WINDOW, n_classes=len(self.NAMES), seed=0)
        selector.build()
        return selector

    @pytest.mark.parametrize("length", [1, 10, WINDOW - 1])
    def test_every_entry_point_gives_the_padded_window_answer(self, convnet, length):
        base = generate_series("ECG", 0, 400, seed=4)
        record = replace(base, name="short", series=base.series[:length].copy(),
                         labels=base.labels[:length].copy(), anomalies=[])
        choice, aggregated = predict_for_series(convnet, record, self.WINDOW)
        served = SelectionService(convnet, self.NAMES,
                                  ServingConfig(window=self.WINDOW)).select(record)
        streamed = StreamEngine(convnet, self.NAMES,
                                StreamingConfig(window=self.WINDOW)).push("short", record.series)
        assert served.n_windows == streamed.n_windows == 1
        assert served.selected_index == streamed.selected_index == choice
        for votes in (served.votes, streamed.votes):
            assert list(votes) == self.NAMES
            assert np.array_equal(np.array(list(votes.values())), aggregated)
        assert streamed.provisional and streamed.n_new_windows == 0


class TestScaledSelection:
    """A finite series scaled to ~1e300 is answered exactly as the series
    itself: its window stds overflow float64, so each row is divided by its
    largest magnitude before it is normalised."""

    SCALES = (1e300, 1e306)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", SCALES)
    def test_select_batch_ignores_scale(self, serving_world, scale):
        queries = serving_world["queries"]
        scaled = [replace(r, name=f"{r.name}-scaled", series=r.series * scale) for r in queries]
        expected = _fresh_service(serving_world).select_batch(queries)
        results = _fresh_service(serving_world).select_batch(scaled)
        assert [(r.selected_index, r.votes) for r in results] == \
            [(r.selected_index, r.votes) for r in expected]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", SCALES)
    def test_predict_for_series_ignores_scale(self, serving_world, scale):
        for record in serving_world["queries"]:
            choice, aggregated = predict_for_series(serving_world["selector"], record, 64)
            scaled = replace(record, series=record.series * scale)
            scaled_choice, scaled_aggregated = predict_for_series(serving_world["selector"], scaled, 64)
            assert scaled_choice == choice
            assert np.array_equal(scaled_aggregated, aggregated)


class TestWorkerFanOut:
    def test_oracle_parallel_matches_sequential(self):
        records = [generate_series(name, 0, 300, seed=2) for name in ("ECG", "NAB", "SMD")]
        model_set = {name: make_detector(name, window=16) for name in ("HBOS", "POLY")}
        sequential = Oracle(model_set, max_workers=0).performance_matrix(records)
        parallel = Oracle(model_set, max_workers=3).performance_matrix(records)
        assert np.array_equal(sequential, parallel)

    def test_oracle_parallel_is_deterministic_with_nn_detectors(self):
        """Regression: NN detectors build models inside score(), reseeding the
        init RNG and toggling the grad flag; each forked worker changes only
        its own copy of that state, so fan-out must stay bitwise equal."""
        records = [generate_series(name, 0, 300, seed=2) for name in ("ECG", "NAB", "SMD")]
        model_set = {"AE": make_detector("AE", window=16), "CNN": make_detector("CNN", window=16)}
        sequential = Oracle(model_set, max_workers=0).performance_matrix(records)
        parallel = Oracle(model_set, max_workers=3).performance_matrix(records)
        assert np.array_equal(sequential, parallel)
