"""Tests for the online selection + detection engine (repro.streaming)."""

import json
import re

import numpy as np
import pytest

from repro.core import TrainerConfig
from repro.data import (
    build_selector_dataset,
    complete_window_count,
    count_windows,
    extract_new_windows,
    extract_windows,
    generate_series,
)
from repro.detectors import HBOSDetector, make_detector
from repro.detectors.base import NonFiniteSeriesError
from repro.eval import aggregate_window_probas, predict_for_series
from repro.selectors import make_selector
from repro.serving import window_budget_groups
from repro.streaming import (
    DriftConfig,
    DriftMonitor,
    GrowingArray,
    OnlineScorer,
    StreamBuffer,
    StreamEngine,
    StreamingConfig,
    iter_chunks,
    parse_tick_line,
    replay_records,
    total_variation,
)
from repro.streaming.selector import stream_selection
from repro.system import ModelSelectionPipeline, PipelineConfig


class TestIncrementalWindowing:
    def test_complete_window_count_ignores_padding(self):
        assert complete_window_count(10, 64) == 0
        assert complete_window_count(64, 64) == 1
        assert complete_window_count(200, 64, 32) == 5
        # count_windows pads short series up to one window; the streaming
        # count must not
        assert count_windows(10, 64) == 1

    def test_extract_new_windows_matches_batch_rows(self, rng):
        series = rng.normal(size=500)
        full = extract_windows(series, 64, stride=32)
        got = extract_new_windows(series, 64, n_emitted=2, stride=32)
        assert np.array_equal(got, full[2:])

    def test_extract_new_windows_empty_when_nothing_new(self, rng):
        series = rng.normal(size=100)
        total = complete_window_count(100, 64, 32)
        assert extract_new_windows(series, 64, n_emitted=total, stride=32).shape == (0, 64)
        assert extract_new_windows(series[:10], 64, n_emitted=0).shape == (0, 64)


class TestGrowingArray:
    def test_append_and_read_back(self, rng):
        values = rng.normal(size=5000)
        arr = GrowingArray(initial_capacity=4)
        for start in range(0, len(values), 17):
            arr.append(values[start:start + 17])
        assert len(arr) == len(values)
        assert np.array_equal(arr.values, values)

    def test_values_view_is_read_only(self):
        arr = GrowingArray()
        arr.append(np.arange(3.0))
        with pytest.raises(ValueError):
            arr.values[0] = 99.0

    def test_rows_read_back_across_doublings(self, rng):
        rows = rng.normal(size=(300, 5))
        arr = GrowingArray(initial_capacity=2, row_width=5)
        for start in range(0, len(rows), 7):  # 2 -> 512 rows: eight doublings
            arr.append(rows[start:start + 7])
        assert len(arr) == len(rows)
        assert np.array_equal(arr.values, rows)
        with pytest.raises(ValueError):
            arr.values[0, 0] = 99.0


class TestStreamBuffer:
    def test_windows_match_batch_extraction_bitwise(self, rng):
        series = rng.normal(size=1000)
        buffer = StreamBuffer(window=64, stride=32)
        emitted = []
        for start in range(0, len(series), 13):
            buffer.extend(series[start:start + 13])
            emitted.append(buffer.take_new_windows())
        stacked = np.vstack([w for w in emitted if len(w)])
        assert np.array_equal(stacked, extract_windows(series, 64, stride=32))
        assert buffer.n_windows == complete_window_count(1000, 64, 32)

    def test_each_window_emitted_exactly_once(self, rng):
        series = rng.normal(size=300)
        buffer = StreamBuffer(window=64)
        total = 0
        for point in series:
            buffer.extend([point])
            total += len(buffer.take_new_windows())
        assert total == complete_window_count(300, 64)
        assert buffer.take_new_windows().shape == (0, 64)

    def test_no_padded_window_before_first_complete(self):
        buffer = StreamBuffer(window=64)
        buffer.extend(np.zeros(63))
        assert buffer.take_new_windows().shape == (0, 64)
        assert buffer.length == 63 and buffer.n_windows == 0
        buffer.extend(np.zeros(1))
        assert buffer.take_new_windows().shape == (1, 64)


@pytest.fixture(scope="module")
def streaming_world():
    """A trained selector + live query series shared by the engine tests."""
    train_records = [generate_series(name, 0, 400, seed=4)
                     for name in ("ECG", "IOPS", "MGAB", "SMD")]
    detector_names = ["IForest", "HBOS", "MP", "POLY"]
    gen = np.random.default_rng(9)
    matrix = gen.uniform(0.05, 0.4, size=(len(train_records), len(detector_names)))
    matrix[np.arange(len(train_records)), np.arange(len(train_records))] += 0.5
    dataset = build_selector_dataset(train_records, matrix, detector_names, window=64, stride=64)

    selector = make_selector("MLP", window=64, n_classes=4, hidden=16, feature_dim=8, seed=0)
    selector.fit(dataset, config=TrainerConfig(epochs=2, batch_size=32))

    queries = [generate_series(name, 3, 700, seed=6)
               for name in ("ECG", "IOPS", "MGAB", "SMD", "NAB")]
    return {"selector": selector, "detector_names": detector_names, "queries": queries}


def _fresh_engine(world, model_set=None, **overrides) -> StreamEngine:
    overrides.setdefault("window", 64)
    return StreamEngine(world["selector"], world["detector_names"],
                        StreamingConfig(**overrides), model_set=model_set)


class _RejectsHugeSeries(HBOSDetector):
    """HBOS that raises ``ValueError`` on a finite series beyond 1e100."""

    name = "Picky"

    def score(self, series: np.ndarray) -> np.ndarray:
        if np.abs(series).max() > 1e100:
            raise ValueError("magnitude beyond 1e100")
        return super().score(series)


class _CountingSelector:
    """Delegates to a selector and counts its ``predict_proba`` calls."""

    def __init__(self, selector) -> None:
        self.selector = selector
        self.calls = 0

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        self.calls += 1
        return self.selector.predict_proba(windows)


class TestRunningVote:
    def test_one_window_per_tick_stores_the_batch_rows(self, streaming_world):
        selector = streaming_world["selector"]
        engine = _fresh_engine(streaming_world)
        record = streaming_world["queries"][0]
        windows = extract_windows(record.series, 64, stride=64)
        for start in range(0, len(windows) * 64, 64):  # one window per tick
            engine.push(record.name, record.series[start:start + 64])
        stored = engine._streams[record.name].probas.values
        assert np.array_equal(stored, selector.predict_proba(windows))

    def test_stream_selection_matches_batch_pipeline_bitwise(self, streaming_world):
        selector = streaming_world["selector"]
        for record in streaming_world["queries"]:
            windows = extract_windows(record.series, 64, stride=64)
            view = stream_selection(selector.predict_proba(windows), record.series,
                                    selector.predict_proba, 64, 64, "vote")
            choice, aggregated = predict_for_series(selector, record, 64)
            assert not view.provisional and view.n_windows == len(windows)
            assert view.selected_index == choice
            assert np.array_equal(view.aggregated, aggregated)
        # before the first complete window: a provisional padded window,
        # and nothing at all without a point
        no_rows = np.empty((0, 4))
        partial = streaming_world["queries"][0].series[:20]
        view = stream_selection(no_rows, partial, selector.predict_proba, 64, 64, "vote")
        assert view.provisional and view.n_windows == 1
        assert stream_selection(no_rows, partial[:0], selector.predict_proba,
                                64, 64, "vote") is None

    def test_drift_reset_keeps_only_recent_windows(self, streaming_world):
        engine = _fresh_engine(
            streaming_world,
            drift=DriftConfig(reference_size=3, recent_size=3, threshold=0.05,
                              release=0.01, cooldown=3),
            keep_last_on_drift=3)
        stitched = np.concatenate([generate_series("ECG", 1, 640, seed=2).series,
                                   generate_series("IOPS", 2, 640, seed=2).series])
        for start in range(0, len(stitched), 64):
            if engine.push("flip", stitched[start:start + 64]).drift_triggered:
                break
        else:
            pytest.fail("the stitched stream never triggered a drift reset")
        state = engine._streams["flip"]
        assert state.vote_start == len(state.probas) - 3
        view = engine.selection("flip")
        assert view.n_windows == 3
        assert np.array_equal(view.aggregated,
                              aggregate_window_probas(state.probas.values[-3:])[1])


class TestDriftMonitor:
    @staticmethod
    def _onehot(index, n=4):
        row = np.zeros(n)
        row[index] = 1.0
        return row

    def test_total_variation_bounds(self):
        assert total_variation([1, 0], [0, 1]) == 1.0
        assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_no_trigger_on_stable_stream(self):
        monitor = DriftMonitor(DriftConfig(reference_size=4, recent_size=4,
                                           threshold=0.3, release=0.1, cooldown=4))
        for _ in range(50):
            decision = monitor.update([self._onehot(0)])
            assert not decision.triggered
        assert monitor.triggers == 0

    def test_shift_triggers_once_not_every_tick(self):
        monitor = DriftMonitor(DriftConfig(reference_size=4, recent_size=4,
                                           threshold=0.5, release=0.2, cooldown=4))
        for _ in range(8):
            monitor.update([self._onehot(0)])
        triggered = [monitor.update([self._onehot(1)]).triggered for _ in range(8)]
        assert sum(triggered) == 1  # hysteresis: re-collection, not flapping
        assert monitor.triggers == 1

    def test_retrigger_after_second_shift(self):
        monitor = DriftMonitor(DriftConfig(reference_size=2, recent_size=2,
                                           threshold=0.5, release=0.2, cooldown=2))
        for _ in range(4):
            monitor.update([self._onehot(0)])
        assert any([monitor.update([self._onehot(1)]).triggered for _ in range(6)])
        # after re-collection in regime 1, a move to regime 2 triggers again
        assert any([monitor.update([self._onehot(2)]).triggered for _ in range(8)])
        assert monitor.triggers == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftConfig(threshold=0.0)
        with pytest.raises(ValueError):
            DriftConfig(release=0.5, threshold=0.3)
        with pytest.raises(ValueError):
            DriftConfig(reference_size=0)


class TestOnlineScorer:
    def test_tail_rescoring_equals_full_rerun_bitwise(self, rng):
        series = rng.normal(size=1500).cumsum() * 0.1
        detector = make_detector("POLY", window=32)
        scorer = OnlineScorer(detector)
        n = 0
        while n < len(series):
            n = min(n + int(rng.integers(1, 50)), len(series))
            scorer.update(series[:n])
            if len(scorer.raw_scores):  # the detector needs 4 points
                assert np.array_equal(scorer.raw_scores, detector.score(series[:n]))
        assert scorer.tail_rescores > scorer.full_rescores
        assert np.array_equal(scorer.raw_scores, detector.score(series))
        assert np.array_equal(scorer.scores, detector.detect(series))

    def test_global_detector_falls_back_to_full_rescoring(self, rng):
        series = rng.normal(size=400)
        detector = make_detector("HBOS", window=16)
        scorer = OnlineScorer(detector)
        for n in range(50, 401, 50):
            scorer.update(series[:n])
        assert scorer.tail_rescores == 0 and scorer.full_rescores == 8
        assert np.array_equal(scorer.raw_scores, detector.score(series))

    def test_rescore_cadence_bounds_work(self, rng):
        series = rng.normal(size=410)
        detector = make_detector("HBOS", window=16)
        scorer = OnlineScorer(detector, rescore_every=100)
        for n in range(10, 401, 10):
            scorer.update(series[:n])
        # first possible score + one per 100 accumulated points; the scored
        # prefix lags until the next cadence boundary
        assert scorer.full_rescores == 4
        assert len(scorer.raw_scores) == 310
        assert not scorer.update(series[:409])
        # 100 points since the last re-score: the prefix is current again
        assert scorer.update(series)
        assert scorer.full_rescores == 5
        assert np.array_equal(scorer.raw_scores, detector.score(series))

    def test_local_detector_stays_current_despite_cadence(self, rng):
        """rescore_every bounds *full* re-runs; the exact tail path is cheap
        and keeps locally-scored detectors current every tick."""
        series = rng.normal(size=600)
        detector = make_detector("POLY", window=16)
        scorer = OnlineScorer(detector, rescore_every=10_000)
        for n in range(50, 601, 50):
            scorer.update(series[:n])
            assert np.array_equal(scorer.raw_scores, detector.score(series[:n]))
        assert scorer.tail_rescores == 11 and scorer.full_rescores == 1

    def test_switch_detector_forces_full_rescore(self, rng):
        series = rng.normal(size=300)
        scorer = OnlineScorer(make_detector("POLY", window=16))
        scorer.update(series)
        replacement = make_detector("HBOS", window=16)
        scorer.switch_detector(replacement)
        scorer.update(series)
        assert np.array_equal(scorer.raw_scores, replacement.score(series))

    def test_shrinking_series_rejected(self):
        scorer = OnlineScorer(make_detector("POLY", window=16))
        scorer.update(np.arange(100.0))
        with pytest.raises(ValueError):
            scorer.update(np.arange(50.0))

    @pytest.mark.parametrize("name", ["POLY", "MP"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected_before_scoring(self, name, bad):
        """A local (tail) and a global (full) detector alike: the update
        raises, names the detector and the index, and changes nothing."""
        series = np.sin(np.arange(300) / 7.0)
        scorer = OnlineScorer(make_detector(name, window=16))
        scorer.update(series[:200])
        before = scorer.raw_scores.copy()
        series[250] = bad
        with pytest.raises(ValueError, match=rf"^{name} .* at index 250$"):
            scorer.update(series)
        assert len(scorer.raw_scores) == 200
        assert np.array_equal(scorer.raw_scores, before)
        # the default cadence of 1 re-scores on the next finite update
        assert scorer.update(series[:240])
        assert np.array_equal(scorer.raw_scores, scorer.detector.score(series[:240]))


class TestStreamEngine:
    def test_selections_match_batch_pipeline_bitwise(self, streaming_world):
        engine = _fresh_engine(streaming_world)
        last = {}
        for updates in replay_records(engine, streaming_world["queries"], chunk=37):
            last.update(updates)
        for record in streaming_world["queries"]:
            update = last[record.name]
            choice, aggregated = predict_for_series(streaming_world["selector"], record, 64)
            assert update.selected_index == choice
            assert update.selected_model == streaming_world["detector_names"][choice]
            assert list(update.votes.values()) == [float(v) for v in aggregated]

    def test_forward_pass_only_on_new_windows(self, streaming_world):
        engine = _fresh_engine(streaming_world)
        record = streaming_world["queries"][0]
        for start in range(0, 700, 64):
            engine.push(record.name, record.series[start:start + 64])
        stats = engine.stats
        # exactly one forward pass per complete window, ever
        assert stats.windows == complete_window_count(700, 64)
        assert stats.forward_windows == stats.windows

    def test_provisional_answers_before_first_complete_window(self, streaming_world):
        engine = _fresh_engine(streaming_world)
        record = streaming_world["queries"][0]
        update = engine.push(record.name, record.series[:30])
        assert update.provisional and update.selected_index is not None
        update = engine.push(record.name, record.series[30:64])
        assert not update.provisional and update.n_windows == 1

    def test_tick_boundaries_do_not_change_results(self, streaming_world):
        record = streaming_world["queries"][1]
        answers = []
        for chunk in (11, 64, 700):
            engine = _fresh_engine(streaming_world)
            for start in range(0, 700, chunk):
                update = engine.push(record.name, record.series[start:start + chunk])
            answers.append((update.selected_index, tuple(update.votes.values())))
        assert answers[0] == answers[1] == answers[2]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", (1e300, 1e306))
    def test_scaled_stream_selects_as_unscaled(self, streaming_world, scale):
        answers = []
        for factor in (1.0, scale):
            engine = _fresh_engine(streaming_world)
            for record in streaming_world["queries"]:
                engine.push(record.name, record.series * factor)
            answers.append([(engine.selection(r.name).selected_index,
                             engine.selection(r.name).aggregated.tolist())
                            for r in streaming_world["queries"]])
        assert answers[0] == answers[1]

    def test_online_scores_match_batch_detection_bitwise(self, streaming_world):
        model_set = {name: make_detector(name, window=16)
                     for name in streaming_world["detector_names"]}
        engine = _fresh_engine(streaming_world, model_set=model_set)
        records = streaming_world["queries"][:2]
        for _ in replay_records(engine, records, chunk=50):
            # after every tick the scored prefix equals a batch detection of it
            for record in records:
                scores = engine.scores(record.name)
                view = engine.selection(record.name)
                detector = model_set[streaming_world["detector_names"][view.selected_index]]
                assert np.array_equal(scores, detector.detect(record.series[:len(scores)]))
        for record in records:
            view = engine.selection(record.name)
            detector = model_set[streaming_world["detector_names"][view.selected_index]]
            assert np.array_equal(engine.scores(record.name), detector.detect(record.series))

    def test_multi_stream_batching_matches_single_stream(self, streaming_world):
        records = streaming_world["queries"][:3]
        together = _fresh_engine(streaming_world)
        for updates in replay_records(together, records, chunk=40):
            last_together = dict(updates)
        separate = {}
        for record in records:
            engine = _fresh_engine(streaming_world)
            for start in range(0, 700, 40):
                separate[record.name] = engine.push(record.name, record.series[start:start + 40])
        for record in records:
            assert last_together[record.name].votes == separate[record.name].votes
            assert (last_together[record.name].selected_index
                    == separate[record.name].selected_index)

    def test_large_flush_runs_one_forward(self, streaming_world):
        """A flush of more than 8,192 new windows is one selector call."""
        counting = _CountingSelector(streaming_world["selector"])
        engine = StreamEngine(counting, streaming_world["detector_names"],
                              StreamingConfig(window=64))
        records = [generate_series(name, 7, 64 * 2800, seed=8)
                   for name in ("ECG", "IOPS", "SMD")]
        for record in records:
            engine.append(record.name, record.series)
        updates = engine.flush()
        assert counting.calls == 1
        assert sum(u.n_new_windows for u in updates.values()) == 3 * 2800
        for record in records:
            choice, aggregated = predict_for_series(streaming_world["selector"], record, 64)
            assert updates[record.name].selected_index == choice
            assert list(updates[record.name].votes.values()) == [float(v) for v in aggregated]

    def test_drift_reselection_can_change_model_midstream(self, streaming_world):
        # a stream whose character flips halfway: ECG-like, then IOPS-like
        a = generate_series("ECG", 1, 640, seed=2).series
        b = generate_series("IOPS", 2, 640, seed=2).series
        engine = _fresh_engine(
            streaming_world,
            drift=DriftConfig(reference_size=3, recent_size=3, threshold=0.05,
                              release=0.01, cooldown=3),
            keep_last_on_drift=3,
        )
        stitched = np.concatenate([a, b])
        triggered = False
        for start in range(0, len(stitched), 64):
            update = engine.push("flip", stitched[start:start + 64])
            triggered = triggered or update.drift_triggered
        assert triggered
        assert engine.stats.drift_triggers >= 1
        # the vote now covers only recent windows, not the whole history
        assert engine.selection("flip").n_windows < engine.stats.windows

    def test_concurrent_streams_under_drift_match_lone_streams(self, streaming_world,
                                                               drifting_streams):
        """Drifting streams sharing flushes answer as each would alone.

        Drift monitoring is per stream, so sharing flushes (and forward
        batches) with other drifting streams must not change any update.
        """
        drift = {"drift": DriftConfig(reference_size=3, recent_size=3, threshold=0.05,
                                      release=0.01, cooldown=3),
                 "keep_last_on_drift": 3}
        together = _fresh_engine(streaming_world, **drift)
        last = {}
        for start in range(0, 768, 64):
            for sid, series in drifting_streams.items():
                together.append(sid, series[start:start + 64])
            last.update(together.flush())
        assert together.stats.drift_triggers >= 1
        for sid, series in drifting_streams.items():
            alone = _fresh_engine(streaming_world, **drift)
            for start in range(0, 768, 64):
                update = alone.push(sid, series[start:start + 64])
            assert last[sid] == update

    def test_non_finite_stream_does_not_hold_up_the_others(self, streaming_world):
        """A chunk holding a non-finite point is rejected where it enters and
        leaves its stream exactly as it was; later finite chunks on both
        streams answer and score as lone engines fed only the finite chunks."""
        model_set = {name: make_detector(name, window=16)
                     for name in streaming_world["detector_names"]}
        healthy = streaming_world["queries"][0].series
        for bad in (np.nan, np.inf, -np.inf):
            broken = streaming_world["queries"][1].series.copy()
            broken[450] = bad
            self._reject_then_continue(streaming_world, model_set, healthy, broken)

    @staticmethod
    def _reject_then_continue(world, model_set, healthy, broken):
        together = _fresh_engine(world, model_set=model_set)
        alone = {name: _fresh_engine(world, model_set=model_set)
                 for name in ("healthy", "broken")}
        for start in range(0, 700, 100):
            chunk = slice(start, start + 100)
            together.append("healthy", healthy[chunk])
            if start == 400:
                arrays = (together.series("broken").copy(), together.scores("broken").copy(),
                          together.selection("broken").aggregated.copy())
                choice = together.selection("broken").selected_index
                assert len(arrays[1]) == 400
                with pytest.raises(NonFiniteSeriesError,
                                   match=r"^stream engine .*'broken': value .* at index 450$"):
                    together.append("broken", broken[chunk])
                assert together.selection("broken").selected_index == choice
                for was, now in zip(arrays, (together.series("broken"), together.scores("broken"),
                                             together.selection("broken").aggregated)):
                    assert np.array_equal(was, now)
                updates = together.flush()
                assert "broken" not in updates
            else:
                together.append("broken", broken[chunk])
                updates = together.flush()
                assert updates["broken"] == alone["broken"].push("broken", broken[chunk])
                assert updates["broken"].score_error is None
            assert updates["healthy"] == alone["healthy"].push("healthy", healthy[chunk])
            assert updates["healthy"].score_error is None
        for name in ("healthy", "broken"):
            assert np.array_equal(together.series(name), alone[name].series(name))
            assert np.array_equal(together.scores(name), alone[name].scores(name))
        assert len(together.series("broken")) == 600

    def test_non_finite_first_chunk_creates_no_stream(self, streaming_world):
        engine = _fresh_engine(streaming_world)
        with pytest.raises(NonFiniteSeriesError, match=r"'fresh': value inf at index 3$"):
            engine.append("fresh", [0.0, 1.0, 2.0, np.inf])
        assert "fresh" not in engine
        assert engine.stats.points == 0
        assert engine.flush() == {}

    def test_append_view_checks_only_the_new_points(self, streaming_world):
        series = streaming_world["queries"][0].series[:300].copy()
        engine = _fresh_engine(streaming_world)
        engine.append_view("s", series[:200])
        engine.flush()
        grown = series.copy()
        grown[250] = np.nan
        with pytest.raises(NonFiniteSeriesError, match=r"'s': value nan at index 250$"):
            engine.append_view("s", grown)
        assert len(engine.series("s")) == 200
        assert engine.flush() == {}
        engine.append_view("s", series)
        assert engine.flush()["s"].length == 300

    def test_detector_error_stays_with_its_stream(self, streaming_world):
        """A detector that raises ``ValueError`` on a finite series fails only
        its own stream's scoring; the stream sharing its flushes answers and
        scores exactly as it would alone."""
        model_set = {name: _RejectsHugeSeries(window=16)
                     for name in streaming_world["detector_names"]}
        healthy = streaming_world["queries"][0].series
        huge = streaming_world["queries"][1].series * 1e300
        together = _fresh_engine(streaming_world, model_set=model_set)
        alone = _fresh_engine(streaming_world, model_set=model_set)
        for start in range(0, 700, 100):
            together.append("healthy", healthy[start:start + 100])
            together.append("huge", huge[start:start + 100])
            updates = together.flush()
            assert updates["healthy"] == alone.push("healthy", healthy[start:start + 100])
            assert updates["healthy"].score_error is None
            assert updates["huge"].score_error == \
                "Picky cannot score the series: magnitude beyond 1e100"
        assert len(together.scores("huge")) == 0
        assert np.array_equal(together.scores("healthy"), alone.scores("healthy"))
        assert len(together.scores("healthy")) == 700

    def test_four_point_first_tick_is_scored_by_a_forecaster(self, streaming_world):
        """A stream's first tick of 4 points gets scores from the detector it
        picks, CNN included, and no ``score_error``."""
        cnn = make_detector("CNN", window=16)
        engine = _fresh_engine(streaming_world,
                               model_set={name: cnn for name in streaming_world["detector_names"]})
        series = streaming_world["queries"][0].series[:4]
        update = engine.push("s", series)
        assert update.selected_model is not None
        assert update.score_error is None
        assert np.array_equal(engine.scores("s"), cnn.detect(series))

    def test_engine_without_pending_flushes_to_nothing(self, streaming_world):
        engine = _fresh_engine(streaming_world)
        assert engine.flush() == {}

    @pytest.mark.parametrize("fields, message", [
        ({"window": 0}, r"^window must be >= 1$"),
        ({"stride": 0}, r"^stride must be >= 1"),
        ({"stride": -8}, r"^stride must be >= 1"),
        ({"aggregation": "median"}, r"^aggregation must be 'vote' or 'mean'$"),
        ({"keep_last_on_drift": -1}, r"^keep_last_on_drift must be >= 0$"),
        ({"rescore_every": 0}, r"^rescore_every must be >= 1$"),
    ])
    def test_config_rejects_bad_values_when_built(self, fields, message):
        with pytest.raises(ValueError, match=message):
            StreamingConfig(**fields)

    def test_model_set_must_cover_detector_names(self, streaming_world):
        with pytest.raises(ValueError):
            _fresh_engine(streaming_world, model_set={"IForest": make_detector("IForest")})

    def test_pipeline_as_stream_engine_matches_select_model(self):
        model_set = {name: make_detector(name, window=16) for name in ("IForest", "HBOS")}
        pipeline = ModelSelectionPipeline(
            model_set=model_set,
            config=PipelineConfig(window=64, stride=32, detector_window=16, seed=0),
        )
        records = [generate_series(name, 0, 400, seed=4) for name in ("ECG", "SMD")]
        pipeline.prepare_training_data(records)
        pipeline.train_selector("KNN")

        engine = pipeline.as_stream_engine()
        for record in records:
            update = engine.push(record.name, record.series)
            expected = pipeline.select_model(record)
            assert update.selected_model == expected["selected_model"]
            assert update.votes == expected["votes"]
            # scoring is opt-in: the default engine keeps no scorer
            assert engine.scores(record.name).shape == (0,)

        scoring = pipeline.as_stream_engine(score=True)
        record = records[0]
        scoring.push(record.name, record.series)
        assert len(scoring.scores(record.name)) == len(record.series)

    def test_as_stream_engine_requires_trained_selector(self):
        pipeline = ModelSelectionPipeline(model_set={"HBOS": make_detector("HBOS")})
        with pytest.raises(RuntimeError):
            pipeline.as_stream_engine()


class TestReplayHelpers:
    def test_iter_chunks_covers_series_in_order(self, rng):
        series = rng.normal(size=103)
        chunks = list(iter_chunks(series, 10))
        assert [len(c) for c in chunks] == [10] * 10 + [3]
        assert np.array_equal(np.concatenate(chunks), series)

    def test_iter_chunks_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            list(iter_chunks(np.arange(5.0), 0))

    def test_replay_handles_unequal_stream_lengths(self, streaming_world):
        short = generate_series("ECG", 9, 150, seed=1)
        long = generate_series("SMD", 9, 400, seed=1)
        engine = _fresh_engine(streaming_world)
        rounds = list(replay_records(engine, [short, long], chunk=100))
        assert len(rounds) == 4  # the long stream keeps ticking alone
        assert engine.series(short.name).shape == (150,)
        assert engine.series(long.name).shape == (400,)

    def test_parse_tick_line_formats(self):
        stream, values = parse_tick_line("3.5")
        assert stream == "stdin" and values.tolist() == [3.5]
        stream, values = parse_tick_line('{"stream": "a", "values": [1, 2]}')
        assert stream == "a" and values.tolist() == [1.0, 2.0]
        stream, values = parse_tick_line('{"value": 7}')
        assert stream == "stdin" and values.tolist() == [7.0]

    def test_parse_tick_line_rejects_garbage(self):
        for bad in ("", "not-a-number", "{broken", '{"stream": "a"}', "[1, 2]"):
            with pytest.raises(ValueError):
                parse_tick_line(bad)


class TestWindowBudgetGroups:
    def test_groups_respect_budget_and_order(self):
        groups = window_budget_groups([3, 3, 3, 3], max_windows=6)
        assert groups == [[0, 1], [2, 3]]

    def test_oversized_item_forms_own_group(self):
        assert window_budget_groups([10], max_windows=4) == [[0]]
        assert window_budget_groups([1, 10, 1], max_windows=4) == [[0], [1], [2]]

    def test_zero_count_items_ride_along(self):
        assert window_budget_groups([0, 5, 0], max_windows=5) == [[0, 1, 2]]

    def test_empty_and_invalid_inputs(self):
        assert window_budget_groups([], max_windows=8) == []
        with pytest.raises(ValueError):
            window_budget_groups([1], max_windows=0)
