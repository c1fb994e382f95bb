"""Tests for the observability subsystem (repro.obs).

The invariant everything here guards: observability only *reads* the
pipeline.  With metrics, tracing and auditing all enabled, every selection
and score must stay bitwise-identical to an uninstrumented run, and an
audited selection must replay bit-for-bit from its content-hashed inputs.
"""

import json

import numpy as np
import pytest

from repro.core import TrainerConfig
from repro.data import build_selector_dataset, generate_series
from repro.obs import (
    AuditLog,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_AUDIT,
    NULL_METRIC,
    NULL_TRACER,
    NullAuditLog,
    Tracer,
    explain_from_audit,
    explain_stream,
    format_explain,
    replay_selection,
    set_default_tracer,
)
from repro.obs import metrics as obs_metrics
from repro.obs.audit import SELECTION_INPUTS_FORMAT
from repro.selectors import make_selector
from repro.serving import series_fingerprint
from repro.streaming import StreamEngine, StreamingConfig


# --------------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter("t_total", "help")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_keeps_the_last_value_set(self):
        gauge = Gauge("g", "help")
        gauge.set(10)
        gauge.set(7)
        assert gauge.value == 7

    def test_histogram_buckets_are_cumulative(self):
        histogram = Histogram("h_seconds", "help", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(5.55)
        # exported rows are cumulative
        rows = {(suffix, labels.get("le")): value
                for suffix, labels, value in histogram.samples()}
        assert rows[("_bucket", "0.1")] == 1
        assert rows[("_bucket", "1")] == 2
        assert rows[("_bucket", "+Inf")] == 3

    def test_histogram_timer_observes_once(self):
        histogram = Histogram("h2_seconds", "help")
        with histogram.time():
            pass
        assert histogram.count == 1

    def test_registry_returns_same_metric_for_same_name_and_labels(self):
        registry = MetricsRegistry(enabled=True)
        a = registry.histogram("x_seconds", "help", shard="s0")
        b = registry.histogram("x_seconds", shard="s0")
        c = registry.histogram("x_seconds", shard="s1")
        assert a is b and a is not c
        a.observe(0.5)
        assert registry.histogram("x_seconds", shard="s0").count == 1

    def test_registry_rejects_kind_mismatch(self):
        registry = MetricsRegistry(enabled=True)
        registry.register(Counter("y_total"))
        with pytest.raises(TypeError):
            registry.histogram("y_total")

    def test_disabled_registry_hands_out_null_metrics(self):
        registry = MetricsRegistry(enabled=False)
        metric = registry.histogram("z_seconds")
        assert metric is NULL_METRIC
        metric.inc()  # must be a no-op, not an error
        metric.observe(0.5)
        with metric.time():
            pass
        assert registry.render_prometheus() == ""

    def test_registered_metric_works_even_when_registry_disabled(self):
        # stats-bearing components construct real counters and register
        # them; the counter must count regardless of the registry switch
        registry = MetricsRegistry(enabled=False)
        counter = registry.register(Counter("real_total"))
        counter.inc(3)
        assert counter.value == 3
        assert registry.metrics() == []

    def test_register_collision_gets_instance_label(self):
        registry = MetricsRegistry(enabled=True)
        first = registry.register(Counter("dup_total", "h"))
        second = registry.register(Counter("dup_total", "h"))
        first.inc()
        second.inc(2)
        text = registry.render_prometheus()
        assert 'dup_total 1' in text
        assert 'dup_total{instance="2"} 2' in text

    def test_prometheus_rendering_format(self):
        registry = MetricsRegistry(enabled=True)
        registry.register(Counter("req_total", "requests served", {"shard": "s0"})).inc(7)
        histogram = registry.histogram("lat_seconds", "latency", buckets=(0.5,))
        histogram.observe(0.25)
        text = registry.render_prometheus()
        assert "# HELP req_total requests served" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{shard="s0"} 7' in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="0.5"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_sum 0.25" in text
        assert "lat_seconds_count 1" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry(enabled=True)
        registry.register(Counter("esc_total", "h", {"path": 'a"b\\c\nd'})).inc()
        assert 'esc_total{path="a\\"b\\\\c\\nd"} 1' in registry.render_prometheus()

    def test_default_registry_swap_round_trip(self):
        replacement = MetricsRegistry(enabled=True)
        previous = obs_metrics.set_default_registry(replacement)
        try:
            assert obs_metrics.default_registry() is replacement
        finally:
            obs_metrics.set_default_registry(previous)
        assert obs_metrics.default_registry() is previous


# --------------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_spans_nest_and_use_the_injected_clock(self):
        ticks = iter([1.0, 2.0, 3.0, 4.0])
        tracer = Tracer(clock=lambda: next(ticks))
        with tracer.span("outer", stream="s0"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans[0], tracer.spans[1]
        assert (outer.name, inner.name) == ("outer", "inner")
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.start_s == 1.0 and inner.start_s == 2.0
        assert inner.duration_s == 1.0 and outer.duration_s == 3.0
        assert outer.attrs == {"stream": "s0"}

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(sink=path)
        with tracer.span("flush", streams=2):
            pass
        tracer.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0]["name"] == "flush"
        assert rows[0]["attrs"] == {"streams": 2}
        assert rows[0]["end_s"] >= rows[0]["start_s"]

    def test_default_tracer_swap_and_null(self):
        tracer = Tracer()
        previous = set_default_tracer(tracer)
        try:
            from repro.obs import span
            with span("top"):
                pass
            assert [s.name for s in tracer.spans] == ["top"]
        finally:
            set_default_tracer(previous)
        # the null tracer accepts spans silently
        with NULL_TRACER.span("ignored"):
            pass
        assert not NULL_TRACER.enabled


# --------------------------------------------------------------------------- #
# audit log
# --------------------------------------------------------------------------- #
class TestAuditLog:
    def test_record_read_round_trip(self, tmp_path):
        path = tmp_path / "audit.jsonl"
        audit = AuditLog(path)
        audit.record("selection", stream="s0", selected_index=2)
        audit.record("drift", stream="s1", statistic=0.4)
        audit.close()
        events = AuditLog.read(path)
        assert [e["event"] for e in events] == ["selection", "drift"]
        assert [e["seq"] for e in events] == [1, 2]
        assert events[0]["stream"] == "s0"

    def test_logs_are_byte_identical_across_runs(self, tmp_path):
        # clock-free by default: the trail itself is replayable output
        def run(path):
            audit = AuditLog(path)
            for i in range(3):
                audit.record("selection", stream=f"s{i}", votes={"a": 1.0})
            audit.close()
            return path.read_bytes()

        assert run(tmp_path / "a.jsonl") == run(tmp_path / "b.jsonl")

    def test_event_and_stream_filters(self):
        audit = AuditLog()
        audit.record("selection", stream="s0")
        audit.record("selection", stream="s1")
        audit.record("drift", stream="s0")
        assert len(audit.events(event="selection")) == 2
        assert len(audit.events(stream="s0")) == 2
        assert len(audit.events(event="drift", stream="s1")) == 0

    def test_log_and_trace_sink_create_parent_directories(self, tmp_path):
        audit = AuditLog(tmp_path / "new" / "dir" / "audit.jsonl")
        audit.record("selection", stream="s0")
        audit.close()
        assert len(AuditLog.read(tmp_path / "new" / "dir" / "audit.jsonl")) == 1
        tracer = Tracer(clock=iter([0.0, 1.0]).__next__,
                        sink=tmp_path / "other" / "spans.jsonl")
        with tracer.span("t"):
            pass
        tracer.close()
        assert (tmp_path / "other" / "spans.jsonl").exists()

    def test_null_audit_is_disabled_and_inert(self):
        assert not NULL_AUDIT.enabled
        assert NULL_AUDIT.record("selection", stream="x") is None
        assert NULL_AUDIT.events() == []
        assert len(NullAuditLog()) == 0

    def test_content_hash_sensitive_to_data_and_knobs(self, rng):
        series = rng.normal(size=256)
        base = series_fingerprint(series, extra=(64, 64, "vote"))
        assert base == series_fingerprint(series.copy(), extra=(64, 64, "vote"))
        assert base != series_fingerprint(series, extra=(64, 32, "vote"))
        perturbed = series.copy()
        perturbed[7] += 1e-12
        assert base != series_fingerprint(perturbed, extra=(64, 64, "vote"))


# --------------------------------------------------------------------------- #
# the engine under full observability: bitwise equivalence + replay
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def obs_world():
    """A trained selector + live traffic, as in test_streaming."""
    train_records = [generate_series(name, 0, 400, seed=4)
                     for name in ("ECG", "IOPS", "MGAB", "SMD")]
    detector_names = ["IForest", "HBOS", "MP", "POLY"]
    gen = np.random.default_rng(9)
    matrix = gen.uniform(0.05, 0.4, size=(len(train_records), len(detector_names)))
    matrix[np.arange(len(train_records)), np.arange(len(train_records))] += 0.5
    dataset = build_selector_dataset(train_records, matrix, detector_names,
                                     window=64, stride=64)
    selector = make_selector("MLP", window=64, n_classes=4, hidden=16,
                             feature_dim=8, seed=0)
    selector.fit(dataset, config=TrainerConfig(epochs=2, batch_size=32))
    gen = np.random.default_rng(6)
    streams = {f"s{i}": gen.normal(size=300) for i in range(4)}
    return {"selector": selector, "detector_names": detector_names,
            "streams": streams}


def _drive_engine(engine, streams, n_ticks=3, chunk=100):
    updates = {}
    for tick in range(n_ticks):
        for sid, series in streams.items():
            engine.append(sid, series[tick * chunk:(tick + 1) * chunk])
        for sid, update in engine.flush().items():
            updates[sid] = update.as_dict()
    return updates


@pytest.fixture
def full_obs(tmp_path):
    """Enable every surface (registry + tracer), restore on exit."""
    registry = MetricsRegistry(enabled=True)
    previous_registry = obs_metrics.set_default_registry(registry)
    tracer = Tracer(sink=tmp_path / "spans.jsonl")
    previous_tracer = set_default_tracer(tracer)
    yield registry, tracer
    set_default_tracer(previous_tracer)
    tracer.close()
    obs_metrics.set_default_registry(previous_registry)


class TestBitwiseUnderObservability:
    def test_stream_engine_selections_identical_with_obs_on(self, obs_world,
                                                            full_obs, tmp_path):
        config = StreamingConfig(window=64, stride=32)
        plain = StreamEngine(obs_world["selector"], obs_world["detector_names"],
                             config)
        reference = _drive_engine(plain, obs_world["streams"])
        reference_scores = {s: plain.scores(s) for s in obs_world["streams"]}

        audit = AuditLog(tmp_path / "audit.jsonl")
        instrumented = StreamEngine(obs_world["selector"],
                                    obs_world["detector_names"], config,
                                    audit=audit)
        updates = _drive_engine(instrumented, obs_world["streams"])
        assert updates == reference
        for stream in obs_world["streams"]:
            assert np.array_equal(instrumented.scores(stream),
                                  reference_scores[stream])
        # the surfaces actually collected something; the instrumented
        # engine's flush counter is the second one, under instance="2"
        registry, tracer = full_obs
        flushes = {metric.labels.get("instance"): metric.value
                   for metric in registry.metrics()
                   if metric.name == "repro_stream_flushes_total"}
        assert flushes == {None: 3, "2": 3}
        assert any(s.name == "engine.flush" for s in tracer.spans)
        assert len(audit.events(event="selection")) > 0

    def test_sharded_service_selections_identical_with_obs_on(self, obs_world,
                                                              full_obs, tmp_path):
        from repro.service import (ServiceConfig, ShardedService,
                                   make_engine_factory)

        config = StreamingConfig(window=64, stride=32)
        plain = StreamEngine(obs_world["selector"], obs_world["detector_names"],
                             config)
        reference = _drive_engine(plain, obs_world["streams"], n_ticks=2)

        audit = AuditLog(tmp_path / "service_audit.jsonl")
        factory = make_engine_factory(obs_world["selector"],
                                      obs_world["detector_names"], config)
        with ShardedService(factory, ServiceConfig(n_shards=2),
                            audit=audit) as service:
            updates = {}
            for tick in range(2):
                for sid, series in obs_world["streams"].items():
                    service.append(sid, series[tick * 100:(tick + 1) * 100])
                updates.update(service.flush())
            assert updates == reference
            assert service.stats()["recoveries"] == 0
        selections = audit.events(event="selection")
        assert len(selections) == 2 * len(obs_world["streams"])
        # router-side audit carries the same decision the engine made
        last = {e["stream"]: e for e in selections}
        for sid, update in reference.items():
            assert last[sid]["selected_index"] == update["selected_index"]
            assert last[sid]["votes"] == update["votes"]


class TestAuditReplay:
    def test_recorded_selection_replays_bitwise(self, obs_world, tmp_path):
        audit = AuditLog(tmp_path / "audit.jsonl")
        engine = StreamEngine(obs_world["selector"], obs_world["detector_names"],
                              StreamingConfig(window=64, stride=32), audit=audit)
        _drive_engine(engine, obs_world["streams"])
        audit.close()

        events = AuditLog.read(tmp_path / "audit.jsonl")
        replayed_any = False
        for stream in obs_world["streams"]:
            final = [e for e in events if e["event"] == "selection"
                     and e["stream"] == stream][-1]
            if final["provisional"]:
                continue
            result = replay_selection(final, engine.series(stream),
                                      obs_world["selector"])
            assert result["selected_index"] == final["selected_index"]
            assert result["votes"] == final["votes"]
            assert result["n_windows"] == final["n_windows"]
            replayed_any = True
        assert replayed_any

    def test_replay_refuses_tampered_series(self, obs_world, tmp_path):
        audit = AuditLog()
        engine = StreamEngine(obs_world["selector"], obs_world["detector_names"],
                              StreamingConfig(window=64, stride=32), audit=audit)
        _drive_engine(engine, obs_world["streams"])
        final = audit.events(event="selection", stream="s0")[-1]
        tampered = engine.series("s0").copy()
        tampered[0] += 1e-9
        with pytest.raises(ValueError, match="hash"):
            replay_selection(final, tampered, obs_world["selector"])

    def test_replay_refuses_unversioned_inputs(self, obs_world):
        """Events of the padded-forward era carry ``predict_batch_size``
        and no format version; their bits cannot be reproduced."""
        audit = AuditLog()
        engine = StreamEngine(obs_world["selector"], obs_world["detector_names"],
                              StreamingConfig(window=64, stride=32), audit=audit)
        _drive_engine(engine, obs_world["streams"])
        final = audit.events(event="selection", stream="s0")[-1]
        assert final["inputs"]["format"] == SELECTION_INPUTS_FORMAT
        legacy = {k: v for k, v in final["inputs"].items() if k != "format"}
        legacy["predict_batch_size"] = 64
        with pytest.raises(ValueError, match="format None"):
            replay_selection(dict(final, inputs=legacy), engine.series("s0"),
                             obs_world["selector"])

    @pytest.mark.parametrize("chunk", [1, 7, 64, None])
    @pytest.mark.parametrize("via_view", [False, True])
    def test_running_digest_equals_fingerprint_from_scratch(self, obs_world,
                                                            chunk, via_view):
        """After every tick the audited hash, kept incrementally, equals the
        fingerprint of the whole prefix hashed from scratch."""
        series = obs_world["streams"]["s0"][:150]
        chunk = chunk or len(series)
        audit = AuditLog(keep=None)
        config = StreamingConfig(window=64, stride=32)
        engine = StreamEngine(obs_world["selector"], obs_world["detector_names"],
                              config, audit=audit)
        for start in range(0, len(series), chunk):
            end = min(start + chunk, len(series))
            if via_view:
                engine.append_view("s", series[:end])
            else:
                engine.append("s", series[start:end])
            engine.flush()
            inputs = audit.events(event="selection")[-1]["inputs"]
            assert inputs["length"] == end
            assert inputs["series_hash"] == series_fingerprint(
                series[:end], extra=(64, 32, "vote"))

    def test_replay_refuses_foreign_events(self, obs_world):
        with pytest.raises(ValueError):
            replay_selection({"event": "drift"}, np.zeros(10),
                             obs_world["selector"])
        with pytest.raises(ValueError):
            replay_selection({"event": "selection", "provisional": True,
                              "inputs": None}, np.zeros(10),
                             obs_world["selector"])

    def test_stream_update_as_dict_round_trips_through_json(self, obs_world):
        engine = StreamEngine(obs_world["selector"], obs_world["detector_names"],
                              StreamingConfig(window=64, stride=32))
        update = engine.push("s0", obs_world["streams"]["s0"][:200])
        decoded = json.loads(json.dumps(update.as_dict()))
        assert decoded == update.as_dict()


# --------------------------------------------------------------------------- #
# explain
# --------------------------------------------------------------------------- #
class TestExplain:
    def test_engine_explain_matches_selection(self, obs_world):
        engine = StreamEngine(obs_world["selector"], obs_world["detector_names"],
                              StreamingConfig(window=64, stride=32))
        _drive_engine(engine, obs_world["streams"])
        for stream in obs_world["streams"]:
            info = engine.explain(stream)
            view = engine.selection(stream)
            assert info["selected_index"] == view.selected_index
            assert info["n_windows"] == view.n_windows
            votes = info["votes"]
            ranked = sorted(votes.values(), reverse=True)
            assert info["margin"] == pytest.approx(ranked[0] - ranked[1])
            assert sum(info["window_votes"].values()) == \
                view.n_windows - info["vote_start"]
        with pytest.raises(KeyError):
            engine.explain("unknown-stream")

    def test_explain_from_audit_reproduces_winner_and_margin(self, obs_world):
        audit = AuditLog()
        engine = StreamEngine(obs_world["selector"], obs_world["detector_names"],
                              StreamingConfig(window=64, stride=32), audit=audit)
        _drive_engine(engine, obs_world["streams"])
        for stream in obs_world["streams"]:
            live = explain_stream(engine, stream)
            recorded = explain_from_audit(audit.events(), stream)
            assert recorded["selected_index"] == live["selected_index"]
            assert recorded["selected_model"] == live["selected_model"]
            assert recorded["votes"] == live["votes"]
            assert recorded["margin"] == live["margin"]
        with pytest.raises(ValueError):
            explain_from_audit(audit.events(), "never-seen")

    def test_format_explain_renders_both_sources(self, obs_world):
        audit = AuditLog()
        engine = StreamEngine(obs_world["selector"], obs_world["detector_names"],
                              StreamingConfig(window=64, stride=32), audit=audit)
        _drive_engine(engine, obs_world["streams"])
        for info in (explain_stream(engine, "s0"),
                     explain_from_audit(audit.events(), "s0")):
            text = format_explain(info)
            assert "s0" in text and info["selected_model"] in text
            assert "Vote share" in text

    def test_format_explain_surfaces_quantization_provenance(self, obs_world):
        engine = StreamEngine(obs_world["selector"], obs_world["detector_names"],
                              StreamingConfig(window=64, stride=32))
        _drive_engine(engine, obs_world["streams"])
        info = explain_stream(engine, "s0")
        assert info["quantization"] is None  # float selector: nothing to show
        info["quantization"] = {"agreement": 0.9985, "n_calibration": 160,
                                "act_scales_hash": "f024bb7753935900",
                                "n_quantized_convs": 8, "n_folded_bns": 6}
        text = format_explain(info)
        assert "quantization: agreement 0.9985" in text
        assert "scales hash f024bb7753935900" in text
        assert "8 int8 convs, 6 folded norms" in text


# --------------------------------------------------------------------------- #
# registry-backed stats views stay coherent
# --------------------------------------------------------------------------- #
class TestStatsViews:
    def test_engine_stats_track_registry_counters(self, obs_world):
        engine = StreamEngine(obs_world["selector"], obs_world["detector_names"],
                              StreamingConfig(window=64, stride=32))
        _drive_engine(engine, obs_world["streams"], n_ticks=2)
        stats = engine.stats
        assert stats.flushes == 2
        assert stats.points == 2 * 100 * len(obs_world["streams"])
        # every complete window took exactly one forward, none was provisional
        assert stats.forward_windows == stats.windows > 0

    def test_cache_stats_view_reflects_counter_values(self):
        from repro.serving.cache import LRUCache

        cache = LRUCache(capacity=2, name="t")
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.lookups) == (1, 1, 2)
        assert stats.hit_rate == pytest.approx(0.5)
