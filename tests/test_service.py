"""Tests for the sharded streaming service (repro.service).

The load-bearing property is **bitwise equivalence**: a service with any
number of shards — including one that was rebalanced or recovered — must
produce exactly the selections and scores of a single in-process
:class:`StreamEngine`.  The fault-injection side lives in ``tests/chaos/``;
this module covers the ring, the transport layer, the shared-memory
handoff and the happy-path service semantics.
"""

import asyncio
import contextlib
import socket
import threading

import numpy as np
import pytest

from repro.core import TrainerConfig
from repro.data import build_selector_dataset, generate_series
from repro.selectors import make_selector
from repro.service import (
    FaultInjector,
    FrameReader,
    HashRing,
    ServiceConfig,
    ShardedService,
    SharedSegmentCache,
    SharedSeriesBuffer,
    TransportError,
    attach_shared_array,
    encode_message,
    make_engine_factory,
    recv_message,
    send_message,
)
from repro.service.transport import MAX_MESSAGE_BYTES
from repro.streaming import DriftConfig, StreamEngine, StreamingConfig


@contextlib.contextmanager
def _running_frontend(service):
    """A :class:`ServiceFrontend` serving ``service`` on an event loop thread."""
    from repro.service import ServiceFrontend

    frontend = ServiceFrontend(service)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run_loop():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(frontend.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run_loop, daemon=True)
    thread.start()
    assert started.wait(timeout=10.0)
    try:
        yield frontend
    finally:
        asyncio.run_coroutine_threadsafe(frontend.stop(), loop).result(timeout=10.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)
        loop.close()


# --------------------------------------------------------------------------- #
# consistent-hash ring
# --------------------------------------------------------------------------- #
TEN_K_STREAMS = [f"stream-{i}" for i in range(10_000)]


class TestHashRing:
    def test_owner_is_deterministic_and_total(self):
        ring = HashRing(["a", "b", "c"])
        owners = {sid: ring.owner(sid) for sid in TEN_K_STREAMS[:100]}
        again = HashRing(["a", "b", "c"])
        assert all(again.owner(sid) == owner for sid, owner in owners.items())
        assert set(owners.values()) <= {"a", "b", "c"}

    def test_uniformity_bounded_imbalance(self):
        # with the default 128 virtual nodes, no shard may own more than
        # 25% above (or below) its fair share of a 10k-stream population
        for n in (2, 4, 8):
            ring = HashRing([f"shard-{j}" for j in range(n)])
            counts = {s: 0 for s in ring.shard_ids}
            for sid in TEN_K_STREAMS:
                counts[ring.owner(sid)] += 1
            expected = len(TEN_K_STREAMS) / n
            assert max(counts.values()) <= 1.25 * expected, counts
            assert min(counts.values()) >= 0.75 * expected, counts

    def test_uniformity_chi_square(self):
        # with enough virtual nodes the assignment is statistically uniform:
        # chi-square over 4 shards x 10k streams below the 99.9% critical
        # value for 3 degrees of freedom (16.27)
        ring = HashRing([f"shard-{j}" for j in range(4)], replicas=512)
        counts = {s: 0 for s in ring.shard_ids}
        for sid in TEN_K_STREAMS:
            counts[ring.owner(sid)] += 1
        expected = len(TEN_K_STREAMS) / 4
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 16.27, (chi2, counts)

    def test_adding_a_shard_moves_a_minimal_slice(self):
        ring = HashRing([f"shard-{j}" for j in range(4)])
        before = {sid: ring.owner(sid) for sid in TEN_K_STREAMS}
        ring.add("shard-new")
        moved = [sid for sid in TEN_K_STREAMS if ring.owner(sid) != before[sid]]
        # every moved stream went *to* the new shard (nothing reshuffles
        # between surviving shards) and the slice is about K/(N+1)
        assert all(ring.owner(sid) == "shard-new" for sid in moved)
        assert len(moved) <= 2 * len(TEN_K_STREAMS) / 5

    def test_removing_a_shard_moves_only_its_streams(self):
        ring = HashRing([f"shard-{j}" for j in range(4)])
        before = {sid: ring.owner(sid) for sid in TEN_K_STREAMS}
        ring.remove("shard-2")
        for sid in TEN_K_STREAMS:
            if before[sid] != "shard-2":
                assert ring.owner(sid) == before[sid]
            else:
                assert ring.owner(sid) != "shard-2"

    def test_ownership_is_insertion_order_independent(self):
        forward = HashRing(["a", "b", "c", "d"])
        backward = HashRing(["d", "c", "b", "a"])
        rebuilt = HashRing(["b", "d"])
        rebuilt.add("a")
        rebuilt.add("c")
        for sid in TEN_K_STREAMS[:500]:
            assert forward.owner(sid) == backward.owner(sid) == rebuilt.owner(sid)

    def test_state_round_trip_preserves_ownership(self):
        ring = HashRing(["a", "b", "c"], replicas=32)
        clone = HashRing.from_state(ring.to_state())
        assert clone.to_state() == ring.to_state()
        assert all(clone.owner(sid) == ring.owner(sid) for sid in TEN_K_STREAMS[:200])

    def test_assign_groups_by_owner(self):
        ring = HashRing(["a", "b"])
        grouped = ring.assign(TEN_K_STREAMS[:50])
        assert sorted(sid for streams in grouped.values() for sid in streams) \
            == sorted(TEN_K_STREAMS[:50])
        for shard, streams in grouped.items():
            assert all(ring.owner(sid) == shard for sid in streams)

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)
        with pytest.raises(LookupError):
            HashRing().owner("s")
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(KeyError):
            ring.remove("ghost")
        with pytest.raises(ValueError):
            ring.add("")


# --------------------------------------------------------------------------- #
# transport framing + fault injector
# --------------------------------------------------------------------------- #
class TestTransport:
    def test_message_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "ping", "seq": 7, "values": [1.5, -2.25]}
            send_message(a, payload)
            assert recv_message(b) == payload
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none_and_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        a.close()
        assert recv_message(b) is None
        b.close()
        a, b = socket.socketpair()
        frame = encode_message({"op": "ping"})
        a.sendall(frame[: len(frame) - 2])
        a.close()
        with pytest.raises(TransportError):
            recv_message(b)
        b.close()

    @pytest.mark.parametrize("reader", ["recv_message", "FrameReader", "frontend"])
    def test_oversized_frame_rejected(self, reader):
        oversized = (MAX_MESSAGE_BYTES + 1).to_bytes(4, "big")
        if reader == "frontend":
            # the front end never reaches its service for a frame it refuses
            with _running_frontend(service=None) as frontend:
                with socket.create_connection(("127.0.0.1", frontend.port),
                                              timeout=5.0) as conn:
                    # undecodable bodies are answered on the same connection
                    conn.sendall(len(b"\xff{").to_bytes(4, "big") + b"\xff{")
                    assert "error" in recv_message(conn)
                    send_message(conn, [1, 2])
                    assert "JSON objects" in recv_message(conn)["error"]
                    # an oversized header is answered, then the peer hangs up
                    conn.sendall(oversized)
                    assert "exceeds the protocol limit" in recv_message(conn)["error"]
                    assert recv_message(conn) is None
            return
        a, b = socket.socketpair()
        try:
            a.sendall(oversized)
            with pytest.raises(TransportError, match="protocol limit"):
                if reader == "recv_message":
                    recv_message(b)
                else:
                    FrameReader(b).read_frame(timeout_s=1.0)
        finally:
            a.close()
            b.close()

    def test_frame_reader_survives_mid_frame_timeout(self):
        # a timeout between the two halves of a frame must not desync the
        # framing — the second half completes the original message
        a, b = socket.socketpair()
        try:
            reader = FrameReader(b)
            frame = encode_message({"op": "ping", "seq": 1})
            a.sendall(frame[:3])
            with pytest.raises(TimeoutError):
                reader.read_frame(timeout_s=0.05)
            a.sendall(frame[3:])
            assert reader.read_frame(timeout_s=1.0) == {"op": "ping", "seq": 1}
        finally:
            a.close()
            b.close()

    def test_frame_reader_handles_coalesced_frames(self):
        a, b = socket.socketpair()
        try:
            reader = FrameReader(b)
            a.sendall(encode_message({"seq": 1}) + encode_message({"seq": 2}))
            assert reader.read_frame(1.0) == {"seq": 1}
            assert reader.read_frame(1.0) == {"seq": 2}
        finally:
            a.close()
            b.close()

    def test_fault_injector_is_seed_deterministic(self):
        one = FaultInjector(seed=42, drop=0.3, duplicate=0.2, delay=0.1)
        two = FaultInjector(seed=42, drop=0.3, duplicate=0.2, delay=0.1)
        assert [one.plan() for _ in range(200)] == [two.plan() for _ in range(200)]
        assert one.dropped == two.dropped and one.duplicated == two.duplicated
        assert one.dropped > 0 and one.duplicated > 0 and one.delayed > 0

    def test_fault_injector_validates_probabilities(self):
        with pytest.raises(ValueError):
            FaultInjector(seed=0, drop=1.5)


# --------------------------------------------------------------------------- #
# shared-memory series buffers
# --------------------------------------------------------------------------- #
class TestSharedMemory:
    def test_append_and_read_back(self):
        buffer = SharedSeriesBuffer("s", initial_capacity=8)
        try:
            values = np.arange(5, dtype=np.float64)
            assert buffer.append(values) == (0, 5)
            assert np.array_equal(buffer.series, values)
            assert buffer.append([9.0]) == (5, 6)
            assert buffer.length == len(buffer) == 6
        finally:
            buffer.close()

    def test_growth_copies_prefix_and_renames_segment(self):
        buffer = SharedSeriesBuffer("s", initial_capacity=4)
        try:
            buffer.append(np.arange(4, dtype=np.float64))
            name_before = buffer.name
            buffer.append(np.arange(4, 100, dtype=np.float64))
            assert buffer.name != name_before  # a new, larger segment
            assert np.array_equal(buffer.series, np.arange(100, dtype=np.float64))
        finally:
            buffer.close()

    def test_attach_shared_array_views_the_same_bytes(self):
        buffer = SharedSeriesBuffer("s", initial_capacity=16)
        try:
            buffer.append(np.linspace(0.0, 1.0, 10))
            shm, view = attach_shared_array(buffer.name, buffer.length)
            try:
                assert np.array_equal(view, buffer.series)
                assert not view.flags.writeable
            finally:
                shm.close()
        finally:
            buffer.close()

    def test_segment_cache_reattaches_on_rename(self):
        buffer = SharedSeriesBuffer("s", initial_capacity=4)
        cache = SharedSegmentCache()
        try:
            buffer.append(np.arange(3, dtype=np.float64))
            view = cache.view("s", buffer.name, buffer.length)
            assert np.array_equal(view, np.arange(3, dtype=np.float64))
            buffer.append(np.arange(3, 50, dtype=np.float64))  # forces growth
            view = cache.view("s", buffer.name, buffer.length)
            assert np.array_equal(view, np.arange(50, dtype=np.float64))
        finally:
            cache.close()
            buffer.close()

    def test_closed_buffer_rejects_appends(self):
        buffer = SharedSeriesBuffer("s")
        buffer.close()
        with pytest.raises(ValueError):
            buffer.append([1.0])
        buffer.close()  # idempotent

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SharedSeriesBuffer("s", initial_capacity=0)


# --------------------------------------------------------------------------- #
# the sharded service against the in-process engine
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def service_world():
    """A trained selector + deterministic live traffic, as in test_streaming."""
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
    streams = {f"s{i}": gen.normal(size=300) for i in range(6)}
    return {"selector": selector, "detector_names": detector_names,
            "streams": streams}


def _drive(target, streams, n_ticks=3, chunk=100):
    """Feed every stream in ticks; returns the final update per stream."""
    updates = {}
    for tick in range(n_ticks):
        for sid, series in streams.items():
            target.append(sid, series[tick * chunk:(tick + 1) * chunk])
        for sid, update in target.flush().items():
            updates[sid] = update.as_dict() if hasattr(update, "as_dict") else update
    return updates


@pytest.fixture(scope="module")
def reference_run(service_world):
    """The in-process engine's answers for the shared traffic."""
    engine = StreamEngine(service_world["selector"],
                          service_world["detector_names"],
                          StreamingConfig(window=64, stride=32))
    updates = _drive(engine, service_world["streams"])
    scores = {sid: engine.scores(sid) for sid in service_world["streams"]}
    return {"updates": updates, "scores": scores}


def _make_service(world, n_shards, **config_overrides):
    factory = make_engine_factory(world["selector"], world["detector_names"],
                                  StreamingConfig(window=64, stride=32))
    return ShardedService(factory, ServiceConfig(n_shards=n_shards,
                                                 **config_overrides))


class TestShardedServiceEquivalence:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_bitwise_equal_to_in_process_engine(self, service_world,
                                                reference_run, n_shards):
        with _make_service(service_world, n_shards) as service:
            updates = _drive(service, service_world["streams"])
            for sid in service_world["streams"]:
                assert updates[sid] == reference_run["updates"][sid]
                assert np.array_equal(service.scores(sid),
                                      reference_run["scores"][sid])
                assert np.array_equal(service.series(sid)[:300],
                                      np.asarray(service_world["streams"][sid]))

    def test_concurrent_drifting_streams_match_in_process_engine(self, service_world,
                                                                 drifting_streams):
        """Two shards, three drifting streams: some shard flushes two at once."""
        config = StreamingConfig(window=64, drift=DriftConfig(
            reference_size=3, recent_size=3, threshold=0.05, release=0.01,
            cooldown=3), keep_last_on_drift=3)
        engine = StreamEngine(service_world["selector"],
                              service_world["detector_names"], config)
        expected = _drive(engine, drifting_streams, n_ticks=12, chunk=64)
        assert engine.stats.drift_triggers >= 1
        factory = make_engine_factory(service_world["selector"],
                                      service_world["detector_names"], config)
        with ShardedService(factory, ServiceConfig(n_shards=2)) as service:
            owners = [service.ring.owner(sid) for sid in drifting_streams]
            assert len(set(owners)) < len(owners)
            assert _drive(service, drifting_streams, n_ticks=12, chunk=64) == expected

    def test_push_single_stream_matches_engine_push(self, service_world):
        engine = StreamEngine(service_world["selector"],
                              service_world["detector_names"],
                              StreamingConfig(window=64, stride=32))
        series = service_world["streams"]["s0"]
        with _make_service(service_world, 2) as service:
            for start in range(0, 300, 75):
                chunk = series[start:start + 75]
                assert service.push("solo", chunk) == engine.push("solo", chunk).as_dict()

    def test_stats_aggregate_across_shards(self, service_world):
        with _make_service(service_world, 2) as service:
            _drive(service, service_world["streams"])
            stats = service.stats()
            assert stats["shards"] == 2
            assert stats["streams"] == len(service_world["streams"])
            assert stats["totals"]["n_streams"] == len(service_world["streams"])
            assert stats["totals"]["points"] == 6 * 300
            per_shard_streams = sum(s["n_streams"]
                                    for s in stats["per_shard"].values())
            assert per_shard_streams == len(service_world["streams"])
            assert stats["restarts"] == 0 and stats["recoveries"] == 0


class TestRebalance:
    def test_add_and_remove_shard_preserve_results(self, service_world,
                                                   reference_run):
        with _make_service(service_world, 2) as service:
            _drive(service, service_world["streams"])
            service.add_shard()
            assert len(service.shard_ids) == 3
            for sid in service_world["streams"]:
                assert np.array_equal(service.scores(sid),
                                      reference_run["scores"][sid])

    def test_streams_keep_flowing_after_rebalance(self, service_world,
                                                  reference_run):
        streams = service_world["streams"]
        with _make_service(service_world, 2) as service:
            _drive(service, streams, n_ticks=2)
            service.add_shard()
            # the third tick lands after the topology change — the final
            # updates must still be bitwise-equal to the uninterrupted run
            for sid, series in streams.items():
                service.append(sid, series[200:300])
            updates = service.flush()
            for sid in streams:
                assert updates[sid] == reference_run["updates"][sid]


class TestSelectionCache:
    def test_select_is_cached_until_new_data_arrives(self, service_world):
        streams = service_world["streams"]
        with _make_service(service_world, 2) as service:
            updates = _drive(service, streams, n_ticks=1)
            # push responses refresh the front-end LRU, so the first select
            # after a flush is already a cache hit — and answers bits-equal
            cached = service.select("s0")
            assert cached.get("cached") is True
            assert cached["selected_index"] == updates["s0"]["selected_index"]
            assert cached["votes"] == updates["s0"]["votes"]
            # staged (unflushed) data bypasses the cache: the cached answer
            # may be stale, so the shard is asked directly
            service.append("s0", streams["s0"][100:110])
            fresh = service.select("s0")
            assert "cached" not in fresh
            assert {k: fresh[k] for k in ("selected_index", "votes")} \
                == {k: cached[k] for k in ("selected_index", "votes")}

    def test_drift_flush_sends_only_push_batch(self, service_world, monkeypatch):
        """A drifting flush costs one request; its update is the next answer.

        The front-end LRU is the one select cache: the push response
        overwrites the stream's entry, and staged data bypasses it for the
        shard, which recomputes from the flushed state.
        """
        a = generate_series("ECG", 1, 640, seed=2).series
        b = generate_series("IOPS", 2, 640, seed=2).series
        stitched = np.concatenate([a, b])
        factory = make_engine_factory(
            service_world["selector"], service_world["detector_names"],
            StreamingConfig(window=64, stride=None,
                            drift=DriftConfig(reference_size=3, recent_size=3,
                                              threshold=0.05, release=0.01,
                                              cooldown=3),
                            keep_last_on_drift=3))
        with ShardedService(factory, ServiceConfig(n_shards=2)) as service:
            ops = []
            request = service._request
            monkeypatch.setattr(service, "_request", lambda shard_id, op, **fields:
                                ops.append(op) or request(shard_id, op, **fields))
            for start in range(0, len(stitched), 64):
                ops.clear()
                update = service.push("flip", stitched[start:start + 64])
                if update["drift_triggered"]:
                    break
            else:
                pytest.fail("the stitched stream never drifted")
            assert ops == ["push_batch"]
            answer = {"selected_index": update["selected_index"],
                      "votes": update["votes"], "n_windows": update["windows"]}
            cached = service.select("flip")
            assert cached["cached"] is True
            assert {k: cached[k] for k in answer} == answer
            service.append("flip", stitched[start + 64:start + 74])
            ops.clear()
            fresh = service.select("flip")
            assert ops == ["select"] and "cached" not in fresh
            assert {k: fresh[k] for k in answer} == answer
            assert service.stats()["totals"]["drift_triggers"] >= 1


class TestServiceFrontend:
    def test_tcp_round_trip_matches_python_api(self, service_world,
                                               reference_run):
        import asyncio
        import threading

        from repro.service import ServiceFrontend

        streams = service_world["streams"]
        with _make_service(service_world, 2) as service:
            frontend = ServiceFrontend(service)
            loop = asyncio.new_event_loop()
            started = threading.Event()

            def run_loop():
                asyncio.set_event_loop(loop)
                loop.run_until_complete(frontend.start())
                started.set()
                loop.run_forever()

            thread = threading.Thread(target=run_loop, daemon=True)
            thread.start()
            assert started.wait(timeout=10.0)
            try:
                conn = socket.create_connection(("127.0.0.1", frontend.port),
                                                timeout=10.0)
                try:
                    def call(**payload):
                        send_message(conn, payload)
                        return recv_message(conn)

                    assert call(op="ping")["ok"] is True
                    # drive the standard traffic over the wire
                    last = {}
                    for tick in range(3):
                        for sid, series in streams.items():
                            assert call(op="append", stream=sid,
                                        values=list(series[tick * 100:(tick + 1) * 100]))["ok"]
                        last.update(call(op="flush")["updates"])
                    # JSON floats round-trip exactly, so even over the wire
                    # the updates and scores stay bitwise-equal
                    for sid in streams:
                        assert last[sid] == reference_run["updates"][sid]
                        wire_scores = np.asarray(call(op="scores", stream=sid)["scores"])
                        assert np.array_equal(wire_scores,
                                              reference_run["scores"][sid])
                    selection = call(op="select", stream=sorted(streams)[0])["selection"]
                    assert selection["selected_model"] is not None
                    stats = call(op="stats")["stats"]
                    assert stats["shards"] == 2
                    assert "error" in call(op="frobnicate")
                finally:
                    conn.close()
            finally:
                asyncio.run_coroutine_threadsafe(frontend.stop(), loop) \
                    .result(timeout=10.0)
                loop.call_soon_threadsafe(loop.stop)
                thread.join(timeout=10.0)
                loop.close()


class TestServiceLifecycle:
    def test_close_is_idempotent_and_final(self, service_world):
        service = _make_service(service_world, 1)
        service.push("s", np.zeros(64))
        service.close()
        service.close()
        with pytest.raises(ValueError):
            service.append("s", np.zeros(8))

    def test_unknown_stream_raises(self, service_world):
        with _make_service(service_world, 1) as service:
            with pytest.raises(KeyError):
                service.series("ghost")
