"""Tests for the sharded streaming service (repro.service).

The load-bearing property is **bitwise equivalence**: a service with any
number of shards — including one that was recovered — must produce exactly
the selections and scores of a single in-process :class:`StreamEngine`.
The fault-injection side lives in ``tests/chaos/``; this module covers the
routing hash, the transport layer, the shared-memory handoff and the
happy-path service semantics.
"""

import asyncio
import contextlib
import signal
import socket
import threading
import time
from multiprocessing import resource_tracker, shared_memory

import numpy as np
import pytest

from repro.core import TrainerConfig
from repro.data import build_selector_dataset, generate_series
from repro.detectors.base import NonFiniteSeriesError
from repro.selectors import make_selector
from repro.service import (
    FrameReader,
    ServiceConfig,
    ShardClient,
    ShardedService,
    ShardServer,
    ShardTimeoutError,
    SharedSegmentCache,
    SharedSeriesBuffer,
    TransportError,
    attach_shared_array,
    encode_message,
    make_engine_factory,
    shard_index,
)
from repro.service.supervisor import ShardSupervisor
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
# stream routing
# --------------------------------------------------------------------------- #
TEN_K_STREAMS = [f"stream-{i}" for i in range(10_000)]


class TestShardIndex:
    def test_index_is_deterministic_and_in_range(self):
        for n in range(1, 9):
            indices = [shard_index(sid, n) for sid in TEN_K_STREAMS[:100]]
            assert [shard_index(sid, n) for sid in TEN_K_STREAMS[:100]] == indices
            assert all(0 <= index < n for index in indices)

    def test_uniformity_bounded_imbalance(self):
        # no shard may own more than 25% above (or below) its fair share
        # of a 10k-stream population
        for n in (2, 4, 8):
            counts = np.bincount([shard_index(sid, n) for sid in TEN_K_STREAMS],
                                 minlength=n)
            expected = len(TEN_K_STREAMS) / n
            assert counts.max() <= 1.25 * expected, counts
            assert counts.min() >= 0.75 * expected, counts

    def test_uniformity_chi_square(self):
        # the assignment is statistically uniform: chi-square over 4 shards
        # x 10k streams below the 99.9% critical value for 3 degrees of
        # freedom (16.27)
        counts = np.bincount([shard_index(sid, 4) for sid in TEN_K_STREAMS], minlength=4)
        expected = len(TEN_K_STREAMS) / 4
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 16.27, (chi2, counts)


# --------------------------------------------------------------------------- #
# transport framing + the shard request channel
# --------------------------------------------------------------------------- #
class TestTransport:
    def test_message_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            payload = {"op": "ping", "seq": 7, "values": [1.5, -2.25]}
            a.sendall(encode_message(payload))
            assert FrameReader(b).read_frame() == payload
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none_and_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        a.close()
        assert FrameReader(b).read_frame() is None
        b.close()
        a, b = socket.socketpair()
        frame = encode_message({"op": "ping"})
        a.sendall(frame[: len(frame) - 2])
        a.close()
        with pytest.raises(TransportError):
            FrameReader(b).read_frame()
        b.close()

    def test_read_without_a_timeout_waits_for_a_late_frame(self):
        """With no timeout the read blocks until the frame arrives, then
        reports the peer's clean hang-up as ``None``."""
        a, b = socket.socketpair()
        payload = {"op": "select", "seq": 3}

        def write_late():
            time.sleep(0.05)
            a.sendall(encode_message(payload))
            a.close()

        writer = threading.Thread(target=write_late)
        writer.start()
        try:
            reader = FrameReader(b)
            assert reader.read_frame() == payload
            assert reader.read_frame() is None
        finally:
            writer.join(timeout=10.0)
            assert not writer.is_alive()
            b.close()

    @pytest.mark.parametrize("reader", ["FrameReader", "frontend"])
    def test_oversized_frame_rejected(self, reader):
        oversized = (MAX_MESSAGE_BYTES + 1).to_bytes(4, "big")
        if reader == "frontend":
            # the front end never reaches its service for a frame it refuses
            with _running_frontend(service=None) as frontend:
                with socket.create_connection(("127.0.0.1", frontend.port),
                                              timeout=5.0) as conn:
                    replies = FrameReader(conn)
                    # undecodable bodies are answered on the same connection
                    conn.sendall(len(b"\xff{").to_bytes(4, "big") + b"\xff{")
                    assert "error" in replies.read_frame(5.0)
                    conn.sendall(encode_message([1, 2]))
                    assert "JSON objects" in replies.read_frame(5.0)["error"]
                    # an oversized header is answered, then the peer hangs up
                    conn.sendall(oversized)
                    assert "exceeds the protocol limit" in replies.read_frame(5.0)["error"]
                    assert replies.read_frame(5.0) is None
            return
        a, b = socket.socketpair()
        try:
            a.sendall(oversized)
            with pytest.raises(TransportError, match="protocol limit"):
                FrameReader(b).read_frame(timeout_s=1.0)
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("cut", [1, 3, 4, 5, -1])
    def test_frame_cut_in_its_header_or_body_raises(self, cut):
        """A peer that hangs up inside a header (1 or 3 of its 4 bytes) or a
        body (right after the header, one byte in, one byte short) leaves a
        ``TransportError``, not a hang or a partial message."""
        frame = encode_message({"op": "ping", "seq": 1})
        a, b = socket.socketpair()
        try:
            a.sendall(frame[:cut])
            a.close()
            with pytest.raises(TransportError, match="connection closed mid-frame"):
                FrameReader(b).read_frame(timeout_s=1.0)
        finally:
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


class TestShardClient:
    """``ShardClient.request`` against a plain socket peer: one request
    frame out, one reply frame back, and a typed error for every other end."""

    @pytest.fixture
    def connect(self):
        listen = socket.create_server(("127.0.0.1", 0))
        opened = []

        def connect(timeout_s=5.0):
            client = ShardClient(listen.getsockname()[1], timeout_s=timeout_s)
            peer, _ = listen.accept()
            opened.extend([client, peer])
            return client, peer

        yield connect
        for end in opened:
            end.close()
        listen.close()

    def test_reply_comes_back_as_sent(self, connect):
        client, peer = connect()
        reply = {"updates": {"s0": {"length": 100, "votes": {"HBOS": 0.25}}}, "events": []}
        # the reply waits in the client's receive buffer until it reads
        peer.sendall(encode_message(reply))
        assert client.request("push_batch", ticks=[{"stream": "s0"}], audit=False) == reply
        assert FrameReader(peer).read_frame(1.0) == {
            "op": "push_batch", "ticks": [{"stream": "s0"}], "audit": False}

    def test_error_frame_raises_runtime_error_naming_the_op(self, connect):
        client, peer = connect()
        peer.sendall(encode_message({"error": "ValueError: unknown op 'frobnicate'"}))
        with pytest.raises(RuntimeError,
                           match=r"^shard error on 'frobnicate': ValueError: unknown op"):
            client.request("frobnicate")

    @pytest.mark.parametrize("sent, message", [
        (b"", "shard closed the connection"),
        (encode_message({"ok": True})[:6], "connection closed mid-frame"),
    ])
    def test_hang_up_raises_transport_error(self, connect, sent, message):
        client, peer = connect()
        # half-close: the peer sends its end-of-stream but still takes the
        # request, so the client reads the hang-up rather than a reset
        peer.sendall(sent)
        peer.shutdown(socket.SHUT_WR)
        with pytest.raises(TransportError, match=message):
            client.request("stats")

    def test_silence_raises_timeout_and_a_late_reply_answers_nothing(self, connect):
        client, peer = connect(timeout_s=0.2)
        with pytest.raises(ShardTimeoutError, match=r"did not answer 'stats' within 0\.2s"):
            client.request("stats")
        assert FrameReader(peer).read_frame(1.0) == {"op": "stats"}
        peer.sendall(encode_message({"stats": {}}))
        # the timed-out connection is closed, so the late reply can never
        # be taken for the answer to the next request
        with pytest.raises(OSError):
            client.request("select", stream="s0")


class TestServiceConfig:
    @pytest.mark.parametrize("fields, message", [
        ({"n_shards": 0}, "n_shards must be >= 1"),
        ({"n_shards": -2}, "n_shards must be >= 1"),
        ({"request_timeout_s": 0.0}, "request_timeout_s must be > 0"),
        ({"request_timeout_s": -1.0}, "request_timeout_s must be > 0"),
        ({"request_timeout_s": float("nan")}, "request_timeout_s must be > 0"),
    ])
    def test_bad_values_are_rejected_when_built(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ServiceConfig(**fields)

    @pytest.mark.parametrize("timeout", [float("inf"), 1e12, 2 * threading.TIMEOUT_MAX])
    def test_timeouts_a_socket_refuses_are_rejected_when_built(self, timeout):
        with pytest.raises(ValueError, match="^request_timeout_s must be finite and at most "):
            ServiceConfig(request_timeout_s=timeout)

    def test_the_largest_timeout_a_socket_takes_is_accepted(self):
        config = ServiceConfig(request_timeout_s=threading.TIMEOUT_MAX)
        with socket.create_server(("127.0.0.1", 0)) as server:
            ShardClient(server.getsockname()[1], timeout_s=config.request_timeout_s).close()


class TestShardSupervisor:
    def test_restart_sigkills_a_live_shard(self, service_world):
        factory = make_engine_factory(service_world["selector"], service_world["detector_names"],
                                      StreamingConfig(window=64, stride=32))
        supervisor = ShardSupervisor(factory)
        try:
            old = supervisor.spawn("shard-0").process
            new = supervisor.restart("shard-0")
            assert old.exitcode == -signal.SIGKILL
            assert new.generation == 2 and new.is_alive() and supervisor.restarts == 1
        finally:
            supervisor.stop_all()
        assert new.process.exitcode is not None


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

    def test_attaching_an_unlinked_name_raises_and_restores_the_tracker(self):
        buffer = SharedSeriesBuffer("s", initial_capacity=4)
        name = buffer.name
        buffer.close()  # unlinks, as growth unlinks the segment it replaces
        register = resource_tracker.register
        with pytest.raises(FileNotFoundError):
            attach_shared_array(name, 1)
        assert resource_tracker.register is register

    def test_length_beyond_the_segment_closes_it_and_names_both(self, monkeypatch):
        buffer = SharedSeriesBuffer("s", initial_capacity=4)
        closed = []
        close = shared_memory.SharedMemory.close

        def recording_close(shm):
            closed.append(shm.name)
            close(shm)

        monkeypatch.setattr(shared_memory.SharedMemory, "close", recording_close)
        try:
            buffer.append(np.arange(4, dtype=np.float64))
            message = f"'{buffer.name}' holds 4 float64 values; length 5 does not fit"
            with pytest.raises(ValueError, match=message) as raised:
                attach_shared_array(buffer.name, 5)
            # closed before the raise: the traceback still holds the segment,
            # so its finaliser has not run yet
            assert closed == [buffer.name]
            del raised
            # an attached segment refuses the same length and keeps serving
            cache = SharedSegmentCache()
            try:
                assert np.array_equal(cache.view("s", buffer.name, 4), np.arange(4.0))
                with pytest.raises(ValueError, match=message):
                    cache.view("s", buffer.name, 5)
                assert np.array_equal(cache.view("s", buffer.name, 2), np.arange(2.0))
            finally:
                cache.close()
        finally:
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
            owners = [service.owner(sid) for sid in drifting_streams]
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
                    replies = FrameReader(conn)

                    def call(**payload):
                        conn.sendall(encode_message(payload))
                        return replies.read_frame(10.0)

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


class TestShardRejectsBadSegments:
    def test_stale_or_over_long_append_gets_an_error_frame_and_the_shard_serves_on(
            self, service_world):
        factory = make_engine_factory(service_world["selector"],
                                      service_world["detector_names"],
                                      StreamingConfig(window=64, stride=32))
        listen = socket.create_server(("127.0.0.1", 0))
        server = ShardServer("shard-0", listen, factory)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        series = service_world["streams"]["s0"]
        stale = SharedSeriesBuffer("s0", initial_capacity=4)
        stale_name = stale.name
        stale.close()
        buffer = SharedSeriesBuffer("s0", initial_capacity=128)
        try:
            buffer.append(series[:100])
            with socket.create_connection(listen.getsockname(), timeout=10.0) as conn:
                replies = FrameReader(conn)

                def push(name, length):
                    conn.sendall(encode_message({"op": "push_batch", "ticks": [
                        {"stream": "s0", "shm": name, "length": length}]}))
                    return replies.read_frame(10.0)

                assert push(stale_name, 100)["error"].startswith("FileNotFoundError")
                assert push(buffer.name, 129) == {
                    "error": f"ValueError: shared segment '{buffer.name}' "
                             "holds 128 float64 values; length 129 does not fit"}
                answer = push(buffer.name, 100)
                assert "error" not in answer and set(answer["updates"]) == {"s0"}
                conn.sendall(encode_message({"op": "shutdown"}))
                assert replies.read_frame(10.0) == {"ok": True}
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        finally:
            buffer.close()
            listen.close()


class TestServiceLifecycle:
    def test_close_is_idempotent_and_final(self, service_world):
        service = _make_service(service_world, 1)
        service.push("s", np.zeros(64))
        service.close()
        service.close()
        with pytest.raises(ValueError):
            service.append("s", np.zeros(8))

    def test_non_finite_chunk_never_reaches_shared_memory(self, service_world, monkeypatch):
        """The front end rejects a non-finite chunk before it creates or
        writes the stream's segment; later finite chunks answer as an
        in-process engine fed only the finite chunks."""
        writes = []
        shared_append = SharedSeriesBuffer.append

        def recording_append(buffer, values):
            writes.append(len(values))
            return shared_append(buffer, values)

        monkeypatch.setattr(SharedSeriesBuffer, "append", recording_append)
        engine = StreamEngine(service_world["selector"], service_world["detector_names"],
                              StreamingConfig(window=64, stride=32))
        series = service_world["streams"]["s0"]
        bad = series[100:200].copy()
        bad[5] = np.inf
        with _make_service(service_world, 1) as service:
            with pytest.raises(NonFiniteSeriesError, match=r"'fresh': value nan at index 0$"):
                service.append("fresh", np.full(8, np.nan))
            with pytest.raises(KeyError):
                service.series("fresh")
            assert service.push("s", series[:100]) == engine.push("s", series[:100]).as_dict()
            with pytest.raises(NonFiniteSeriesError,
                               match=r"^sharded service .*'s': value inf at index 105$"):
                service.append("s", bad)
            assert writes == [100]
            assert np.array_equal(service.series("s"), series[:100])
            assert service.push("s", series[200:]) == engine.push("s", series[200:]).as_dict()
            assert np.array_equal(service.scores("s"), engine.scores("s"))

    def test_unknown_stream_raises(self, service_world):
        with _make_service(service_world, 1) as service:
            with pytest.raises(KeyError):
                service.series("ghost")
