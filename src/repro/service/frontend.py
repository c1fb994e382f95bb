"""The service front end: routing, recovery orchestration, TCP serving.

:class:`ShardedService` is the authoritative router.  It owns

* the :class:`HashRing` mapping stream ids to shards,
* the per-stream :class:`SharedSeriesBuffer` (the zero-copy handoff *and*
  the durable record recovery replays from),
* the per-stream **journal** of flush boundaries (which prefixes were
  flushed together — the information that makes replay bitwise-exact),
* the front-end selection LRU, the one ``select`` cache: every push
  response overwrites the stream's entry (drift re-selections included),
  and a stream with staged, unflushed points bypasses it for its shard,
* the audit log, which receives the events each shard's engine recorded
  in an audited flush, in shard order once the flush is acknowledged, and
* the :class:`ShardSupervisor` and one :class:`ShardClient` per shard.

Failure handling is centralised in :meth:`ShardedService._request`: any
transport error or request timeout triggers supervised recovery — SIGKILL
+ respawn via the supervisor, then a ``replay`` of every stream the ring
assigns to that shard — and the original request is retried once.  Because
the journal is committed only after a shard acknowledged a flush, the
retry is exactly-once: a shard that died before acknowledging is replayed
to its pre-tick state and the tick is re-applied.

:class:`ServiceFrontend` wraps the router in a stdlib-``asyncio`` TCP
server speaking the same length-prefixed JSON protocol, which is what the
``serve-sharded`` CLI command runs.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..detectors.base import AnomalyDetector
from ..obs.audit import NULL_AUDIT
from ..obs.metrics import DEFAULT_COUNT_BUCKETS, Counter, default_registry
from ..obs.trace import span
from ..selectors.base import Selector
from ..serving.cache import LRUCache
from ..streaming.engine import StreamEngine, StreamingConfig
from .ring import HashRing
from .supervisor import ShardSupervisor
from .transport import (
    HEADER_BYTES,
    FaultInjector,
    SharedSeriesBuffer,
    ShardClient,
    ShardTimeoutError,
    TransportError,
    decode_frame,
    encode_message,
    frame_length,
)

#: virtual nodes per shard on the consistent-hash ring
RING_REPLICAS = 128
#: front-end selection LRU entries
SELECTION_CACHE_CAPACITY = 4096
#: initial shared-memory capacity per stream, in points
INITIAL_STREAM_CAPACITY = 2048


def make_engine_factory(
    selector: Selector,
    detector_names: Sequence[str],
    config: Optional[StreamingConfig] = None,
    model_set: Optional[Dict[str, AnomalyDetector]] = None,
    teacher: Optional[Selector] = None,
    refresh_config: Optional[object] = None,
    cascade: Optional[object] = None,
) -> Callable[[], StreamEngine]:
    """A picklable-free engine builder for forked shards.

    The closure (selector weights included) reaches the shard through fork
    inheritance — engine construction happens inside the child, so shards
    never share mutable engine state with the parent or each other.

    When ``teacher`` is given, each shard also gets its own
    :class:`repro.distill.StudentRefresher` so drift triggers probe
    agreement between ``selector`` (the student) and the teacher and
    fine-tune locally.

    ``cascade`` (a :class:`repro.cascade.CascadeRouter`) reaches each shard
    the same way — through fork inheritance — so every shard routes with
    the identical threshold, seed and cost model.  Escalation decisions are
    per window row and content-local, which keeps routing (and therefore
    selections) bitwise identical across any shard count.  Shards audit
    their engines per flush (see :class:`ShardServer`).
    """
    def build() -> StreamEngine:
        refresher = None
        if teacher is not None:
            from ..distill import StudentRefresher  # deferred: optional tier

            refresher = StudentRefresher(teacher, selector, refresh_config)
        return StreamEngine(selector, detector_names, config, model_set=model_set,
                            refresher=refresher, cascade=cascade)
    return build


@dataclass(frozen=True)
class ServiceConfig:
    """Topology and routing knobs of the sharded service."""

    #: number of shard processes to start with
    n_shards: int = 2
    #: per-request timeout before a shard is declared hung and restarted
    request_timeout_s: float = 10.0


class ShardedService:
    """Route stream traffic across supervised shard processes."""

    def __init__(
        self,
        engine_factory: Callable[[], StreamEngine],
        config: Optional[ServiceConfig] = None,
        injector_factory: Optional[Callable[[str], Optional[FaultInjector]]] = None,
        audit: Optional[object] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        if self.config.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self._injector_factory = injector_factory or (lambda shard_id: None)
        self.supervisor = ShardSupervisor(engine_factory)
        self.ring = HashRing(replicas=RING_REPLICAS)
        self._clients: Dict[str, ShardClient] = {}
        self._buffers: Dict[str, SharedSeriesBuffer] = {}
        #: per-stream flushed-prefix lengths, in flush order (the journal)
        self._journal: Dict[str, List[int]] = {}
        self._staged: set = set()
        self._selection_cache = LRUCache(SELECTION_CACHE_CAPACITY, name="frontend_selection")
        self._next_shard_index = 0
        self._closed = False
        #: structured audit trail (``repro.obs.audit``); a no-op by default
        self.audit = audit if audit is not None else NULL_AUDIT
        #: counters surfaced in :meth:`stats`
        self.recoveries = 0
        self._retired_retransmits = 0
        registry = default_registry()
        self._registry = registry
        self._c_recoveries = registry.register(Counter(
            "repro_service_recoveries_total",
            "supervised shard recoveries (kill + respawn + replay)"))
        self._h_replay_depth = registry.histogram(
            "repro_service_replay_boundaries",
            "journalled flush boundaries replayed per recovered stream",
            buckets=DEFAULT_COUNT_BUCKETS)
        self._latency_hist: Dict[str, object] = {}
        for _ in range(self.config.n_shards):
            self.add_shard(rebalance=False)

    # ------------------------------------------------------------------ #
    # shard management
    # ------------------------------------------------------------------ #
    @property
    def shard_ids(self) -> List[str]:
        return self.ring.shard_ids

    def _connect(self, shard_id: str) -> ShardClient:
        handle = self.supervisor.handles[shard_id]
        client = ShardClient(handle.port,
                             timeout_s=self.config.request_timeout_s,
                             injector=self._injector_factory(shard_id))
        self._clients[shard_id] = client
        return client

    def add_shard(self, shard_id: Optional[str] = None, rebalance: bool = True) -> str:
        """Grow the topology by one shard; owned streams move to it.

        The hash ring guarantees only ~K/N streams move; each moved stream
        is replayed on the new shard from its shared buffer and dropped
        from its previous owner (deterministic rebalance).
        """
        if shard_id is None:
            shard_id = f"shard-{self._next_shard_index}"
        self._next_shard_index += 1
        previous_owner = {stream: self.ring.owner(stream) for stream in self._buffers} \
            if len(self.ring) else {}
        self.supervisor.spawn(shard_id)
        self._connect(shard_id)
        self.ring.add(shard_id)
        if rebalance and previous_owner:
            moved = [stream for stream in self._buffers
                     if self.ring.owner(stream) == shard_id]
            self._replay_streams(shard_id, moved)
            by_old_owner: Dict[str, List[str]] = {}
            for stream in moved:
                by_old_owner.setdefault(previous_owner[stream], []).append(stream)
            for old_owner, streams in sorted(by_old_owner.items()):
                self._request(old_owner, "drop_streams", streams=streams)
        return shard_id

    # ------------------------------------------------------------------ #
    # request path with supervised recovery
    # ------------------------------------------------------------------ #
    def _shard_latency(self, shard_id: str):
        histogram = self._latency_hist.get(shard_id)
        if histogram is None:
            histogram = self._registry.histogram(
                "repro_service_request_seconds",
                "front-end request latency per shard", shard=shard_id)
            self._latency_hist[shard_id] = histogram
        return histogram

    def _request(self, shard_id: str, op: str, **fields: object) -> Dict[str, object]:
        """One shard request; on failure, recover the shard and retry once."""
        for attempt in (1, 2):
            client = self._clients.get(shard_id) or self._connect(shard_id)
            try:
                with self._shard_latency(shard_id).time(), \
                        span("service.request", shard=shard_id, op=op):
                    return client.request(op, **fields)
            except (ShardTimeoutError, TransportError, ConnectionError, OSError):
                if attempt == 2:
                    raise
                self._recover(shard_id)
        raise AssertionError("unreachable")  # pragma: no cover

    def _retire_client(self, shard_id: str) -> None:
        """Close a shard's client, folding its retransmit count into stats."""
        client = self._clients.pop(shard_id, None)
        if client is not None:
            self._retired_retransmits += client.retransmits
            client.close()

    def _recover(self, shard_id: str) -> None:
        """Supervised recovery: kill + respawn + replay the shard's streams."""
        self.recoveries += 1
        self._c_recoveries.inc()
        self._retire_client(shard_id)
        self.supervisor.restart(shard_id)
        self._connect(shard_id)
        owned = [stream for stream in self._buffers
                 if self.ring.owner(stream) == shard_id]
        if self.audit.enabled:
            self.audit.record(
                "shard_restart", shard=shard_id,
                streams=len(owned),
                replay_depth=sum(len(self._journal.get(s) or ()) for s in owned))
        self._replay_streams(shard_id, owned)

    def _replay_streams(self, shard_id: str, streams: Sequence[str]) -> None:
        flushed = [s for s in sorted(streams) if self._journal.get(s)]
        if not flushed:
            return
        for stream in flushed:
            self._h_replay_depth.observe(len(self._journal[stream]))
        payload = [{
            "stream": stream,
            "shm": self._buffers[stream].name,
            "length": self._buffers[stream].length,
            "boundaries": self._journal[stream],
        } for stream in flushed]
        # Replay goes through the raw client on purpose: a shard that dies
        # *during* recovery surfaces as a failure of the original request's
        # retry instead of recursing here.
        client = self._clients.get(shard_id) or self._connect(shard_id)
        client.request("replay", streams=payload)

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def append(self, stream_id: str, values: np.ndarray) -> None:
        """Stage points on one stream (shared memory; flushed by :meth:`flush`)."""
        if self._closed:
            raise ValueError("service is closed")
        values = np.asarray(values, dtype=np.float64).ravel()
        buffer = self._buffers.get(stream_id)
        if buffer is None:
            buffer = SharedSeriesBuffer(
                stream_id, initial_capacity=max(INITIAL_STREAM_CAPACITY, len(values)))
            self._buffers[stream_id] = buffer
            self._journal[stream_id] = []
        buffer.append(values)
        self._staged.add(stream_id)

    def push(self, stream_id: str, values: np.ndarray) -> Dict[str, object]:
        """Append to one stream and flush immediately (single-stream ticks)."""
        self.append(stream_id, values)
        return self.flush()[stream_id]

    def flush(self) -> Dict[str, Dict[str, object]]:
        """Process every staged append: one ``push_batch`` per owning shard.

        The per-shard requests go out **concurrently** (threads; the GIL is
        released while waiting on sockets), so shard processes compute their
        batches in parallel — this is where the multi-shard throughput win
        comes from.  Results are merged, journalled and audited in
        deterministic shard order afterwards.
        """
        if not self._staged:
            return {}
        staged = sorted(self._staged)
        updates: Dict[str, Dict[str, object]] = {}
        by_shard = self.ring.assign(staged)
        shard_order = sorted(by_shard)

        def push_one(shard_id: str) -> Dict[str, object]:
            ticks = [{"stream": stream,
                      "shm": self._buffers[stream].name,
                      "length": self._buffers[stream].length}
                     for stream in by_shard[shard_id]]
            return self._request(shard_id, "push_batch", ticks=ticks,
                                 audit=self.audit.enabled)

        if len(shard_order) == 1:
            responses = {shard_order[0]: push_one(shard_order[0])}
        else:
            with ThreadPoolExecutor(max_workers=len(shard_order)) as pool:
                responses = dict(zip(shard_order, pool.map(push_one, shard_order)))
        for shard_id in shard_order:
            # Journal only after the shard acknowledged: recovery replays to
            # the pre-tick state and the retry re-applies the tick.
            for stream in by_shard[shard_id]:
                self._journal[stream].append(self._buffers[stream].length)
                self._staged.discard(stream)
            updates.update(responses[shard_id]["updates"])
            for event in responses[shard_id]["events"]:
                del event["seq"]  # the front-end log numbers its own events
                self.audit.record(**event)

        for stream, update in updates.items():
            self._selection_cache.put(stream, {
                "stream": stream,
                "selected_index": update["selected_index"],
                "selected_model": update["selected_model"],
                "votes": update["votes"],
                "n_windows": update["windows"],
                "provisional": update["provisional"],
            })
        return updates

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def select(self, stream_id: str) -> Optional[Dict[str, object]]:
        """The stream's current selection (front-end LRU, then its shard)."""
        staged = stream_id in self._staged
        if not staged:
            hit = self._selection_cache.get(stream_id)
            if hit is not None:
                return {**hit, "cached": True}
        response = self._request(self.ring.owner(stream_id), "select",
                                 stream=stream_id)
        selection = response.get("selection")
        if selection is not None and not staged:
            self._selection_cache.put(stream_id, dict(selection))
        return selection

    def scores(self, stream_id: str) -> np.ndarray:
        """Per-point anomaly scores of one stream's scored prefix."""
        response = self._request(self.ring.owner(stream_id), "scores",
                                 stream=stream_id)
        return np.asarray(response["scores"], dtype=np.float64)

    def series(self, stream_id: str) -> np.ndarray:
        """Every point received on one stream (front-end shared memory)."""
        return self._buffers[stream_id].series

    def explain(self, stream_id: str) -> Optional[Dict[str, object]]:
        """Vote breakdown + drift trajectory from the stream's owning shard."""
        response = self._request(self.ring.owner(stream_id), "explain",
                                 stream=stream_id)
        return response.get("explain")

    def metrics_text(self) -> str:
        """Prometheus text: the router's registry plus every shard's.

        Sections are separated by ``# shard: <id>`` comment headers; the
        router section comes first.  Shard registries live in forked
        processes, so their samples are fetched over the request protocol.
        """
        sections = ["# service: frontend\n" + self._registry.render_prometheus()]
        for shard_id in self.shard_ids:
            response = self._request(shard_id, "metrics")
            sections.append(f"# shard: {shard_id}\n" + str(response.get("metrics", "")))
        return "\n".join(sections)

    @property
    def stream_ids(self) -> List[str]:
        return sorted(self._buffers)

    def stats(self) -> Dict[str, object]:
        """Aggregate counters across shards plus service-level counters."""
        per_shard: Dict[str, Dict[str, object]] = {}
        for shard_id in self.shard_ids:
            per_shard[shard_id] = self._request(shard_id, "stats")
        totals: Dict[str, int] = {}
        for response in per_shard.values():
            for key, value in response["stats"].items():
                totals[key] = totals.get(key, 0) + int(value)
        cache_stats = self._selection_cache.stats
        return {
            "shards": len(self.shard_ids),
            "streams": len(self._buffers),
            "totals": totals,
            "per_shard": {sid: resp["stats"] for sid, resp in per_shard.items()},
            "ring": self.ring.to_state(),
            "restarts": self.supervisor.restarts,
            "recoveries": self.recoveries,
            "transport_retransmits": self._retired_retransmits + sum(
                client.retransmits for client in self._clients.values()),
            "selection_cache": {
                "hits": cache_stats.hits,
                "misses": cache_stats.misses,
                "size": cache_stats.size,
            },
        }

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop every shard and unlink every shared-memory segment."""
        if self._closed:
            return
        self._closed = True
        for shard_id, client in list(self._clients.items()):
            try:
                client.request("shutdown")
            except (RuntimeError, OSError, ConnectionError, TimeoutError):
                pass  # a dead shard cannot acknowledge its shutdown
            self._retired_retransmits += client.retransmits
            client.close()
        self._clients.clear()
        self.supervisor.stop_all()
        for buffer in self._buffers.values():
            buffer.close()
        self._buffers.clear()

    def __enter__(self) -> "ShardedService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ShardedService(shards={len(self.shard_ids)}, "
                f"streams={len(self._buffers)}, "
                f"restarts={self.supervisor.restarts})")


# --------------------------------------------------------------------------- #
# the asyncio TCP front end (what `serve-sharded` runs)
# --------------------------------------------------------------------------- #
class ServiceFrontend:
    """Serve :class:`ShardedService` over TCP (length-prefixed JSON).

    Client ops mirror the Python API: ``push`` (stream + values), ``append``
    + ``flush``, ``select``, ``scores``, ``stats``, ``explain``,
    ``metrics``, ``ping``.  Values arrive
    as JSON arrays from remote clients; the zero-copy handoff applies on the
    front-end → shard hop.  Service calls are serialised by a lock and run
    in a worker thread so one slow shard request does not stall the accept
    loop.  Bad frames get an error reply; an oversized header also a close.
    """

    def __init__(self, service: ShardedService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._lock = threading.Lock()

    async def start(self) -> int:
        """Bind and start accepting; returns the actual port."""
        self._server = await asyncio.start_server(self._handle_client,
                                                  self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    header = await reader.readexactly(HEADER_BYTES)
                    body = await reader.readexactly(frame_length(header))
                except TransportError as error:  # oversized: reply, then close
                    writer.write(encode_message({"error": f"TransportError: {error}"}))
                    break
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                request: Dict[str, object] = {}
                try:
                    request = decode_frame(body)
                    response = await asyncio.get_running_loop().run_in_executor(
                        None, self._execute, request)
                except Exception as error:
                    response = {"error": f"{type(error).__name__}: {error}"}
                if "seq" in request:
                    response["seq"] = request["seq"]
                writer.write(encode_message(response))
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer already gone
                pass

    def _execute(self, request: Dict[str, object]) -> Dict[str, object]:
        op = request.get("op")
        with self._lock:
            if op == "ping":
                return {"ok": True, "shards": len(self.service.shard_ids)}
            if op == "push":
                update = self.service.push(str(request["stream"]),
                                           np.asarray(request["values"], dtype=np.float64))
                return {"update": update}
            if op == "append":
                self.service.append(str(request["stream"]),
                                    np.asarray(request["values"], dtype=np.float64))
                return {"ok": True}
            if op == "flush":
                return {"updates": self.service.flush()}
            if op == "select":
                return {"selection": self.service.select(str(request["stream"]))}
            if op == "scores":
                return {"scores": [float(s)
                                   for s in self.service.scores(str(request["stream"]))]}
            if op == "stats":
                return {"stats": self.service.stats()}
            if op == "explain":
                return {"explain": self.service.explain(str(request["stream"]))}
            if op == "metrics":
                return {"metrics": self.service.metrics_text()}
            raise ValueError(f"unknown op {op!r}")
