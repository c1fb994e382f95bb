"""The shard process: one :class:`StreamEngine` behind a request socket.

Each shard owns the streams whose id hashes to its index
(:func:`repro.service.frontend.shard_index`) and runs the full incremental
machinery for them — windowing, running votes, drift monitoring, online
scoring — exactly as the single-process engine would.
Series points arrive as shared-memory references (never through the
socket): a ``push_batch`` request names ``(segment, length)`` per stream
and the handler hands the engine zero-copy views via
:meth:`StreamEngine.append_view`, then flushes once for the whole batch —
the same cross-stream batching the engine performs in process.  An
audited request also returns the events the engine recorded in that flush.

Each request gets exactly one reply, in order, on its connection; an
``{"error": ...}`` reply reports a request the handler refused, and the
shard serves on.  A ``replay`` request rebuilds per-stream state from the
shared-memory buffers with the original per-stream flush boundaries, which
makes post-restart selections and scores bitwise-equal to an uninterrupted
run (replays are never audited).

Shards are forked from the supervisor, so the engine factory and the
trained selector it closes over are inherited copy-on-write — nothing is
pickled to start a shard.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import asdict
from typing import Callable, Dict, List

from ..obs.audit import NULL_AUDIT, AuditLog
from ..obs.metrics import default_registry
from ..streaming.engine import StreamEngine
from .transport import FrameReader, SharedSegmentCache, TransportError, encode_message


class ShardServer:
    """Serve one engine over blocking length-prefixed JSON requests."""

    def __init__(self, shard_id: str, listen_sock: socket.socket,
                 engine_factory: Callable[[], StreamEngine]) -> None:
        self.shard_id = shard_id
        self._listen_sock = listen_sock
        self.engine = engine_factory()
        self._segments = SharedSegmentCache()
        self._engine_lock = threading.Lock()
        self._running = True

    # ------------------------------------------------------------------ #
    # request loop
    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Accept connections until a ``shutdown`` request arrives."""
        self._listen_sock.settimeout(0.2)
        threads: List[threading.Thread] = []
        try:
            while self._running:
                try:
                    conn, _ = self._listen_sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(target=self._serve_connection,
                                          args=(conn,), daemon=True)
                thread.start()
                threads.append(thread)
        finally:
            self._listen_sock.close()
            for thread in threads:
                thread.join(timeout=1.0)
            self._segments.close()

    def _serve_connection(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        reader = FrameReader(conn)
        try:
            while self._running:
                try:
                    request = reader.read_frame()
                except TransportError:
                    break
                if request is None:
                    break
                try:
                    response = self._dispatch(request)
                except Exception as error:  # surfaced to the front end
                    response = {"error": f"{type(error).__name__}: {error}"}
                try:
                    conn.sendall(encode_message(response))
                except OSError:
                    break
        finally:
            conn.close()

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #
    def _dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            raise ValueError(f"unknown op {op!r}")
        with self._engine_lock:
            return handler(request)

    def _append_tick(self, tick: Dict[str, object]) -> None:
        stream = str(tick["stream"])
        view = self._segments.view(stream, str(tick["shm"]), int(tick["length"]))
        self.engine.append_view(stream, view)

    def _op_push_batch(self, request: Dict[str, object]) -> Dict[str, object]:
        for tick in request["ticks"]:
            self._append_tick(tick)
        # an audited flush records into a log of its own, shipped back whole
        self.engine.audit = AuditLog(keep=None) if request.get("audit") else NULL_AUDIT
        try:
            updates = self.engine.flush()
        finally:
            events, self.engine.audit = self.engine.audit.events(), NULL_AUDIT
        return {"updates": {stream: update.as_dict() for stream, update in updates.items()},
                "events": events}

    def _op_replay(self, request: Dict[str, object]) -> Dict[str, object]:
        """Rebuild streams from their shared buffers (after a restart).

        Boundaries are the original per-stream flush lengths, so votes,
        drift state and scores come out bitwise-equal to the uninterrupted
        engine (per-stream results are flush-grouping exact; see
        ``tests/test_streaming.py::test_tick_boundaries_do_not_change_results``).
        """
        replayed = 0
        for entry in request["streams"]:
            stream = str(entry["stream"])
            self.engine.drop_stream(stream)
            full = self._segments.view(stream, str(entry["shm"]), int(entry["length"]))
            for boundary in entry["boundaries"]:
                self.engine.append_view(stream, full[: int(boundary)])
                self.engine.flush()
            replayed += 1
        return {"ok": True, "replayed": replayed}

    def _op_select(self, request: Dict[str, object]) -> Dict[str, object]:
        stream = str(request["stream"])
        if stream not in self.engine:
            return {"selection": None}
        view = self.engine.selection(stream)
        if view is None:
            return {"selection": None}
        names = self.engine.detector_names
        return {"selection": {
            "stream": stream,
            "selected_index": view.selected_index,
            "selected_model": names[view.selected_index],
            "votes": {name: float(view.aggregated[k]) for k, name in enumerate(names)},
            "n_windows": view.n_windows,
            "provisional": view.provisional,
        }}

    def _op_scores(self, request: Dict[str, object]) -> Dict[str, object]:
        stream = str(request["stream"])
        if stream not in self.engine:
            return {"scores": []}
        return {"scores": [float(s) for s in self.engine.scores(stream)]}

    def _op_stats(self, request: Dict[str, object]) -> Dict[str, object]:
        return {"stats": asdict(self.engine.stats),
                "streams": sorted(self.engine.stream_ids)}

    def _op_explain(self, request: Dict[str, object]) -> Dict[str, object]:
        """Vote breakdown + drift trajectory for one owned stream."""
        from ..obs.explain import explain_stream  # deferred: UI-side helper

        stream = str(request["stream"])
        if stream not in self.engine:
            return {"explain": None}
        return {"explain": explain_stream(self.engine, stream)}

    def _op_metrics(self, request: Dict[str, object]) -> Dict[str, object]:
        """This shard process's metrics in Prometheus text format."""
        return {"metrics": default_registry().render_prometheus(),
                "shard": self.shard_id}

    def _op_shutdown(self, request: Dict[str, object]) -> Dict[str, object]:
        self._running = False
        return {"ok": True}


def shard_main(shard_id: str, listen_sock: socket.socket,
               engine_factory: Callable[[], StreamEngine]) -> None:
    """Entry point of a forked shard process."""
    try:
        ShardServer(shard_id, listen_sock, engine_factory).serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - CLI ^C propagates to children
        pass
