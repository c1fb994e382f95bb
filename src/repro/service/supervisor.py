"""Shard process lifecycle: spawn, health, kill, supervised restart.

The supervisor owns the operating-system side of the shard topology.  Each
shard is a **forked** child (the engine factory and its trained selector
are inherited copy-on-write — nothing is pickled to start a shard)
listening on a localhost TCP port the supervisor bound before forking, so
the port is known to the parent without any rendezvous protocol.

Recovery is deliberately blunt and deterministic: a shard that died (or
hangs past the request timeout) is SIGKILLed, a fresh process is forked on
a fresh port, and the *front end* replays the shard's streams from their
shared-memory buffers — the supervisor only manages processes, it holds no
stream state.  That split keeps every recovery path replayable in tests.
"""

from __future__ import annotations

import multiprocessing
import socket
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..streaming.engine import StreamEngine
from .shard import shard_main


@dataclass
class ShardHandle:
    """One live shard process and how to reach it."""

    shard_id: str
    process: "multiprocessing.process.BaseProcess"
    port: int
    #: times this shard id has been (re)spawned, 1 for the original
    generation: int = 1

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def is_alive(self) -> bool:
        return self.process.is_alive()


class ShardSupervisor:
    """Spawn and restart shard processes around an engine factory."""

    def __init__(self, engine_factory: Callable[[], StreamEngine],
                 host: str = "127.0.0.1") -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError("the sharded service requires fork-capable "
                               "multiprocessing (Linux/macOS)")
        self.engine_factory = engine_factory
        self.host = host
        self._ctx = multiprocessing.get_context("fork")
        self.handles: Dict[str, ShardHandle] = {}
        #: total restarts across every shard (the recovery counter)
        self.restarts = 0

    # ------------------------------------------------------------------ #
    def spawn(self, shard_id: str) -> ShardHandle:
        """Fork one shard process; returns its handle (port already bound)."""
        if shard_id in self.handles:
            raise ValueError(f"shard {shard_id!r} is already running")
        handle = self._spawn(shard_id, generation=1)
        self.handles[shard_id] = handle
        return handle

    def _spawn(self, shard_id: str, generation: int) -> ShardHandle:
        listen_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listen_sock.bind((self.host, 0))
        listen_sock.listen(16)
        port = listen_sock.getsockname()[1]
        process = self._ctx.Process(
            target=shard_main,
            args=(shard_id, listen_sock, self.engine_factory),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        listen_sock.close()  # the child inherited it through fork
        return ShardHandle(shard_id=shard_id, process=process, port=port,
                           generation=generation)

    # ------------------------------------------------------------------ #
    def restart(self, shard_id: str) -> ShardHandle:
        """SIGKILL (if alive) and respawn one shard on a fresh port.

        Recovery's only path: a hung shard may never act on a SIGTERM (a
        stopped process leaves it pending), so it gets no grace period.
        """
        old = self.handles.get(shard_id)
        if old is None:
            raise KeyError(f"unknown shard {shard_id!r}")
        self._kill(old)
        handle = self._spawn(shard_id, generation=old.generation + 1)
        self.handles[shard_id] = handle
        self.restarts += 1
        return handle

    def kill(self, shard_id: str) -> int:
        """SIGKILL one shard (the chaos harness's crash primitive).

        Returns the killed pid.  The process is *not* respawned — detection
        and recovery are exercised through the normal request path.
        """
        handle = self.handles[shard_id]
        self._kill(handle)
        return handle.pid or -1

    @staticmethod
    def _kill(handle: ShardHandle) -> None:
        if handle.is_alive():
            handle.process.kill()
        handle.process.join(timeout=5.0)

    def _terminate(self, handle: ShardHandle) -> None:
        if handle.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=2.0)
            if handle.is_alive():  # pragma: no cover - terminate is usually enough
                handle.process.kill()
                handle.process.join(timeout=2.0)
        else:
            handle.process.join(timeout=1.0)

    # ------------------------------------------------------------------ #
    def stop_all(self) -> None:
        """Terminate every shard and empty the topology."""
        for shard_id in list(self.handles):
            self._terminate(self.handles.pop(shard_id))

    def __repr__(self) -> str:
        alive = sum(h.is_alive() for h in self.handles.values())
        return (f"ShardSupervisor(shards={len(self.handles)}, alive={alive}, "
                f"restarts={self.restarts})")
