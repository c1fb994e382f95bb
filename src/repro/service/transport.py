"""Wire protocol and shared-memory handoff of the sharded service.

Control messages are **length-prefixed JSON**: a 4-byte big-endian length
followed by a UTF-8 JSON object.  That covers requests, responses and
service metadata — everything *except* the series points themselves.

Points never travel through the socket.  The front end appends them into a
per-stream :class:`SharedSeriesBuffer` (``multiprocessing.shared_memory``)
and the control message carries only ``(segment name, length)``; the shard
attaches the segment and hands the engine a zero-copy NumPy view
(:meth:`repro.streaming.StreamEngine.append_view`).  This removes the
pickling/serialisation ceiling of the earlier process-pool fan-out: handoff
cost is independent of how many points a tick carries.

The front end talks to each shard through one :class:`ShardClient`: one
request frame, one reply frame, on a TCP connection that delivers each
frame once and in order.  A shard that does not answer within the
timeout, or hangs up, goes to the front end's supervised recovery.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

_HEADER = struct.Struct(">I")

#: bytes of the big-endian length header in front of every frame body
HEADER_BYTES = _HEADER.size

#: refuse absurd frames instead of trying to allocate them (corrupt header)
MAX_MESSAGE_BYTES = 256 * 1024 * 1024


class TransportError(ConnectionError):
    """The peer vanished or sent garbage mid-conversation."""


class ShardTimeoutError(TimeoutError):
    """A shard did not answer within the request timeout (hung or dead)."""


# --------------------------------------------------------------------------- #
# length-prefixed JSON framing
# --------------------------------------------------------------------------- #
def encode_message(payload: Dict[str, object]) -> bytes:
    """One wire frame: 4-byte big-endian length + UTF-8 JSON."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(body)) + body


def frame_length(header: bytes) -> int:
    """The body length a header declares; refuses more than the limit."""
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise TransportError(f"frame of {length} bytes exceeds the protocol limit")
    return length


def decode_frame(body: bytes) -> Dict[str, object]:
    """One frame body as a UTF-8 JSON object (every reader decodes here)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TransportError(f"undecodable frame: {error}") from None
    if not isinstance(payload, dict):
        raise TransportError("protocol messages must be JSON objects")
    return payload


# --------------------------------------------------------------------------- #
# shared-memory series buffers (the zero-copy handoff)
# --------------------------------------------------------------------------- #
def attach_shared_array(name: str, length: int) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Attach a shared segment and view its first ``length`` float64 values.

    A name no segment has (say, one the owner unlinked when its buffer
    grew) raises :class:`FileNotFoundError`; a ``length`` beyond the
    segment closes it again and raises :class:`ValueError`.  The returned
    :class:`SharedMemory` must be kept alive as long as the view is used.
    Tracker registration is suppressed during the attach: forked shards
    share the parent's resource-tracker process, so a reader must neither
    register a segment it merely maps (the tracker would unlink it on
    reader exit) nor unregister it afterwards (that would erase the
    *owner's* registration in the shared tracker).  Python 3.13's
    ``track=False`` does the same; this works on 3.11.
    """
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register
    try:
        return shm, _float64_view(shm, length)
    except ValueError:
        shm.close()
        raise


def _float64_view(shm: shared_memory.SharedMemory, length: int) -> np.ndarray:
    """Read-only view of a segment's first ``length`` float64 values.

    Raises :class:`ValueError` naming the segment, the length and the
    capacity when ``length`` does not fit the segment.
    """
    capacity = shm.size // 8
    if not 0 <= length <= capacity:
        raise ValueError(f"shared segment {shm.name!r} holds {capacity} float64 values; "
                         f"length {length} does not fit")
    view = np.ndarray((length,), dtype=np.float64, buffer=shm.buf)
    view.flags.writeable = False
    return view


class SharedSeriesBuffer:
    """A growing float64 series stored in shared memory (front-end owned).

    Appends are amortised O(1): when the segment fills up, a segment of
    twice the size is created, the prefix copied once, and the old segment
    unlinked (readers that still map it keep a valid view until they
    re-attach — POSIX keeps unlinked segments alive while mapped).  Readers
    locate the current segment by :attr:`name` and the valid prefix by
    :attr:`length`; both travel in control messages.
    """

    def __init__(self, stream_id: str, initial_capacity: int = 2048) -> None:
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        self.stream_id = stream_id
        self._capacity = int(initial_capacity)
        self._length = 0
        self._shm = shared_memory.SharedMemory(create=True, size=self._capacity * 8)
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Name of the current shared segment (changes when the buffer grows)."""
        return self._shm.name

    @property
    def length(self) -> int:
        return self._length

    def __len__(self) -> int:
        return self._length

    @property
    def series(self) -> np.ndarray:
        """Read-only view of the points stored so far (no copy)."""
        return _float64_view(self._shm, self._length)

    # ------------------------------------------------------------------ #
    def append(self, values: np.ndarray) -> Tuple[int, int]:
        """Append points; returns the ``(start, end)`` slice they occupy."""
        if self._closed:
            raise ValueError("buffer is closed")
        values = np.asarray(values, dtype=np.float64).ravel()
        start = self._length
        needed = start + len(values)
        if needed > self._capacity:
            capacity = self._capacity
            while capacity < needed:
                capacity *= 2
            grown = shared_memory.SharedMemory(create=True, size=capacity * 8)
            np.ndarray((start,), dtype=np.float64, buffer=grown.buf)[:] = \
                np.ndarray((start,), dtype=np.float64, buffer=self._shm.buf)
            self._shm.close()
            self._shm.unlink()
            self._shm = grown
            self._capacity = capacity
        np.ndarray((needed,), dtype=np.float64, buffer=self._shm.buf)[start:] = values
        self._length = needed
        return start, needed

    def close(self) -> None:
        """Release and unlink the segment (the owner's teardown)."""
        if not self._closed:
            self._closed = True
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


class SharedSegmentCache:
    """Shard-side registry of attached segments, one per stream.

    Re-attaches when a stream's segment name changes (the front end grew
    the buffer); :meth:`close` detaches every segment when the shard stops.
    """

    def __init__(self) -> None:
        self._attached: Dict[str, Tuple[str, shared_memory.SharedMemory]] = {}

    def view(self, stream_id: str, name: str, length: int) -> np.ndarray:
        """Zero-copy float64 view of one stream's first ``length`` points."""
        cached = self._attached.get(stream_id)
        if cached is not None and cached[0] == name:
            return _float64_view(cached[1], length)
        shm, view = attach_shared_array(name, length)
        if cached is not None:
            cached[1].close()
        self._attached[stream_id] = (name, shm)
        return view

    def drop(self, stream_id: str) -> None:
        cached = self._attached.pop(stream_id, None)
        if cached is not None:
            cached[1].close()

    def close(self) -> None:
        for stream_id in list(self._attached):
            self.drop(stream_id)


class FrameReader:
    """Buffered frame reader of one socket connection.

    The shard reads without a timeout; :class:`ShardClient` reads against a
    deadline.  A timeout may strike after part of a frame arrived; the
    partial bytes stay in the buffer so the next read resumes cleanly — the
    framing never desynchronises.
    Keep one reader per connection: the buffer also holds the bytes that
    arrived past a frame boundary, which a fresh reader would lose.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = bytearray()

    def read_frame(self, timeout_s: Optional[float] = None) -> Optional[Dict[str, object]]:
        """One message within ``timeout_s`` (blocking when None); None on clean EOF.

        A peer that hangs up mid-frame, an oversized header or an
        undecodable body raise :class:`TransportError`; a missed deadline
        raises :class:`TimeoutError`.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        while True:
            frame = self._extract()
            if frame is not None:
                return frame
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("no complete frame within the timeout")
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(1 << 16)
            except (socket.timeout, TimeoutError):
                raise TimeoutError("no complete frame within the timeout") from None
            if not chunk:
                if self._buf:
                    raise TransportError("connection closed mid-frame")
                return None
            self._buf += chunk

    def _extract(self) -> Optional[Dict[str, object]]:
        if len(self._buf) < HEADER_BYTES:
            return None
        end = HEADER_BYTES + frame_length(bytes(self._buf[:HEADER_BYTES]))
        if len(self._buf) < end:
            return None
        body = bytes(self._buf[HEADER_BYTES:end])
        del self._buf[:end]
        return decode_frame(body)


# --------------------------------------------------------------------------- #
# the front end's per-shard request channel
# --------------------------------------------------------------------------- #
class ShardClient:
    """One persistent request/response connection to one shard.

    Each request is one frame out and one reply frame back: the shard
    answers every request once, in order, so nothing needs numbering.
    """

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timeout_s: float = 10.0) -> None:
        self.timeout_s = timeout_s
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = FrameReader(self._sock)

    # ------------------------------------------------------------------ #
    def request(self, op: str, **fields: object) -> Dict[str, object]:
        """Send one request and read its reply within ``timeout_s``.

        Silence raises :class:`ShardTimeoutError` and closes the connection,
        so a late reply can never answer a later request; a hang-up raises
        :class:`TransportError`, and an ``{"error": ...}`` reply a
        :class:`RuntimeError` naming the op.
        """
        self._sock.sendall(encode_message({"op": op, **fields}))
        try:
            response = self._reader.read_frame(self.timeout_s)
        except TimeoutError:
            self.close()  # a late reply would otherwise answer the next request
            raise ShardTimeoutError(
                f"shard did not answer {op!r} within {self.timeout_s:.1f}s") from None
        if response is None:
            raise TransportError("shard closed the connection")
        if response.get("error"):
            raise RuntimeError(f"shard error on {op!r}: {response['error']}")
        return response

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
