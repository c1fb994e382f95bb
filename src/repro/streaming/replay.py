"""Replaying recorded series (or stdin lines) as live stream ticks.

The stream engine consumes appends; these helpers produce them.  Recorded
benchmark files are replayed round-robin in fixed-size chunks — the closest
offline stand-in for many concurrent live sources — and a line protocol
turns stdin into ticks for the ``stream`` CLI command:

* a bare number per line appends one point to the default stream,
* a JSON object ``{"stream": "name", "values": [1.0, 2.0]}`` (or a scalar
  ``"value"``) appends to a named stream, so one pipe can carry many
  interleaved streams.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..data.records import TimeSeriesRecord
from .engine import StreamEngine, StreamUpdate

#: Stream id used for bare-number stdin lines.
DEFAULT_STREAM = "stdin"


def iter_chunks(series: np.ndarray, chunk: int) -> Iterator[np.ndarray]:
    """Cut one series into consecutive tick payloads of ``chunk`` points."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    series = np.asarray(series, dtype=np.float64).ravel()
    for start in range(0, len(series), chunk):
        yield series[start:start + chunk]


def replay_records(
    engine: StreamEngine,
    records: Sequence[TimeSeriesRecord],
    chunk: int = 32,
) -> Iterator[Dict[str, StreamUpdate]]:
    """Replay records round-robin: each round appends one chunk per stream.

    Every record becomes one named stream (``record.name``).  Rounds append
    a chunk to every stream that still has points and then flush once, so
    each yielded dict is exactly one multiplexed engine tick — the shape of
    traffic the engine's cross-stream batching exists for.  Streams drop
    out as they are exhausted; iteration ends when all are.  Only
    ``append`` and ``flush`` are called, so a
    :class:`repro.service.ShardedService` replays the same way.
    """
    feeds: List[Tuple[str, Iterator[np.ndarray]]] = [
        (record.name, iter_chunks(record.series, chunk)) for record in records
    ]
    while feeds:
        alive: List[Tuple[str, Iterator[np.ndarray]]] = []
        for name, feed in feeds:
            values = next(feed, None)
            if values is None:
                continue
            engine.append(name, values)
            alive.append((name, feed))
        feeds = alive
        if feeds:
            yield engine.flush()


def parse_tick_line(line: str) -> Tuple[str, np.ndarray]:
    """Parse one stdin line of the ``stream`` CLI protocol.

    Returns ``(stream_id, values)``; raises ``ValueError`` on malformed
    input (the CLI reports it and keeps serving other streams).
    """
    line = line.strip()
    if not line:
        raise ValueError("empty line")
    if line.startswith("{"):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"bad JSON tick: {error}") from None
        if not isinstance(payload, dict):
            raise ValueError("JSON tick must be an object")
        stream = str(payload.get("stream", DEFAULT_STREAM))
        if "values" in payload:
            values = np.asarray(payload["values"], dtype=np.float64).ravel()
        elif "value" in payload:
            values = np.asarray([payload["value"]], dtype=np.float64)
        else:
            raise ValueError("JSON tick needs a 'value' or 'values' field")
        return stream, values
    try:
        return DEFAULT_STREAM, np.asarray([float(line)], dtype=np.float64)
    except ValueError:
        raise ValueError(f"not a number or JSON tick: {line!r}") from None
