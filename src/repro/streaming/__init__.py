"""``repro.streaming`` — online selection + detection for live series.

Turns the one-shot pipeline into an incremental engine for many concurrent
live streams: points arrive tick by tick, only the *new* windows take a
selector forward pass (one per flush, across every stream), the running
vote and per-point anomaly scores extend incrementally, and a drift monitor
re-selects the detector (with hysteresis) when the stream changes
character.

* :mod:`repro.streaming.buffer`   — per-stream storage + incremental windowing,
* :mod:`repro.streaming.selector` — the running selection from stored window probabilities,
* :mod:`repro.streaming.drift`    — distribution-shift statistic + hysteresis,
* :mod:`repro.streaming.scorer`   — incremental per-point anomaly scoring,
* :mod:`repro.streaming.engine`   — :class:`StreamEngine`, the multi-stream front end
  and the owner of each stream's running vote,
* :mod:`repro.streaming.replay`   — replaying recorded series / stdin as ticks.

Invariant: as long as no drift re-selection has narrowed a stream's vote,
its selection (and its scores, for the exact tail-re-scoring path) is
bitwise identical to running the batch pipeline on the same final series —
asserted by ``tests/test_streaming.py`` and
``benchmarks/bench_streaming_throughput.py``.

See ``docs/architecture.md`` for where this sits in the dataflow.
"""

from .buffer import GrowingArray, StreamBuffer
from .drift import DriftConfig, DriftDecision, DriftMonitor, total_variation
from .engine import StreamEngine, StreamEngineStats, StreamingConfig, StreamUpdate
from .replay import DEFAULT_STREAM, iter_chunks, parse_tick_line, replay_records
from .scorer import OnlineScorer
from .selector import SelectionView

__all__ = [
    "GrowingArray", "StreamBuffer",
    "DriftConfig", "DriftDecision", "DriftMonitor", "total_variation",
    "StreamEngine", "StreamEngineStats", "StreamingConfig", "StreamUpdate",
    "DEFAULT_STREAM", "iter_chunks", "parse_tick_line", "replay_records",
    "OnlineScorer",
    "SelectionView",
]
