"""Append-only audit log of selection decisions, with bit-exact replay.

Every consequential runtime decision — a selection, a drift-triggered
re-selection, a cache eviction storm, a shard restart — can be recorded as
one JSON line in an append-only log.  Selection events carry **content
hashes of their inputs** (the same blake2b fingerprint the serving cache
keys on, plus the windowing configuration), so any audited selection not
routed through a cascade can be replayed bit-for-bit later:
:func:`replay_selection` re-extracts the windows from the hashed series
prefix, re-runs the selector and re-aggregates the same vote rows.

The log itself is dumb on purpose: monotonically sequenced dicts, written
eagerly (one ``write`` + ``flush`` per event) and mirrored in a bounded
in-memory ring for :meth:`AuditLog.events` queries.  Timestamps are only
attached when an explicit ``clock`` is supplied — by default events are
clock-free, so two runs of the same ticks produce byte-identical logs.

:data:`NULL_AUDIT` is the default everywhere: ``enabled`` is ``False`` and
:meth:`NullAuditLog.record` does nothing, so instrumented code guards
event assembly behind ``if audit.enabled`` and pays one attribute read
when auditing is off.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np


class AuditLog:
    """Append-only, sequence-numbered JSONL event log (``keep=None``
    mirrors every event in memory, not just the last ``keep``)."""

    enabled = True

    def __init__(self, path: Optional[object] = None, keep: Optional[int] = 4096,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.path = path
        self.clock = clock
        self._events: "deque[Dict[str, object]]" = deque(maxlen=keep)
        self._seq = 0
        self._lock = threading.Lock()
        if path is not None:
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            self._file = open(path, "a", encoding="utf-8")
        else:
            self._file = None

    # ------------------------------------------------------------------ #
    def record(self, event: str, **fields: object) -> Dict[str, object]:
        """Append one event; returns the stored dict (seq included)."""
        with self._lock:
            self._seq += 1
            entry: Dict[str, object] = {"seq": self._seq, "event": event}
            if self.clock is not None:
                entry["ts"] = self.clock()
            entry.update(fields)
            self._events.append(entry)
            if self._file is not None:
                self._file.write(json.dumps(entry) + "\n")
                self._file.flush()
        return entry

    def events(self, event: Optional[str] = None,
               stream: Optional[str] = None) -> List[Dict[str, object]]:
        """Recorded events (bounded by ``keep``), optionally filtered."""
        with self._lock:
            entries = list(self._events)
        if event is not None:
            entries = [e for e in entries if e.get("event") == event]
        if stream is not None:
            entries = [e for e in entries if e.get("stream") == stream]
        return entries

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    @staticmethod
    def read(path) -> List[Dict[str, object]]:
        """Load every event of a JSONL audit file (skips blank lines)."""
        events = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
        return events

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __repr__(self) -> str:
        return f"AuditLog(seq={self._seq}, path={self.path!r})"


class NullAuditLog:
    """The default audit log: records nothing, costs one attribute read."""

    enabled = False

    def record(self, event: str, **fields: object) -> None:
        return None

    def events(self, event: Optional[str] = None,
               stream: Optional[str] = None) -> List[Dict[str, object]]:
        return []

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullAuditLog()"


NULL_AUDIT = NullAuditLog()


# --------------------------------------------------------------------------- #
# replay: recompute an audited selection decision bit-for-bit
# --------------------------------------------------------------------------- #
#: version of a selection event's ``inputs`` block.  Format 2 votes come
#: from the row-invariant selector forward and hash the series with the
#: bytes-first :func:`repro.serving.cache.series_fingerprint` layout.
#: Earlier events (stamped ``predict_batch_size`` instead) were recorded
#: with a padded forward and another hash layout; replay refuses them.
SELECTION_INPUTS_FORMAT = 2


def selection_inputs(series: np.ndarray, window: int, stride: int,
                     aggregation: str, vote_start: int,
                     fingerprint) -> Dict[str, object]:
    """The replayable ``inputs`` block of a selection audit event.

    ``series`` is the float64 stream prefix and ``fingerprint`` the
    stream's :class:`repro.serving.cache.RunningFingerprint`, which hashes
    only the points appended since its last digest.
    """
    return {
        "format": SELECTION_INPUTS_FORMAT,
        "series_hash": fingerprint.digest(series, (window, stride, aggregation)),
        "length": len(series),
        "window": int(window),
        "stride": int(stride),
        "aggregation": str(aggregation),
        "vote_start": int(vote_start),
    }


def replay_selection(event: Dict[str, object], series: np.ndarray,
                     selector) -> Dict[str, object]:
    """Recompute a recorded selection from its content-hashed inputs.

    ``series`` must contain (a prefix reaching) the audited stream bytes;
    the recorded hash is verified before anything is computed.  The
    recomputation follows the engine's own path — complete windows only,
    the selector's own chunked predict, the batch pipeline's aggregation
    over the recorded vote range — so on the NN selector path the returned
    votes are bitwise-equal to the audited ones.

    Raises ``ValueError`` on hash mismatch, on a provisional (pre-window)
    event, which has no complete-window vote to replay, on a cascade-routed
    one, whose vote one selector cannot reproduce, and on an ``inputs``
    block older than :data:`SELECTION_INPUTS_FORMAT`.
    """
    from ..data.windows import extract_new_windows  # deferred: heavy import chain
    from ..eval.evaluation import aggregate_window_probas
    from ..serving.cache import series_fingerprint  # serving imports obs

    if event.get("event") != "selection":
        raise ValueError(f"not a selection event: {event.get('event')!r}")
    if event.get("provisional"):
        raise ValueError("provisional selections (no complete window) "
                         "are recomputed every tick and cannot be replayed")
    if event.get("cascade"):
        raise ValueError("the selection was routed through a cascade: its vote "
                         "mixes fast-tier and teacher rows")
    inputs = event.get("inputs")
    if not inputs:
        raise ValueError("event carries no replayable inputs")
    if inputs.get("format") != SELECTION_INPUTS_FORMAT:
        raise ValueError(
            f"cannot replay inputs format {inputs.get('format')!r} (expected "
            f"{SELECTION_INPUTS_FORMAT}); events without a format were recorded with "
            "the padded predict forward and the old hash layout, so their bits "
            "are not reproducible")

    series = np.ascontiguousarray(
        np.asarray(series, dtype=np.float64).ravel()[: int(inputs["length"])])
    if len(series) != int(inputs["length"]):
        raise ValueError(f"series too short: {len(series)} < {inputs['length']}")
    window, stride = int(inputs["window"]), int(inputs["stride"])
    aggregation = str(inputs["aggregation"])
    observed = series_fingerprint(series, extra=(window, stride, aggregation))
    if observed != inputs["series_hash"]:
        raise ValueError(f"content hash mismatch: {observed} != {inputs['series_hash']}")

    votes: Dict[str, float] = dict(event["votes"])
    vote_start = int(inputs["vote_start"])
    windows = extract_new_windows(series, window, n_emitted=0, stride=stride)
    if vote_start >= len(windows):
        raise ValueError("recorded vote range is empty")
    active = selector.predict_proba(windows)[vote_start:]
    choice, aggregated = aggregate_window_probas(active, aggregation)
    names = list(votes)
    return {
        "stream": event.get("stream"),
        "selected_index": int(choice),
        "selected_model": names[int(choice)] if int(choice) < len(names) else None,
        "votes": {name: float(aggregated[k]) for k, name in enumerate(names)},
        "n_windows": int(len(active)),
    }
