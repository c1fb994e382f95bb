"""Lightweight tracing: explicit-clock spans with parent/child nesting.

A span is one timed region of work — ``span("engine.flush", streams=4)``
— recorded with a start/end read from an **explicit, injectable clock**
(default :func:`time.perf_counter`).  Nothing about the traced computation
changes: spans only read the clock around it, which is what keeps ticks
deterministic and the bitwise guarantees untouched.

Nesting is tracked per thread: a span opened while another span of the
same tracer is active on the same thread becomes its child
(``parent_id``), so one flush decomposes into its forward-pass and
scoring sub-spans without any plumbing at the call sites.

Finished spans are kept in a bounded in-memory ring (:attr:`Tracer.spans`)
and, when the tracer was built with a ``sink``, appended as JSON lines —
one object per span — so a long run can be inspected offline.

The module-level :func:`span` helper forwards to the process-wide default
tracer, which is a no-op :class:`NullTracer` until
:func:`set_default_tracer` installs a real one: an un-traced process pays
one function call and zero clock reads per instrumentation site.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional


class Span:
    """One finished (or in-flight) timed region."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "start_s", "end_s")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 attrs: Dict[str, object], start_s: float) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start_s = start_s
        self.end_s: Optional[float] = None

    @property
    def duration_s(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (one JSONL line per span)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id})"


class _SpanHandle:
    """Context manager that finishes its span on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info) -> bool:
        self._tracer._finish(self.span)
        return False


class _NullSpanHandle:
    """Shared do-nothing context manager (the default tracer's answer)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN_HANDLE = _NullSpanHandle()


class Tracer:
    """Collect spans with an injectable clock and optional JSONL sink."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 sink: Optional[object] = None, keep: int = 4096) -> None:
        self.clock = clock
        self._spans: "deque[Span]" = deque(maxlen=keep)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._sink_file = None
        self._sink_owned = False
        if sink is not None:
            if hasattr(sink, "write"):
                self._sink_file = sink
            else:
                Path(sink).parent.mkdir(parents=True, exist_ok=True)
                self._sink_file = open(sink, "a", encoding="utf-8")
                self._sink_owned = True

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: object) -> _SpanHandle:
        """Open a span; use as ``with tracer.span("engine.flush", n=3):``."""
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent_id = stack[-1].span_id if stack else None
        span = Span(name, span_id, parent_id, attrs, self.clock())
        stack.append(span)
        return _SpanHandle(self, span)

    def _finish(self, span: Span) -> None:
        span.end_s = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - out-of-order exit
            stack.remove(span)
        with self._lock:
            self._spans.append(span)
            if self._sink_file is not None:
                self._sink_file.write(json.dumps(span.as_dict()) + "\n")
                self._sink_file.flush()

    # ------------------------------------------------------------------ #
    @property
    def spans(self) -> List[Span]:
        """Finished spans, oldest first (bounded by ``keep``)."""
        with self._lock:
            return list(self._spans)

    def close(self) -> None:
        if self._sink_owned and self._sink_file is not None:
            self._sink_file.close()
            self._sink_file = None

    def __repr__(self) -> str:
        return f"Tracer(spans={len(self._spans)})"


class NullTracer:
    """The default: every span is the shared no-op context manager."""

    enabled = False

    def span(self, name: str, **attrs: object) -> _NullSpanHandle:
        return _NULL_SPAN_HANDLE

    @property
    def spans(self) -> List[Span]:
        return []

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()
_default_tracer: object = NULL_TRACER


def set_default_tracer(tracer: Optional[object]):
    """Install (or, with ``None``, remove) the default tracer; returns the old."""
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


def span(name: str, **attrs: object):
    """Open a span on the default tracer (a no-op until one is installed)."""
    return _default_tracer.span(name, **attrs)
