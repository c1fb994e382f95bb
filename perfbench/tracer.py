"""In-memory span tracing for the benchmark's traced runs.

The traced run of a workload installs wrappers around the program's public
functions and methods (and, for ``nn``, around the selector's own module
instances), records one span per call, and removes every wrapper again
before the output checks run.  Nothing in the program is edited: a wrapper
is an attribute set on a module, class or instance, and ``restore`` puts
the original attribute back (or deletes the shadowing one).

A span records its name, start, end, parent span and the id of the
operation (series, request or tick) it ran under.  Self time is a span's
duration minus the time its child spans cover.  An *opaque* span (the
detectors) records no children, so its self time is its inclusive time:
a neural detector's own autograd work stays inside its detector span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

_MISSING = object()


class Tracer:
    """Records spans of wrapped calls; one instance per traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent_index, op]`` per span, in start order
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: id of the operation (series, request or tick) now running
        self.op: Optional[str] = None
        self._stack: List[int] = []
        self._opaque_depth = 0
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def wrap(self, name: str, fn: Callable, opaque: bool = False,
             count: Optional[Callable[..., int]] = None) -> Callable:
        """``fn`` recording one span per call (and ``count(*args)`` rows)."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer._opaque_depth:
                return fn(*args, **kwargs)
            if count is not None:
                tracer.counts[name] += count(*args, **kwargs)
            record = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            if opaque:
                tracer._opaque_depth += 1
            record[1] = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = tracer.clock()
                tracer._stack.pop()
                if opaque:
                    tracer._opaque_depth -= 1

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, opaque: bool = False,
              count: Optional[Callable[..., int]] = None) -> None:
        """Shadow ``owner.attr`` (module, class or instance) with a wrapper."""
        previous = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), opaque, count))

        def undo() -> None:
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

        self._undo.append(undo)

    def restore(self) -> None:
        """Remove every wrapper, newest first."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, float]:
        """Summed self time (seconds) per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[i]
        return totals

    def top_level_s(self) -> float:
        """Wall time covered by spans that have no parent."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
