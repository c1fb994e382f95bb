"""Prometheus-style metrics: counters, gauges, histograms, one registry.

Zero-dependency (stdlib only) instrumentation primitives for the runtime
layers.  Three metric kinds mirror the Prometheus data model:

* :class:`Counter` — a monotone count (``cache hits``, ``flushes``),
* :class:`Gauge` — the last value set (``student agreement at the last
  probe``),
* :class:`Histogram` — a distribution over fixed buckets; the default
  bucket ladder (:data:`DEFAULT_LATENCY_BUCKETS`) is log-scale from 10 µs
  to 10 s, which is where every latency in this system lives.

Metric objects are **standalone and always functional** — constructing a
``Counter`` and calling :meth:`Counter.inc` works whether or not any
registry knows about it.  That is what lets the stats the system has
always exposed (:class:`repro.serving.cache.CacheStats`,
:class:`repro.streaming.engine.StreamEngineStats`) ride on the same
objects without depending on observability being switched on.

A :class:`MetricsRegistry` aggregates metrics for exposition
(:meth:`MetricsRegistry.render_prometheus` emits the Prometheus text
format).  The registry is where the **no-op mode** lives:

* a *disabled* registry hands out a shared null metric from
  :meth:`histogram` whose methods do
  nothing and whose :meth:`Histogram.time` context manager never reads a
  clock — instrumentation sites pay one attribute call and nothing else,
* :meth:`register` on a disabled registry leaves the metric fully
  functional but untracked — stats keep counting, exposition skips them.

A process-wide default registry (disabled unless the ``REPRO_OBS``
environment variable is truthy) is reachable via :func:`default_registry`;
:func:`enable` / :func:`disable` flip it at runtime.  Components read the
default registry **at construction time**, so enable observability before
building engines/services (the CLI flags do).
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: log-scale latency ladder: 10 µs .. 10 s in 1-2.5-5 steps (seconds)
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-05, 2.5e-05, 5e-05, 1e-04, 2.5e-04, 5e-04,
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: log-scale ladder for size-like observations (windows per tick, batch sizes)
DEFAULT_COUNT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (thread-safe)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        """``(suffix, extra labels, value)`` rows for exposition."""
        return [("", {}, float(self._value))]

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """The last value set (thread-safe)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        return [("", {}, float(self._value))]

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value})"


class _HistogramTimer:
    """Context manager timing a block into one histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._histogram.observe(time.perf_counter() - self._start)
        return False


class Histogram:
    """A fixed-bucket distribution (thread-safe, cumulative on export)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # first bucket with ``value <= bound``; NaN lands in the overflow
        index = bisect_left(self.buckets, value) if value == value else len(self.buckets)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def time(self) -> _HistogramTimer:
        """Time a ``with`` block into this histogram (seconds)."""
        return _HistogramTimer(self)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        with self._lock:
            counts, total, total_sum = list(self._counts), self._count, self._sum
        rows: List[Tuple[str, Dict[str, str], float]] = []
        cumulative = 0
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            rows.append(("_bucket", {"le": _format_value(bound)}, float(cumulative)))
        rows.append(("_bucket", {"le": "+Inf"}, float(total)))
        rows.append(("_sum", {}, total_sum))
        rows.append(("_count", {}, float(total)))
        return rows

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self._count})"


# --------------------------------------------------------------------------- #
# the no-op side: shared null metrics handed out by disabled registries
# --------------------------------------------------------------------------- #
class _NullTimer:
    """A reusable context manager that never reads a clock."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class NullMetric:
    """Does nothing, cheaply — what a disabled registry hands out."""

    kind = "null"
    name = ""
    help = ""
    labels: Dict[str, str] = {}
    buckets: Tuple[float, ...] = ()
    value = 0
    count = 0
    sum = 0.0

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> _NullTimer:
        return _NULL_TIMER

    def samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        return []

    def __repr__(self) -> str:
        return "NullMetric()"


NULL_METRIC = NullMetric()


# --------------------------------------------------------------------------- #
# registry + exposition
# --------------------------------------------------------------------------- #
def _format_value(value: float) -> str:
    """Prometheus number formatting: integers without the trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label(str(v))}"'
                     for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class MetricsRegistry:
    """A collection of metrics with get-or-create access and exposition.

    ``enabled=False`` turns the registry into a no-op factory:
    :meth:`histogram` returns :data:`NULL_METRIC` and :meth:`register`
    tracks nothing (the metric itself keeps working).
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = bool(enabled)
        self._metrics: "Dict[Tuple[str, Tuple[Tuple[str, str], ...]], object]" = {}
        self._lock = threading.Lock()

    # -- enablement ---------------------------------------------------- #
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # -- get-or-create site metrics ------------------------------------ #
    def _get_or_create(self, cls, name: str, help: str,
                       labels: Dict[str, str], **kwargs):
        if not self._enabled:
            return NULL_METRIC
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, help, labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(f"metric {name!r} already registered as "
                                f"{type(metric).__name__}, not {cls.__name__}")
            return metric

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  **labels: str) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # -- pre-built (always-real) metrics ------------------------------- #
    def register(self, metric):
        """Track a standalone metric for exposition (no-op when disabled).

        Two live instances under the same ``(name, labels)`` (e.g. two
        caches built with the same name) are disambiguated by adding an
        ``instance`` label to the newcomer.
        """
        if not self._enabled or isinstance(metric, NullMetric):
            return metric
        with self._lock:
            key = (metric.name, _label_key(metric.labels))
            if key in self._metrics and self._metrics[key] is not metric:
                instance = 2
                while True:
                    labels = {**metric.labels, "instance": str(instance)}
                    candidate = (metric.name, _label_key(labels))
                    if candidate not in self._metrics:
                        break
                    instance += 1
                metric.labels = labels
                key = candidate
            self._metrics[key] = metric
        return metric

    # -- introspection ------------------------------------------------- #
    def metrics(self) -> List[object]:
        with self._lock:
            return list(self._metrics.values())

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        by_name: "Dict[str, List[object]]" = {}
        for metric in self.metrics():
            by_name.setdefault(metric.name, []).append(metric)
        lines: List[str] = []
        for name, group in by_name.items():
            first = group[0]
            if first.help:
                lines.append(f"# HELP {name} {first.help}")
            lines.append(f"# TYPE {name} {first.kind}")
            for metric in group:
                for suffix, extra, value in metric.samples():
                    labels = _render_labels({**metric.labels, **extra})
                    lines.append(f"{name}{suffix}{labels} {_format_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:
        state = "enabled" if self._enabled else "disabled"
        return f"MetricsRegistry({len(self)} metrics, {state})"


# --------------------------------------------------------------------------- #
# the process-wide default registry
# --------------------------------------------------------------------------- #
def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "").strip().lower() in ("1", "true", "yes", "on")


_default_registry = MetricsRegistry(enabled=_env_enabled())


def default_registry() -> MetricsRegistry:
    """The process-wide registry components attach to at construction."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests, CLI); returns the old one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def enable() -> MetricsRegistry:
    """Switch the default registry on (idempotent); returns it."""
    _default_registry.enable()
    return _default_registry


def disable() -> MetricsRegistry:
    """Switch the default registry off; returns it."""
    _default_registry.disable()
    return _default_registry
