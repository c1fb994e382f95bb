"""``repro.obs`` — zero-dependency observability for the runtime layers.

Metrics, tracing, auditing and explanation for everything that serves
selections: the serving cache, the streaming engine and the sharded
service.  The cardinal rule is that observability **never perturbs the
computation** — metrics and audit events only read state, spans only read
a clock — so selections and scores stay bitwise-identical with
instrumentation on or off (pinned in ``tests/test_obs.py``).

* :mod:`repro.obs.metrics` — ``Counter``/``Gauge``/``Histogram``, the
  registry with a near-zero-cost no-op mode, Prometheus text exposition,
* :mod:`repro.obs.trace`   — explicit-clock spans with parent/child
  nesting, exported as JSONL,
* :mod:`repro.obs.audit`   — append-only JSONL log of selections,
  re-selections, drift events, eviction storms and shard restarts, each
  selection carrying content-hashed inputs; :func:`replay_selection`
  recomputes an audited decision bit-for-bit,
* :mod:`repro.obs.explain` — the ``explain(stream_id)`` surface: vote
  breakdown, winner margin and drift trajectory, from a live engine or
  from the audit log alone.

The default registry/tracer/audit are all disabled no-ops; the CLI flags
(``--metrics-output``, ``--trace``, ``--audit``) and ``repro.obs.metrics.enable()``
switch them on.  See ``docs/observability.md`` for the metric catalogue
and the audit schema.
"""

from .audit import NULL_AUDIT, AuditLog, NullAuditLog, replay_selection, selection_inputs
from .explain import explain_from_audit, explain_stream, format_explain
from .metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    NULL_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetric,
    default_registry,
    disable,
    enable,
    set_default_registry,
)
from .trace import NULL_TRACER, NullTracer, Span, Tracer, set_default_tracer, span

__all__ = [
    "AuditLog", "NullAuditLog", "NULL_AUDIT",
    "replay_selection", "selection_inputs",
    "explain_from_audit", "explain_stream", "format_explain",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullMetric", "NULL_METRIC",
    "DEFAULT_COUNT_BUCKETS", "DEFAULT_LATENCY_BUCKETS",
    "default_registry", "set_default_registry", "enable", "disable",
    "Span", "Tracer", "NullTracer", "NULL_TRACER",
    "set_default_tracer", "span",
]
