"""The stream engine: many live series, one incremental execution loop.

:class:`StreamEngine` multiplexes the streaming components over any number
of concurrent named streams.  Appends are *staged* per stream and processed
together by :meth:`flush`:

1. every stream's newly complete windows are collected
   (:class:`StreamBuffer` — incremental windowing),
2. the flush's new windows, from every stream, take **one selector forward
   pass** (the selector's own ``predict_proba``, through the engine's
   :class:`~repro.cascade.executor.ForwardPlan`),
3. each stream's probability rows and running vote, drift monitor and
   online scorer are updated; detector re-selection (drift) swaps the
   stream's scorer.

The engine owns each stream's running vote: the probability rows of every
window the stream has completed and the first row the vote covers
(``vote_start``, advanced by drift resets).

Scorer updates run inline, one stream after another in stream order.  A
chunk holding a NaN or an infinity is rejected where it enters:
:meth:`append` and :meth:`append_view` raise
:class:`~repro.detectors.base.NonFiniteSeriesError`, naming the stream and
the point's index in it, and leave every stream as it was.  A stream whose
detector rejects its (finite) series gets no new scores and says why in
``StreamUpdate.score_error``; the other streams of the flush score as
usual.

The result of a flush is one :class:`StreamUpdate` per touched stream: the
running selection (bitwise identical to the batch pipeline on the same
prefix, as long as no drift re-selection has narrowed the vote), change and
drift flags, and bookkeeping counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.windows import resolve_stride
from ..detectors.base import AnomalyDetector, check_finite
from ..obs.audit import NULL_AUDIT, selection_inputs
from ..obs.metrics import DEFAULT_COUNT_BUCKETS, Counter, default_registry
from ..obs.trace import span
from ..selectors.base import Selector
from ..serving.cache import RunningFingerprint
from .buffer import GrowingArray, StreamBuffer
from .drift import DriftConfig, DriftMonitor
from .scorer import OnlineScorer
from .selector import SelectionView, stream_selection


@dataclass(frozen=True)
class StreamingConfig:
    """Knobs of the stream engine (windowing, drift, scoring)."""

    #: selector input window length (must match how the selector was trained)
    window: int = 96
    #: window stride; ``None`` means non-overlapping (the pipeline default)
    stride: Optional[int] = None
    #: per-series reduction of window predictions: ``"vote"`` or ``"mean"``
    aggregation: str = "vote"
    #: drift monitoring configuration; ``None`` disables re-selection
    drift: Optional[DriftConfig] = None
    #: windows the running vote keeps after a drift-triggered re-selection
    keep_last_on_drift: int = 32
    #: full-re-score cadence (in points) for globally-scored detectors
    rescore_every: int = 1
    #: which selector tier serves this engine: ``"teacher"`` (the full NN),
    #: ``"teacher-int8"`` (quantized) or ``"student"`` (distilled).
    #: Purely descriptive — the engine serves whatever selector it is given —
    #: but stamped on metrics, audit events and ``explain`` output.
    selector_tier: str = "teacher"
    #: per-flush latency SLO in milliseconds; with a cascade router attached
    #: the admission step picks the best predicted-quality plan fitting it.
    #: ``None`` leaves admission quality-only (cascade plan by default).
    latency_slo_ms: Optional[float] = None

    def __post_init__(self) -> None:
        resolve_stride(self.window, self.stride)
        if self.aggregation not in ("vote", "mean"):
            raise ValueError("aggregation must be 'vote' or 'mean'")
        if self.keep_last_on_drift < 0:
            raise ValueError("keep_last_on_drift must be >= 0")
        if self.rescore_every < 1:
            raise ValueError("rescore_every must be >= 1")


@dataclass(frozen=True)
class StreamUpdate:
    """What one flush did to one stream."""

    stream: str
    length: int
    n_new_windows: int
    n_windows: int
    selected_index: Optional[int]
    selected_model: Optional[str]
    votes: Dict[str, float]
    #: True when this flush changed the stream's selected model
    changed: bool
    #: True when the answer came from a padded pseudo-window (no complete window yet)
    provisional: bool
    drift_statistic: float = 0.0
    drift_triggered: bool = False
    #: new windows of this flush the cascade escalated to the teacher
    escalated_windows: int = 0
    #: why the stream's scores did not advance: its detector rejected the
    #: series
    score_error: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (the ``stream`` CLI output format)."""
        return {
            "stream": self.stream,
            "length": self.length,
            "new_windows": self.n_new_windows,
            "windows": self.n_windows,
            "selected_index": self.selected_index,
            "selected_model": self.selected_model,
            "votes": dict(self.votes),
            "changed": self.changed,
            "provisional": self.provisional,
            "drift_statistic": self.drift_statistic,
            "drift_triggered": self.drift_triggered,
            "escalated_windows": self.escalated_windows,
            "score_error": self.score_error,
        }


@dataclass(frozen=True)
class StreamEngineStats:
    """Aggregate counters across every stream of one engine."""

    n_streams: int
    flushes: int
    points: int
    windows: int
    forward_windows: int
    drift_triggers: int
    tail_rescores: int
    full_rescores: int
    escalated_windows: int
    slo_fallbacks: int


class _StreamState:
    """Everything the engine keeps for one named stream."""

    def __init__(self, buffer: StreamBuffer, n_classes: int,
                 monitor: Optional[DriftMonitor]) -> None:
        self.buffer = buffer
        #: the selector's probability rows, one per completed window
        self.probas = GrowingArray(64, row_width=n_classes)
        #: first row the running vote covers (advanced by drift resets)
        self.vote_start = 0
        self.monitor = monitor
        self.scorer: Optional[OnlineScorer] = None
        self.selected_index: Optional[int] = None
        self.pending = False
        #: cumulative windows the cascade escalated on this stream
        self.escalated_windows = 0
        #: the last flush's cascade decision for this stream (``explain``)
        self.last_cascade: Optional[Dict[str, object]] = None
        #: content hash of the series so far, advanced by each audited flush
        self.fingerprint = RunningFingerprint()


def _update_scores(state: _StreamState) -> Optional[str]:
    """Advance one stream's scores; why not, if the series cannot be scored.

    A detector may raise ``ValueError`` on a finite series it cannot score.
    The error stays with its stream, so the other streams of the flush
    score as usual.
    """
    try:
        state.scorer.update(state.buffer.series)
    except ValueError as error:
        return f"{state.scorer.detector.name} cannot score the series: {error}"
    return None


class StreamEngine:
    """Serve online model selection (and scoring) for many live streams."""

    def __init__(
        self,
        selector: Selector,
        detector_names: Sequence[str],
        config: Optional[StreamingConfig] = None,
        model_set: Optional[Dict[str, AnomalyDetector]] = None,
        audit: Optional[object] = None,
        refresher: Optional[object] = None,
        cascade: Optional[object] = None,
    ) -> None:
        self.detector_names = list(detector_names)
        self.config = config or StreamingConfig()
        #: structured audit trail (``repro.obs.audit``); a no-op by default
        self.audit = audit if audit is not None else NULL_AUDIT
        #: optional :class:`repro.distill.StudentRefresher`; when set, drift
        #: triggers probe student↔teacher agreement and fine-tune if needed
        self.refresher = refresher
        self.model_set = model_set
        if model_set is not None:
            missing = [n for n in self.detector_names if n not in model_set]
            if missing:
                raise ValueError(f"model_set lacks detectors the selector can choose: {missing}")
        #: the selector this engine serves (the cascade's fast tier)
        self.selector = selector
        self._stride = resolve_stride(self.config.window, self.config.stride)
        self._forward_windows = default_registry().register(Counter(
            "repro_stream_forward_windows_total",
            "windows sent through an actual selector forward pass"))
        from ..cascade.executor import ForwardPlan, PlanOutput  # deferred: streaming imports stay cascade-free

        #: each flush's forward step; with a
        #: :class:`repro.cascade.CascadeRouter` the flush is admitted against
        #: the latency SLO and low-margin windows escalate from this engine's
        #: (fast) selector to the router's teacher.  ``cascade=None`` keeps
        #: the exact pre-cascade code path — selections stay bitwise identical.
        self.plan = ForwardPlan("streaming", self._forward, self.config, cascade)
        #: the forward output of a flush with no new windows
        self._no_windows = PlanOutput(np.empty((0, len(self.detector_names))))
        self._streams: Dict[str, _StreamState] = {}
        registry = default_registry()
        # always-real counters (the stats surface); registered for exposition
        self._points = registry.register(Counter(
            "repro_stream_points_total", "points appended across every stream"))
        self._flushes = registry.register(Counter(
            "repro_stream_flushes_total", "flush (tick) executions"))
        self._drift_triggers = registry.register(Counter(
            "repro_stream_drift_triggers_total",
            "drift-triggered vote resets across every stream"))
        self._reselections = registry.register(Counter(
            "repro_stream_reselections_total",
            "flushes that changed a stream's selected model"))
        self._tier_selections = registry.register(Counter(
            "repro_selector_tier_selections_total",
            "stream selections decided, by serving tier",
            labels={"tier": self.config.selector_tier, "layer": "streaming"}))
        # pure-observability site metrics: null (free) until obs is enabled
        self._h_flush_seconds = registry.histogram(
            "repro_stream_flush_seconds", "wall-clock latency of one flush")
        self._h_flush_windows = registry.histogram(
            "repro_stream_flush_windows", "new complete windows per flush",
            buckets=DEFAULT_COUNT_BUCKETS)
        self._h_flush_streams = registry.histogram(
            "repro_stream_flush_streams", "pending streams per flush",
            buckets=DEFAULT_COUNT_BUCKETS)

    @property
    def cascade(self):
        """The :class:`repro.cascade.CascadeRouter` in use, or ``None``."""
        return self.plan.router

    # ------------------------------------------------------------------ #
    # stream management
    # ------------------------------------------------------------------ #
    def _ensure_stream(self, stream_id: str) -> _StreamState:
        state = self._streams.get(stream_id)
        if state is None:
            state = _StreamState(
                buffer=StreamBuffer(self.config.window, self._stride),
                n_classes=len(self.detector_names),
                monitor=DriftMonitor(self.config.drift) if self.config.drift else None,
            )
            self._streams[stream_id] = state
        return state

    @property
    def stream_ids(self) -> List[str]:
        return list(self._streams)

    def __contains__(self, stream_id: str) -> bool:
        return stream_id in self._streams

    def series(self, stream_id: str) -> np.ndarray:
        """Every point received so far on one stream (read-only view)."""
        return self._streams[stream_id].buffer.series

    def scores(self, stream_id: str) -> np.ndarray:
        """Normalised anomaly scores of the stream's scored prefix."""
        state = self._streams[stream_id]
        if state.scorer is None:
            return np.zeros(0, dtype=np.float64)
        return state.scorer.scores

    def selection(self, stream_id: str) -> Optional[SelectionView]:
        """The stream's current model choice (recomputed from stored votes)."""
        return self._selection(self._streams[stream_id])

    def _selection(self, state: _StreamState) -> Optional[SelectionView]:
        return stream_selection(state.probas.values[state.vote_start:], state.buffer.series,
                                self._forward, self.config.window, self._stride,
                                self.config.aggregation)

    def _forward(self, windows: np.ndarray) -> np.ndarray:
        """One counted selector forward pass over a (k, window) matrix.

        NN selectors run a row-invariant forward, so a row's bits do not
        depend on how many windows arrived with it — the bitwise-equality
        guarantee.  Classical selectors are called exactly as the batch
        pipeline and the serving layer call them.
        """
        self._forward_windows.inc(len(windows))
        return self.selector.predict_proba(windows)

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def _length(self, stream_id: str) -> int:
        state = self._streams.get(stream_id)
        return 0 if state is None else state.buffer.length

    def append(self, stream_id: str, values: np.ndarray) -> None:
        """Stage points on one stream (processed by the next :meth:`flush`).

        A chunk holding NaN or an infinity raises
        :class:`~repro.detectors.base.NonFiniteSeriesError` and is not staged.
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        check_finite(values, "stream engine", start=self._length(stream_id), series_name=stream_id)
        state = self._ensure_stream(stream_id)
        state.buffer.extend(values)
        state.pending = True
        self._points.inc(len(values))

    def append_view(self, stream_id: str, series: np.ndarray) -> None:
        """Stage an externally stored series prefix (zero-copy handoff).

        ``series`` is the stream's *entire* history so far — e.g. a
        shared-memory view a service front end grew in place — and must
        extend what the engine has already seen (append-only).  Nothing is
        copied: the stream's buffer adopts the view and the next
        :meth:`flush` windows only the new points, bitwise identical to
        having received them through :meth:`append`.  New points are
        checked as :meth:`append` checks them; a rejected view is not
        adopted.
        """
        previous = self._length(stream_id)
        check_finite(np.asarray(series)[previous:], "stream engine", start=previous,
                     series_name=stream_id)
        state = self._ensure_stream(stream_id)
        state.buffer.attach(series)
        state.pending = True
        self._points.inc(state.buffer.length - previous)

    def push(self, stream_id: str, values: np.ndarray) -> StreamUpdate:
        """Append to one stream and flush immediately (single-stream ticks)."""
        self.append(stream_id, values)
        return self.flush()[stream_id]

    def drop_stream(self, stream_id: str) -> bool:
        """Forget one stream entirely (a shard's replay rebuilds it from scratch).

        Returns True when the stream existed.  All per-stream state —
        buffer, running votes, drift monitor, scorer — is discarded; a
        later append under the same id starts a fresh stream.
        """
        return self._streams.pop(stream_id, None) is not None

    def flush(self) -> Dict[str, StreamUpdate]:
        """Process every staged append; one update per touched stream."""
        pending = [(stream_id, state) for stream_id, state in self._streams.items()
                   if state.pending]
        if not pending:
            return {}
        with self._h_flush_seconds.time(), span("engine.flush", streams=len(pending)):
            return self._flush_pending(pending)

    def _flush_pending(self, pending) -> Dict[str, StreamUpdate]:
        self._flushes.inc()

        # 1. incremental windowing: only the windows that became complete
        new_windows = [state.buffer.take_new_windows() for _, state in pending]

        # 2. one forward pass over every stream's new windows; with a
        # cascade attached, the flush's forward work is admitted against
        # the SLO first and low-margin rows escalate
        counts = [len(w) for w in new_windows]
        total_windows = sum(counts)
        self._h_flush_windows.observe(total_windows)
        self._h_flush_streams.observe(len(pending))
        admitted = self.plan.admit(total_windows, self.audit)
        flush_output, forward_ms = self._no_windows, 0.0
        if total_windows:
            with span("engine.forward", windows=total_windows,
                      streams=sum(1 for n in counts if n)):
                start = time.perf_counter()
                flush_output = self.plan.forward(np.vstack(new_windows), admitted, self.audit)
                forward_ms = (time.perf_counter() - start) * 1000.0
        ends = np.cumsum(counts)

        # 3. votes, drift, selection per stream
        updates: Dict[str, StreamUpdate] = {}
        to_score: Dict[str, _StreamState] = {}
        for (stream_id, state), windows, end in zip(pending, new_windows, ends):
            output = flush_output[end - len(windows):end]
            stream_probas = output.proba
            if admitted is not None and len(windows):
                state.escalated_windows += output.n_escalated
                # the flush-level forward wall time is report-only context
                # for explain; it never feeds a routing decision
                state.last_cascade = self.plan.summary(
                    admitted, output, "n_new_windows",
                    actual_forward_ms=float(forward_ms))
            state.probas.append(stream_probas)

            drift_stat, drift_triggered = 0.0, False
            if state.monitor is not None and len(stream_probas):
                drift = state.monitor.update(stream_probas)
                drift_stat, drift_triggered = drift.statistic, drift.triggered
                if drift_triggered:
                    self._drift_triggers.inc()
                    state.vote_start = max(len(state.probas) - self.config.keep_last_on_drift, 0)
                    if self.refresher is not None:
                        # probe student↔teacher agreement, fine-tune if it fell
                        self.refresher.refresh_from_series(
                            state.buffer.series, window=self.config.window,
                            stride=self._stride, audit=self.audit, stream=stream_id)

            view = self._selection(state)
            self._tier_selections.inc()
            selected_index = view.selected_index if view is not None else None
            previous_index = state.selected_index
            changed = (selected_index is not None
                       and state.selected_index is not None
                       and selected_index != state.selected_index)
            if changed:
                self._reselections.inc()
            state.selected_index = selected_index

            if self.model_set is not None and selected_index is not None:
                chosen = self.model_set[self.detector_names[selected_index]]
                if state.scorer is None:
                    state.scorer = OnlineScorer(chosen,
                                                rescore_every=self.config.rescore_every)
                elif state.scorer.detector is not chosen:
                    state.scorer.switch_detector(chosen)
                to_score[stream_id] = state

            updates[stream_id] = StreamUpdate(
                stream=stream_id,
                length=state.buffer.length,
                n_new_windows=len(windows),
                n_windows=view.n_windows if view is not None else 0,
                selected_index=selected_index,
                selected_model=(self.detector_names[selected_index]
                                if selected_index is not None else None),
                votes=({name: float(view.aggregated[k])
                        for k, name in enumerate(self.detector_names)}
                       if view is not None else {}),
                changed=changed,
                provisional=view.provisional if view is not None else False,
                drift_statistic=drift_stat,
                drift_triggered=drift_triggered,
                escalated_windows=output.n_escalated,
            )
            state.pending = False
            if self.audit.enabled:
                self._audit_update(stream_id, state, updates[stream_id], previous_index)

        # 4. per-stream scoring, in stream order
        if to_score:
            with span("engine.score", streams=len(to_score)):
                for stream_id, state in to_score.items():
                    error = _update_scores(state)
                    if error is not None:
                        updates[stream_id] = replace(updates[stream_id], score_error=error)

        return updates

    def _audit_update(self, stream_id: str, state: _StreamState,
                      update: StreamUpdate, previous_index: Optional[int]) -> None:
        """Record one flush's decision for ``stream_id`` (audit enabled only).

        The ``selection`` event carries content-hashed, replayable inputs
        (:func:`repro.obs.audit.selection_inputs`); drift triggers and
        model changes additionally get their own events.
        """
        if update.drift_triggered:
            self.audit.record(
                "drift", stream=stream_id,
                statistic=float(update.drift_statistic),
                keep_last=self.config.keep_last_on_drift,
                vote_start=int(state.vote_start))
        if update.changed:
            self.audit.record(
                "reselection", stream=stream_id,
                previous_index=previous_index,
                previous_model=(self.detector_names[previous_index]
                                if previous_index is not None else None),
                selected_index=update.selected_index,
                selected_model=update.selected_model)
        # the cascade block (plan, escalations, margins vs threshold,
        # predicted-vs-actual cost) rides on the selection event so explain
        # can reconstruct the routing decision from the audit log alone
        cascade_fields = ({"cascade": dict(state.last_cascade)}
                          if state.last_cascade is not None else {})
        self.audit.record(
            "selection", stream=stream_id,
            length=update.length,
            n_new_windows=update.n_new_windows,
            n_windows=update.n_windows,
            selected_index=update.selected_index,
            selected_model=update.selected_model,
            votes=dict(update.votes),
            changed=update.changed,
            provisional=update.provisional,
            drift_statistic=float(update.drift_statistic),
            drift_triggered=update.drift_triggered,
            selector_tier=self.config.selector_tier,
            inputs=selection_inputs(
                state.buffer.series,
                window=self.config.window,
                stride=self._stride,
                aggregation=self.config.aggregation,
                vote_start=state.vote_start,
                fingerprint=state.fingerprint,
            ),
            **cascade_fields)

    # ------------------------------------------------------------------ #
    def explain(self, stream_id: str) -> Dict[str, object]:
        """Why is this stream's detector selected?  (vote breakdown, margin,
        drift trajectory — see :func:`repro.obs.explain.explain_stream`)."""
        from ..obs.explain import explain_stream  # deferred: obs.explain is UI-side

        return explain_stream(self, stream_id)

    @property
    def stats(self) -> StreamEngineStats:
        """Aggregate counters, a thin view over the registry-backed metrics."""
        return StreamEngineStats(
            n_streams=len(self._streams),
            flushes=self._flushes.value,
            points=self._points.value,
            windows=sum(s.buffer.n_windows for s in self._streams.values()),
            forward_windows=self._forward_windows.value,
            drift_triggers=sum(s.monitor.triggers for s in self._streams.values()
                               if s.monitor is not None),
            tail_rescores=sum(s.scorer.tail_rescores for s in self._streams.values()
                              if s.scorer is not None),
            full_rescores=sum(s.scorer.full_rescores for s in self._streams.values()
                              if s.scorer is not None),
            escalated_windows=self.plan.escalated_windows.value,
            slo_fallbacks=self.plan.slo_fallbacks.value,
        )

    def __repr__(self) -> str:
        return (f"StreamEngine(streams={len(self._streams)}, "
                f"models={len(self.detector_names)}, window={self.config.window})")
