"""The selection service: batched, cached "which TSAD model?" answering.

This is the throughput-oriented front end over a trained selector.  Where
:class:`repro.system.pipeline.ModelSelectionPipeline` answers one series at
a time (window → forward pass → vote), :class:`SelectionService` accepts a
whole batch and reorganises the same work for scale:

1. **Content-addressed caching** — every series is fingerprinted
   (:func:`repro.serving.cache.series_fingerprint`); repeated queries are
   answered from an LRU cache without touching the selector at all.
2. **Batched windowing** — the cache-missing series are windowed together
   (:func:`repro.data.windows.extract_windows_batch`) into one stacked
   matrix, normalised in a single vectorised pass.
3. **One batched forward pass** — the stacked windows go through the
   selector's own ``predict_proba`` once instead of one forward pass per
   series.
4. **Shared aggregation** — per-series majority voting reuses
   :func:`repro.eval.evaluation.aggregate_window_probas`, the exact code
   path of the one-shot pipeline, so batched selections are bitwise
   identical to sequential ones.

Within one batch, duplicate series (same fingerprint) are computed once and
fan out to every occurrence; the cache counts one lookup per *unique*
series per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from ..data.records import TimeSeriesRecord
from ..data.windows import extract_windows_batch, resolve_stride
from ..eval.evaluation import aggregate_window_probas, check_selectable
from ..obs.audit import NULL_AUDIT
from ..obs.metrics import DEFAULT_COUNT_BUCKETS, Counter, default_registry
from ..obs.trace import span
from ..selectors.base import Selector
from .cache import CacheStats, LRUCache, series_fingerprint


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving layer (windowing, caching, SLO admission)."""

    #: selector input window length (must match how the selector was trained);
    #: windows never overlap, like the pipeline's prediction-time windowing
    window: int = 96
    #: per-series reduction of window predictions: ``"vote"`` or ``"mean"``
    aggregation: str = "vote"
    #: maximum number of cached selection results (LRU beyond that)
    cache_capacity: int = 4096
    #: which selector tier serves this service: ``"teacher"`` (the full NN),
    #: ``"teacher-int8"`` (quantized) or ``"student"`` (distilled).
    #: Purely descriptive — the service serves whatever selector it is given
    #: — but stamped on metrics so operators can attribute traffic per tier.
    selector_tier: str = "teacher"
    #: per-batch latency SLO in milliseconds; with a cascade router attached
    #: the admission step picks the best predicted-quality plan fitting it.
    #: ``None`` leaves admission quality-only (cascade plan by default).
    latency_slo_ms: Optional[float] = None

    def __post_init__(self) -> None:
        resolve_stride(self.window)
        if self.aggregation not in ("vote", "mean"):
            raise ValueError("aggregation must be 'vote' or 'mean'")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")


@dataclass(frozen=True)
class SelectionResult:
    """The service's answer for one series."""

    series_name: str
    selected_index: int
    selected_model: str
    votes: Dict[str, float]
    n_windows: int
    from_cache: bool = False

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (the ``serve`` CLI output format)."""
        return {
            "series": self.series_name,
            "selected_index": self.selected_index,
            "selected_model": self.selected_model,
            "votes": dict(self.votes),
            "n_windows": self.n_windows,
            "cached": self.from_cache,
        }


class SelectionService:
    """Serve model-selection queries from a trained selector, at scale."""

    #: evictions inside one batch at or above this fraction of the cache
    #: capacity are audited as a ``cache_eviction_storm`` event
    EVICTION_STORM_FRACTION = 0.25

    def __init__(
        self,
        selector: Selector,
        detector_names: Sequence[str],
        config: Optional[ServingConfig] = None,
        audit: Optional[object] = None,
        cascade: Optional[object] = None,
    ) -> None:
        self.selector = selector
        self.detector_names = list(detector_names)
        self.config = config or ServingConfig()
        self.cache = LRUCache(self.config.cache_capacity, name="serving_selection")
        self.audit = audit if audit is not None else NULL_AUDIT
        from ..cascade.executor import ForwardPlan  # deferred: serving imports stay cascade-free

        #: each miss batch's forward step; with a
        #: :class:`repro.cascade.CascadeRouter` the batch is admitted against
        #: the latency SLO and low-margin windows escalate from this service's
        #: (fast) selector to the router's teacher.  ``cascade=None`` keeps
        #: the exact pre-cascade code path — selections stay bitwise identical.
        #: ``selector.predict_proba`` is looked up per call, so a selector
        #: whose method is wrapped after construction is honoured.
        self.plan = ForwardPlan("serving", lambda windows: self.selector.predict_proba(windows),
                                self.config, cascade)
        #: the last miss batch's admission decision + escalation summary
        self.last_cascade: Optional[Dict[str, object]] = None
        registry = default_registry()
        self._tier_selections = registry.register(Counter(
            "repro_selector_tier_selections_total",
            "series selections answered, by serving tier",
            labels={"tier": self.config.selector_tier, "layer": "serving"}))
        self._h_batch_series = registry.histogram(
            "repro_serving_batch_series", "series per select_batch call",
            buckets=DEFAULT_COUNT_BUCKETS)
        self._h_batch_windows = registry.histogram(
            "repro_serving_batch_windows", "stacked windows per cache-missing batch",
            buckets=DEFAULT_COUNT_BUCKETS)
        self._h_forward_seconds = registry.histogram(
            "repro_serving_forward_seconds", "selector forward-pass latency per batch")

    @property
    def cascade(self):
        """The :class:`repro.cascade.CascadeRouter` in use, or ``None``."""
        return self.plan.router

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def fingerprint(self, record: TimeSeriesRecord) -> str:
        """Cache key of one series under this service's configuration."""
        return series_fingerprint(record.series,
                                  extra=(self.config.window, self.config.aggregation))

    def select_batch(self, records: Sequence[TimeSeriesRecord]) -> List[SelectionResult]:
        """Answer a batch of series, vectorised across the cache misses.

        An empty or non-finite series raises ``ValueError``
        (:func:`~repro.eval.evaluation.check_selectable`) before anything
        is fingerprinted or cached.
        """
        for record in records:
            check_selectable(record)
        results: List[Optional[SelectionResult]] = [None] * len(records)
        self._h_batch_series.observe(len(records))
        self._tier_selections.inc(len(records))
        evictions_before = self.cache.stats.evictions

        # One cache lookup per unique series; duplicates share the outcome.
        occurrences: Dict[str, List[int]] = {}
        for i, record in enumerate(records):
            occurrences.setdefault(self.fingerprint(record), []).append(i)

        miss_keys: List[str] = []
        for key, indices in occurrences.items():
            hit = self.cache.get(key)
            if hit is not None:
                for i in indices:
                    # votes is copied so a caller mutating a result cannot
                    # corrupt the cached entry shared by future hits
                    results[i] = replace(hit, series_name=records[i].name,
                                         votes=dict(hit.votes), from_cache=True)
            else:
                miss_keys.append(key)

        if miss_keys:
            cfg = self.config
            windows, offsets = extract_windows_batch(
                [records[occurrences[key][0]].series for key in miss_keys], cfg.window)
            self._h_batch_windows.observe(len(windows))
            with self._h_forward_seconds.time(), \
                    span("serving.forward", windows=len(windows), series=len(miss_keys)):
                decision = self.plan.admit(len(windows), self.audit)
                output = self.plan.forward(windows, decision, self.audit)
            if decision is not None:
                self.last_cascade = self.plan.summary(decision, output, "n_windows")
            proba = output.proba
            for j, key in enumerate(miss_keys):
                series_proba = proba[offsets[j]:offsets[j + 1]]
                choice, aggregated = aggregate_window_probas(series_proba, cfg.aggregation)
                result = SelectionResult(
                    series_name=records[occurrences[key][0]].name,
                    selected_index=choice,
                    selected_model=self.detector_names[choice],
                    votes={name: float(aggregated[k]) for k, name in enumerate(self.detector_names)},
                    n_windows=len(series_proba),
                )
                self.cache.put(key, result)
                for i in occurrences[key]:
                    results[i] = replace(result, series_name=records[i].name,
                                         votes=dict(result.votes))

        if self.audit.enabled:
            evicted = self.cache.stats.evictions - evictions_before
            storm_floor = max(8, int(self.cache.capacity * self.EVICTION_STORM_FRACTION))
            if evicted >= storm_floor:
                self.audit.record(
                    "cache_eviction_storm", cache=self.cache.name,
                    evicted=int(evicted), capacity=int(self.cache.capacity),
                    batch_series=len(records))
        return results  # type: ignore[return-value]

    def select(self, record: TimeSeriesRecord) -> SelectionResult:
        """Answer a single series (a batch of one — same code path)."""
        return self.select_batch([record])[0]

    # ------------------------------------------------------------------ #
    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the result cache."""
        return self.cache.stats

    def __repr__(self) -> str:
        return (
            f"SelectionService(selector={self.selector!r}, "
            f"models={len(self.detector_names)}, cache={self.cache.stats.size}/"
            f"{self.config.cache_capacity})"
        )
