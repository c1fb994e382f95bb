"""Incremental per-point anomaly scoring for a growing series.

Once a stream has a selected detector, recomputing the whole per-point
score array on every tick repeats almost all of the previous tick's work.
:class:`OnlineScorer` keeps the raw score array between ticks and extends
it incrementally.

Two regimes, chosen per update:

* **Tail re-scoring** (exact) — for *windowed-local* detectors
  (``detector.locally_scored``; e.g. POLY), a point's raw score is the
  overlap average of scores of windows touching it, and each window's score
  depends only on its own values.  Appending points can therefore only
  change the scores of the last ``window - 1`` old points; the scorer
  re-runs the detector on a short tail context (``2 * window`` points
  before the old end) and splices the result in.  The spliced array is
  **bitwise identical** to a full re-run, which the test suite asserts
  after every update.
* **Full re-scoring** — global detectors (IForest, MP, HBOS, ...) fit
  statistics over the whole series, so any append can move any score; the
  scorer re-runs ``detector.score`` over the full series, but only every
  ``rescore_every`` appended points (the scored prefix lags in between),
  which bounds the amortised cost on high-frequency streams.

Normalised scores (:func:`repro.detectors.base.normalize_scores` over the
maintained raw array) match ``detector.detect`` on the same prefix exactly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..detectors.base import AnomalyDetector, check_finite, normalize_scores

#: ``detector.score`` needs at least this many points (the effective-window
#: floor of :meth:`AnomalyDetector.effective_window`).
_MIN_SCORABLE = 4


class OnlineScorer:
    """Maintain per-point anomaly scores of one stream incrementally."""

    def __init__(self, detector: AnomalyDetector, rescore_every: int = 1) -> None:
        if rescore_every < 1:
            raise ValueError("rescore_every must be >= 1")
        self.detector = detector
        self.rescore_every = rescore_every
        self._raw: Optional[np.ndarray] = None
        self._scored_length = 0
        self._seen_length = 0
        self._scored_window = 0
        self._pending_since_rescore = 0
        #: update counters (observability + benchmark accounting)
        self.full_rescores = 0
        self.tail_rescores = 0

    # ------------------------------------------------------------------ #
    @property
    def raw_scores(self) -> np.ndarray:
        """Raw per-point scores of the scored prefix (empty before any run)."""
        if self._raw is None:
            return np.zeros(0, dtype=np.float64)
        return self._raw

    @property
    def scores(self) -> np.ndarray:
        """Normalised scores of the scored prefix — equal to
        ``detector.detect(series[:len(scores)])``."""
        return normalize_scores(self.raw_scores) if self._scored_length else np.zeros(0)

    # ------------------------------------------------------------------ #
    def switch_detector(self, detector: AnomalyDetector) -> None:
        """Swap the detector (after a re-selection); forces a full re-score."""
        self.detector = detector
        self._raw = None
        self._scored_length = 0
        self._scored_window = 0
        self._pending_since_rescore = self._seen_length

    def _tail_update(self, series: np.ndarray, window: int) -> Optional[np.ndarray]:
        """Exact incremental splice, or None when the preconditions fail."""
        n_old = self._scored_length
        cut = n_old - 2 * window
        if cut <= 0:
            return None  # tail run would cover (almost) everything — run full
        if self.detector.effective_window(series[cut:]) != window:
            return None  # the tail context would see a different window size
        tail_raw = self.detector.score(series[cut:])
        # Scores of points before ``boundary`` cannot have changed: no new
        # window reaches further back than window - 1 points before n_old.
        boundary = n_old - (window - 1)
        self.tail_rescores += 1
        return np.concatenate([self._raw[:boundary], tail_raw[boundary - cut:]])

    def update(self, series: np.ndarray) -> bool:
        """Extend the scores to cover ``series`` (the stream's full prefix).

        Returns True when the scored prefix advanced.  ``series`` must be
        the same stream the scorer has seen so far, grown — the scorer only
        keeps scores, not points, so the caller (the stream buffer) is the
        source of truth for the data.  A new point that is NaN or an
        infinity raises :class:`~repro.detectors.base.NonFiniteSeriesError`
        and leaves the scorer unchanged, so every later update raises too.
        """
        series = np.asarray(series, dtype=np.float64).ravel()
        n_new = len(series)
        if n_new < self._seen_length:
            raise ValueError("series shrank: online scoring needs append-only input")
        # the points up to _seen_length passed this check on an earlier update
        check_finite(series[self._seen_length:], self.detector.name, start=self._seen_length)
        self._pending_since_rescore += n_new - self._seen_length
        self._seen_length = n_new
        if n_new == self._scored_length or n_new < _MIN_SCORABLE:
            return False

        window = self.detector.effective_window(series)
        can_tail = (self.detector.locally_scored and self._raw is not None
                    and window == self._scored_window)
        # The rescore_every cadence exists to bound *full* re-runs; the
        # exact tail path is cheap, so local detectors stay current on
        # every tick regardless of cadence.
        if (not can_tail and self._raw is not None
                and self._pending_since_rescore < self.rescore_every):
            return False

        spliced = self._tail_update(series, window) if can_tail else None
        if spliced is None:
            spliced = self.detector.score(series)
            self.full_rescores += 1

        self._raw = spliced
        self._scored_length = n_new
        self._scored_window = window
        self._pending_since_rescore = 0
        return True

    def __repr__(self) -> str:
        return (f"OnlineScorer(detector={self.detector!r}, "
                f"scored={self._scored_length}, tail={self.tail_rescores}, "
                f"full={self.full_rescores})")
