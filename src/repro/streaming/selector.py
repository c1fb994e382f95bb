"""Incremental model selection over live streams.

The one-shot pipeline answers "which TSAD model?" by windowing the whole
series and running every window through the selector.  On a stream that is
redundant work: windows already classified on earlier ticks never change
(windows are content-defined and z-normalisation is row-local), so their
probabilities can be kept and only the *new* windows need a forward pass.

:class:`StreamingSelector` owns that invariant.  Per stream it accumulates
the per-window probability matrix (:class:`StreamVoteState`); each tick it
classifies only the newly complete windows, through the selector's own
``predict_proba``.  The running selection is recomputed with
:func:`repro.eval.evaluation.aggregate_window_probas` — the *same* code the
batch pipeline uses, over the *same* probability rows — which is what makes
streaming selections bitwise identical to re-running the batch pipeline on
the final series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..data.windows import extract_windows
from ..eval.evaluation import aggregate_window_probas
from ..obs.metrics import Counter, default_registry
from ..selectors.base import Selector


class StreamVoteState:
    """Per-stream accumulator of window probabilities and the vote range."""

    def __init__(self, n_classes: int, initial_capacity: int = 64) -> None:
        self.n_classes = n_classes
        self._probas = np.empty((initial_capacity, n_classes), dtype=np.float64)
        self._length = 0
        #: first window index the running vote covers (advanced by drift resets)
        self.vote_start = 0

    def __len__(self) -> int:
        return self._length

    def append(self, probas: np.ndarray) -> None:
        needed = self._length + len(probas)
        if needed > len(self._probas):
            capacity = len(self._probas)
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity, self.n_classes), dtype=np.float64)
            grown[: self._length] = self._probas[: self._length]
            self._probas = grown
        self._probas[self._length:needed] = probas
        self._length = needed

    @property
    def probas(self) -> np.ndarray:
        """All accumulated per-window probabilities (read-only view)."""
        view = self._probas[: self._length]
        view.flags.writeable = False
        return view

    @property
    def active_probas(self) -> np.ndarray:
        """The rows the running vote covers (``vote_start:``)."""
        return self.probas[self.vote_start:]


@dataclass(frozen=True)
class SelectionView:
    """The running answer for one stream at one instant."""

    selected_index: int
    aggregated: np.ndarray
    n_windows: int
    #: True when no complete window exists yet and the answer came from a
    #: padded pseudo-window over the partial series (recomputed every tick)
    provisional: bool = False


class StreamingSelector:
    """Classify only new windows; keep per-stream running votes."""

    def __init__(
        self,
        selector: Selector,
        n_classes: int,
        window: int,
        stride: Optional[int] = None,
        aggregation: str = "vote",
    ) -> None:
        if aggregation not in ("vote", "mean"):
            raise ValueError("aggregation must be 'vote' or 'mean'")
        self.selector = selector
        self.n_classes = n_classes
        self.window = window
        self.stride = stride or window
        self.aggregation = aggregation
        self._forward_windows = default_registry().register(Counter(
            "repro_stream_forward_windows_total",
            "windows sent through an actual selector forward pass"))

    # ------------------------------------------------------------------ #
    @property
    def forward_windows(self) -> int:
        """Windows sent through an actual selector forward pass."""
        return self._forward_windows.value

    def new_state(self) -> StreamVoteState:
        return StreamVoteState(self.n_classes)

    def predict_proba(self, windows: np.ndarray) -> np.ndarray:
        """One selector forward pass over a (k, L) window matrix.

        NN selectors run a row-invariant forward, so per-row bits do not
        depend on how many windows arrived together — the bitwise-equality
        guarantee.  Classical selectors are called
        exactly like the batch pipeline and the serving layer call them;
        their probabilities are typically discrete vote/count fractions,
        but tick-boundary bit-equality is *engineered* only for the NN path.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if len(windows) == 0:
            return np.empty((0, self.n_classes), dtype=np.float64)
        self._forward_windows.inc(len(windows))
        return self.selector.predict_proba(windows)

    # ------------------------------------------------------------------ #
    def update(self, state: StreamVoteState, new_windows: np.ndarray,
               probas: Optional[np.ndarray] = None) -> np.ndarray:
        """Fold newly complete windows into the stream's running vote.

        ``probas`` short-circuits the forward pass when the engine already
        classified the windows as part of a cross-stream batch.
        """
        if probas is None:
            probas = self.predict_proba(new_windows)
        if len(probas):
            state.append(probas)
        return probas

    def selection(self, state: StreamVoteState,
                  series: Optional[np.ndarray] = None) -> Optional[SelectionView]:
        """The stream's current model choice (None when nothing to vote on).

        With at least one complete window this aggregates the stored
        probability rows with the batch pipeline's own
        :func:`aggregate_window_probas` — bitwise-equal selections.  Before
        the first complete window, a ``series`` (the partial stream) yields
        a *provisional* answer via the batch path's padded single window.
        """
        active = state.active_probas
        if len(active):
            choice, aggregated = aggregate_window_probas(active, self.aggregation)
            return SelectionView(choice, aggregated, n_windows=len(active))
        if series is not None and len(series):
            padded = extract_windows(series, self.window, stride=self.stride)
            choice, aggregated = aggregate_window_probas(
                self.predict_proba(padded), self.aggregation)
            return SelectionView(choice, aggregated, n_windows=len(padded), provisional=True)
        return None

    def reset_votes(self, state: StreamVoteState, keep_last: int = 0) -> None:
        """Restart the running vote, keeping only the last ``keep_last`` windows.

        This is the re-selection primitive the drift monitor triggers: old
        windows stop contributing, so the choice can move with the stream.
        """
        state.vote_start = max(len(state) - max(keep_last, 0), 0)
