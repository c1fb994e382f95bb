"""Incremental model selection over live streams.

The one-shot pipeline answers "which TSAD model?" by windowing the whole
series and running every window through the selector.  On a stream that is
redundant work: windows already classified on earlier ticks never change
(windows are content-defined and z-normalisation is row-local), so the
stream engine keeps each stream's probability rows and only the *new*
windows take a forward pass.

:func:`stream_selection` turns those rows into the running selection with
:func:`repro.eval.evaluation.aggregate_window_probas` — the *same* code the
batch pipeline uses, over the *same* probability rows — which is what makes
streaming selections bitwise identical to re-running the batch pipeline on
the final series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..data.windows import extract_windows
from ..eval.evaluation import aggregate_window_probas


@dataclass(frozen=True)
class SelectionView:
    """The running answer for one stream at one instant."""

    selected_index: int
    aggregated: np.ndarray
    n_windows: int
    #: True when no complete window exists yet and the answer came from a
    #: padded pseudo-window over the partial series (recomputed every tick)
    provisional: bool = False


def stream_selection(active_probas: np.ndarray, series: np.ndarray,
                     forward: Callable[[np.ndarray], np.ndarray],
                     window: int, stride: int, aggregation: str) -> Optional[SelectionView]:
    """A stream's current model choice (None when there is nothing to vote on).

    With at least one complete window this aggregates ``active_probas``, the
    rows the running vote covers, with the batch pipeline's own
    :func:`aggregate_window_probas`: bitwise-equal selections.  Before the
    first complete window, the partial ``series`` yields a *provisional*
    answer from the batch path's padded single window, classified by
    ``forward``.
    """
    if len(active_probas):
        choice, aggregated = aggregate_window_probas(active_probas, aggregation)
        return SelectionView(choice, aggregated, n_windows=len(active_probas))
    if len(series):
        padded = extract_windows(series, window, stride=stride)
        choice, aggregated = aggregate_window_probas(forward(padded), aggregation)
        return SelectionView(choice, aggregated, n_windows=len(padded), provisional=True)
    return None
