"""Batch assembly utilities for the serving layer.

A serving deployment rarely receives exactly the batch it wants to compute:
queries arrive as one giant directory sweep or as a trickle of singletons.
These helpers reshape arbitrary record sequences into micro-batches whose
*window* count (the real unit of selector work) is bounded, so peak memory
stays flat no matter how many series a caller submits at once.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from ..data.records import TimeSeriesRecord
from ..data.windows import count_windows


def window_budget_groups(counts: Sequence[int], max_windows: int) -> List[List[int]]:
    """Group item indices so each group's window total stays within budget.

    ``counts[i]`` is the number of windows item ``i`` contributes.  Item
    order is preserved and groups are contiguous; an item alone larger than
    the budget still forms its own group (it cannot be split without
    changing results).  Items contributing zero windows ride along with
    their neighbours.  :func:`microbatches` budgets directory sweeps with it.
    """
    if max_windows < 1:
        raise ValueError("max_windows must be >= 1")
    groups: List[List[int]] = []
    group: List[int] = []
    group_windows = 0
    for i, n in enumerate(counts):
        if group and group_windows + n > max_windows:
            groups.append(group)
            group = []
            group_windows = 0
        group.append(i)
        group_windows += n
    if group:
        groups.append(group)
    return groups


def microbatches(
    records: Sequence[TimeSeriesRecord],
    window: int,
    stride: Optional[int] = None,
    max_windows: int = 8192,
) -> Iterator[List[TimeSeriesRecord]]:
    """Split records into batches of at most ``max_windows`` total windows.

    Record order is preserved; a single series larger than the budget still
    forms its own batch (it cannot be split without changing results).
    """
    counts = [count_windows(record.length, window, stride) for record in records]
    for group in window_budget_groups(counts, max_windows):
        yield [records[i] for i in group]
