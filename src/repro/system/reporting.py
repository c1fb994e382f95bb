"""Plain-text reporting helpers used by the examples and the benchmark harness.

The benchmarks print the same rows the paper's tables report; these helpers
format them consistently as fixed-width ASCII."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence


def _render_cell(value: object, float_format: str) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return float_format.format(value)
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 float_format: str = "{:.4f}") -> str:
    """Render a fixed-width ASCII table.

    NaN floats render as ``n/a``; rows longer than the header are padded
    with unnamed columns rather than raising.
    """
    str_rows = [[_render_cell(v, float_format) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        while len(widths) < len(row):  # ragged row: grow unnamed columns
            widths.append(0)
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    separator = "  ".join("-" * w for w in widths)
    out = [line(list(headers)), separator]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def format_cache_stats(stats, throughput: Optional[Dict[str, float]] = None) -> str:
    """Render serving-cache counters (and optional series/sec figures).

    ``stats`` is a :class:`repro.serving.CacheStats` (or ``None`` when the
    cache is disabled); ``throughput`` maps a label (e.g. ``"cold batch"``)
    to a series-per-second rate.  Used by the ``batch-select``/``serve``
    CLI commands and the serving benchmark.  A hit rate with zero lookups
    renders as ``n/a`` instead of a misleading ``0.0000``.
    """
    if stats is None:
        return format_table(["counter", "value"], [["cache", "disabled"]])
    hit_rate: object = stats.hit_rate if stats.lookups else "n/a"
    rows: List[List[object]] = [
        ["cache lookups", stats.lookups],
        ["cache hits", stats.hits],
        ["cache misses", stats.misses],
        ["hit rate", hit_rate],
        ["evictions", stats.evictions],
        ["entries", f"{stats.size}/{stats.capacity}"],
    ]
    for label, rate in (throughput or {}).items():
        rows.append([f"{label} throughput", f"{rate:.1f} series/s"])
    return format_table(["counter", "value"], rows)


def per_dataset_table(results: Dict[str, Dict[str, float]], datasets: Optional[List[str]] = None,
                      include_average: bool = True) -> str:
    """Format {method: {dataset: score}} as a dataset-by-method table.

    This is the layout of the paper's Tables 6-9: one row per dataset, one
    column per method, plus an average row.
    """
    methods = list(results)
    if datasets is None:
        datasets = sorted({d for scores in results.values() for d in scores})
    rows = []
    for dataset in datasets:
        rows.append([dataset] + [results[m].get(dataset, float("nan")) for m in methods])
    if include_average:
        averages = []
        for method in methods:
            values = [results[method][d] for d in datasets if d in results[method]]
            averages.append(sum(values) / len(values) if values else float("nan"))
        rows.append(["Average"] + averages)
    return format_table(["Dataset"] + methods, rows)
