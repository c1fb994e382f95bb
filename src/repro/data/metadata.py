"""Natural-language metadata used by the Meta-Knowledge Integration module.

The paper feeds a templated description of each series (dataset domain,
length, number of anomalies, anomaly durations) into a frozen language
model.  :func:`describe_record` reproduces the exact template from
Sect. B.1 of the paper.
"""

from __future__ import annotations

from typing import Iterable

from .records import TimeSeriesRecord


def _format_lengths(lengths: Iterable[int]) -> str:
    lengths = list(lengths)
    if not lengths:
        return ""
    return ", ".join(str(v) for v in lengths)


def describe_record(record: TimeSeriesRecord) -> str:
    """Render the paper's metadata template for one time series.

    Template (Sect. B.1): "This is a time series from dataset [Dataset name],
    [Description]. The length of the series is [Length]. There are [Number of
    anomalies] anomalies in this series. The lengths of the anomalies are
    [lengths]."  The last sentence is omitted when the series has no anomaly.
    """
    parts = [
        f"This is a time series from dataset {record.dataset}, which is {record.domain_description}.",
        f"The length of the series is {record.length}.",
        f"There are {record.n_anomalies} anomalies in this series.",
    ]
    if record.n_anomalies > 0:
        parts.append(f"The lengths of the anomalies are {_format_lengths(record.anomaly_lengths)}.")
    return " ".join(parts)

