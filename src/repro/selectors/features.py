"""Statistical feature extraction for the feature-based selector baselines.

This replaces the TSFresh features used by the paper's non-NN baselines
with a compact catalogue of ~40 interpretable statistics computed per
window: moments, quantiles, autocorrelations, spectral summaries, peak and
crossing counts, energy and complexity measures.
"""

from __future__ import annotations

from typing import List

import numpy as np

FEATURE_NAMES: List[str] = [
    "mean", "std", "min", "max", "median", "iqr", "range",
    "q01", "q05", "q25", "q75", "q95", "q99",
    "skewness", "kurtosis",
    "mean_abs_change", "mean_change", "abs_energy", "root_mean_square",
    "count_above_mean", "count_below_mean", "longest_strike_above_mean",
    "zero_crossings", "mean_crossings",
    "autocorr_lag1", "autocorr_lag2", "autocorr_lag4", "autocorr_lag8",
    "partial_autocorr_lag1",
    "spectral_centroid", "spectral_entropy", "dominant_frequency", "dominant_power_ratio",
    "linear_trend_slope", "linear_trend_r2",
    "n_peaks", "peak_to_peak_mean_distance",
    "complexity_ce", "sample_entropy_proxy", "last_value", "first_value",
]


def _longest_strike_above_mean(row: np.ndarray) -> int:
    """Reference (per-row) implementation; the regression baseline of
    :func:`_longest_strike_batch`."""
    above = row > row.mean()
    best = current = 0
    for flag in above:
        current = current + 1 if flag else 0
        best = max(best, current)
    return best


def _count_peaks(row: np.ndarray) -> int:
    """Reference (per-row) implementation of the batched peak count."""
    if len(row) < 3:
        return 0
    interior = row[1:-1]
    return int(np.sum((interior > row[:-2]) & (interior > row[2:])))


def _peak_distance(row: np.ndarray) -> float:
    """Reference (per-row) implementation of the batched peak distance."""
    idx = np.where((row[1:-1] > row[:-2]) & (row[1:-1] > row[2:]))[0]
    if len(idx) < 2:
        return float(len(row))
    return float(np.diff(idx).mean())


def _longest_strike_batch(above: np.ndarray) -> np.ndarray:
    """Longest run of True per row of a boolean matrix, vectorised.

    Counting positions from 1, the run of True ending at position ``i``
    has length ``i - j``, where ``j`` is the last False position at or
    before ``i`` (0 if there is none), a running maximum along the row.
    Lengths are integers, so the result is bitwise identical to the
    per-row reference loop.
    """
    position = np.arange(1, above.shape[1] + 1)
    last_false = np.maximum.accumulate(np.where(above, 0, position), axis=1)
    return (position - last_false).max(axis=1, initial=0).astype(np.float64)


def _peak_stats_batch(x: np.ndarray) -> tuple:
    """Per-row interior peak count and mean peak-to-peak distance.

    The mean of consecutive index differences telescopes to
    ``(last - first) / (count - 1)``, an integer ratio — bitwise identical
    to the reference ``np.diff(idx).mean()``.
    """
    n, length = x.shape
    if length < 3:
        return np.zeros(n), np.full(n, float(length))
    peaks = (x[:, 1:-1] > x[:, :-2]) & (x[:, 1:-1] > x[:, 2:])
    counts = peaks.sum(axis=1)
    first = peaks.argmax(axis=1)
    last = (peaks.shape[1] - 1) - peaks[:, ::-1].argmax(axis=1)
    spread = (last - first).astype(np.float64)
    distance = np.where(counts >= 2,
                        spread / np.maximum(counts - 1, 1),
                        float(length))
    return counts.astype(np.float64), distance


_PERCENTILES = [1, 5, 25, 75, 95, 99]
# ``np.percentile`` divides its ``q`` by 100 the same way
_QUANTILES = np.true_divide(_PERCENTILES, 100)


def _quantile_positions(length: int) -> tuple:
    """Sorted positions and weights of ``_QUANTILES`` over ``length`` values.

    The positions and weights NumPy's ``linear`` percentile method uses
    (``_get_indexes``/``_get_gamma``): the virtual index ``(length - 1) * q``,
    its floor and the next position, both moved to the last value once the
    virtual index reaches it, and the weight measured from the moved floor.
    """
    virtual = (length - 1) * _QUANTILES
    below = np.floor(virtual)
    above = below + 1
    at_end = virtual >= length - 1
    below[at_end] = -1
    above[at_end] = -1
    below = below.astype(np.intp)
    above = above.astype(np.intp)
    gamma = virtual - below
    return below, above, gamma, gamma >= 0.5


def _order_statistics(x: np.ndarray) -> tuple:
    """Per-row median and ``_PERCENTILES`` from one sort, as ``np.median``
    and ``np.percentile`` (``linear`` method) return them, byte for byte.

    The median sums the middle one or two sorted values and divides by
    their count, the mean ``np.median`` takes of its partition.  The
    percentiles interpolate between neighbouring sorted values with NumPy's
    ``_lerp``.  A row holding NaN gets NaN throughout, as NumPy returns.
    -0.0 and +0.0 compare equal, so the sort may order them differently
    from NumPy's partition; rows holding zeros of both signs take their
    statistics from ``np.median``/``np.percentile``, which work row by row.
    """
    length = x.shape[1]
    s = np.sort(x, axis=1)
    half = length // 2
    middle = s[:, half - 1 + length % 2:half + 1]
    median = middle.sum(axis=1) / middle.shape[1]

    below, above, gamma, upper = _quantile_positions(length)
    a = s[:, below]
    b = s[:, above]
    diff_b_a = b - a
    quantiles = a + diff_b_a * gamma
    np.subtract(b, diff_b_a * (1 - gamma), out=quantiles, where=upper)

    with_nan = np.isnan(s[:, -1])  # NaN sorts last
    if with_nan.any():
        median[with_nan] = np.nan
        quantiles[with_nan] = np.nan
    zero = x == 0
    if zero.any():
        negative = np.signbit(x)
        mixed = (zero & negative).any(axis=1) & (zero & ~negative).any(axis=1)
        if mixed.any():
            rows = x[mixed]
            median[mixed] = np.median(rows, axis=1)
            quantiles[mixed] = np.percentile(rows, _PERCENTILES, axis=1).T
    return median, quantiles


def extract_features(windows: np.ndarray) -> np.ndarray:
    """Compute the feature matrix (n_windows, len(FEATURE_NAMES)).

    One pass over shared intermediates: each row is centred once for every
    moment, autocorrelation and the trend fit, sorted once for the median
    and the percentiles, and differenced once.  Every value is byte-equal
    to the NumPy call it stands for: ``mean``, ``var`` and ``std`` sum and
    divide the same way, ``np.diff`` is the same slice subtraction, and the
    order statistics follow ``np.median`` and ``np.percentile`` (see
    :func:`_order_statistics`).  A window's row depends on that window
    alone.  NaN and infinite values are written as 0.0.
    """
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    n, length = x.shape
    eps = 1e-12

    minimum = x.min(axis=1)
    maximum = x.max(axis=1)
    mean = x.sum(axis=1) / length
    centred = x - mean[:, None]
    sq_total = np.square(centred).sum(axis=1)
    var = sq_total / length
    std = np.sqrt(var)
    median, quantiles = _order_statistics(x)
    iqr = quantiles[:, 3] - quantiles[:, 2]
    value_range = maximum - minimum

    safe_std = np.maximum(std, eps)
    skewness = (centred ** 3).sum(axis=1) / length / safe_std ** 3
    kurtosis = (centred ** 4).sum(axis=1) / length / safe_std ** 4 - 3.0

    diffs = x[:, 1:] - x[:, :-1]
    mean_abs_change = np.abs(diffs).sum(axis=1) / (length - 1)
    mean_change = diffs.sum(axis=1) / (length - 1)
    abs_energy = np.square(x).sum(axis=1)
    rms = np.sqrt(abs_energy / length)

    above_mean = x > mean[:, None]
    count_above = above_mean.sum(axis=1)
    longest_strike = _longest_strike_batch(above_mean)

    signs = np.sign(x)
    zero_crossings = (np.abs(signs[:, 1:] - signs[:, :-1]) > 0).sum(axis=1)
    mean_crossings = (above_mean[:, 1:] != above_mean[:, :-1]).sum(axis=1)

    has_var = var > eps
    safe_var = np.maximum(var, eps)
    autocorr = []
    for lag in (1, 2, 4, 8):
        if lag >= length:
            autocorr.append(np.zeros(n))
            continue
        cov = (centred[:, :-lag] * centred[:, lag:]).sum(axis=1) / (length - lag)
        autocorr.append(np.where(has_var, cov / safe_var, 0.0))
    ac1, ac2, ac4, ac8 = autocorr
    pac1 = ac1  # first partial autocorrelation equals the first autocorrelation

    spectrum = np.abs(np.fft.rfft(centred, axis=1)) ** 2
    spectrum_sum = np.maximum(spectrum.sum(axis=1), eps)
    freqs = np.arange(spectrum.shape[1], dtype=float)
    spectral_centroid = (spectrum * freqs[None, :]).sum(axis=1) / spectrum_sum
    p_norm = spectrum / spectrum_sum[:, None]
    spectral_entropy = -(p_norm * np.log(p_norm + eps)).sum(axis=1)
    if spectrum.shape[1] > 1:
        dominant_freq = spectrum[:, 1:].argmax(axis=1) + 1
        dominant_power_ratio = spectrum[np.arange(n), dominant_freq] / spectrum_sum
    else:
        dominant_freq = dominant_power_ratio = np.zeros(n)

    t = np.arange(length, dtype=float)
    t_centred = t - t.mean()
    slope = (centred * t_centred[None, :]).sum(axis=1) / np.maximum((t_centred ** 2).sum(), eps)
    fitted = slope[:, None] * t_centred[None, :]
    ss_res = ((centred - fitted) ** 2).sum(axis=1)
    r2 = 1.0 - ss_res / np.maximum(sq_total, eps)

    n_peaks, peak_dist = _peak_stats_batch(x)

    complexity = np.sqrt(np.square(diffs).sum(axis=1))
    sample_entropy_proxy = np.log1p(mean_abs_change / safe_std)

    columns = [
        mean, std, minimum, maximum, median, iqr, value_range,
        *quantiles.T,  # q01, q05, q25, q75, q95, q99
        skewness, kurtosis,
        mean_abs_change, mean_change, abs_energy, rms,
        count_above, length - count_above, longest_strike,
        zero_crossings, mean_crossings,
        ac1, ac2, ac4, ac8,
        pac1,
        spectral_centroid, spectral_entropy, dominant_freq, dominant_power_ratio,
        slope, r2,
        n_peaks, peak_dist,
        complexity, sample_entropy_proxy, x[:, -1], x[:, 0],
    ]
    if len(columns) != len(FEATURE_NAMES):
        raise AssertionError(
            f"feature matrix has {len(columns)} columns but {len(FEATURE_NAMES)} names"
        )
    features = np.array(columns, dtype=np.float64)
    np.copyto(features, 0.0, where=~np.isfinite(features))  # NaN and ±inf become 0.0
    return np.ascontiguousarray(features.T)


def extract_features_cached(windows: np.ndarray) -> np.ndarray:
    """Memoised :func:`extract_features` behind the content-addressed
    transform cache (:mod:`repro.serving.transform_cache`).

    The key is the blake2b fingerprint of the windows matrix — the same
    content hash the selection cache uses — so repeated series (and the
    repeated chunk matrices of the padded predict path) pay feature
    extraction once per content.  The returned matrix may be **read-only**
    on a cache hit; callers that post-process (scalers, normalisation)
    already allocate new arrays.
    """
    from ..serving.transform_cache import cached_transform  # deferred: serving imports selectors

    x = np.asarray(windows, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    return cached_transform(x, "stats_features", extract_features)
