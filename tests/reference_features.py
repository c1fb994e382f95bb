"""Statistical window features as computed one NumPy call at a time: the
reference the library's one-pass :func:`repro.selectors.features.extract_features`
is checked against.

``extract_features`` here is the implementation the library used before it
shared one centring between every moment and one sort between every order
statistic, kept with its helpers ``_autocorr``, ``_longest_strike_batch``
and ``_peak_stats_batch`` as they were, so a test can compare the two
feature matrices byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.selectors.features import FEATURE_NAMES


def _autocorr(x: np.ndarray, lag: int) -> np.ndarray:
    """Batched autocorrelation at ``lag`` for rows of ``x``."""
    n = x.shape[1]
    if lag >= n:
        return np.zeros(x.shape[0])
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1)
    centred = x - mean
    cov = (centred[:, :-lag] * centred[:, lag:]).mean(axis=1)
    return np.where(var > 1e-12, cov / np.maximum(var, 1e-12), 0.0)


def _longest_strike_batch(above: np.ndarray) -> np.ndarray:
    """Longest run of True per row of a boolean matrix, vectorised.

    Run boundaries are found from the sign changes of the zero-padded
    mask; lengths are integers, so the result is bitwise identical to the
    per-row reference loop.
    """
    n, length = above.shape
    padded = np.zeros((n, length + 2), dtype=np.int8)
    padded[:, 1:-1] = above
    edges = np.diff(padded, axis=1)
    run_rows, starts = np.nonzero(edges == 1)
    _, ends = np.nonzero(edges == -1)
    best = np.zeros(n, dtype=np.float64)
    # starts/ends pair up in order within each row
    np.maximum.at(best, run_rows, (ends - starts).astype(np.float64))
    return best


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


def extract_features(windows: np.ndarray) -> np.ndarray:
    """Compute the feature matrix (n_windows, len(FEATURE_NAMES))."""
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    n, length = x.shape
    eps = 1e-12

    mean = x.mean(axis=1)
    std = x.std(axis=1)
    minimum = x.min(axis=1)
    maximum = x.max(axis=1)
    median = np.median(x, axis=1)
    q01, q05, q25, q75, q95, q99 = np.percentile(x, [1, 5, 25, 75, 95, 99], axis=1)
    iqr = q75 - q25
    value_range = maximum - minimum

    centred = x - mean[:, None]
    safe_std = np.maximum(std, eps)
    skewness = (centred ** 3).mean(axis=1) / safe_std ** 3
    kurtosis = (centred ** 4).mean(axis=1) / safe_std ** 4 - 3.0

    diffs = np.diff(x, axis=1)
    mean_abs_change = np.abs(diffs).mean(axis=1)
    mean_change = diffs.mean(axis=1)
    abs_energy = (x ** 2).sum(axis=1)
    rms = np.sqrt((x ** 2).mean(axis=1))

    above_mean = x > mean[:, None]
    count_above = above_mean.sum(axis=1).astype(float)
    count_below = length - count_above
    longest_strike = _longest_strike_batch(above_mean)

    signs = np.sign(x)
    zero_crossings = (np.abs(np.diff(signs, axis=1)) > 0).sum(axis=1).astype(float)
    mean_crossings = (np.abs(np.diff(above_mean.astype(float), axis=1)) > 0).sum(axis=1).astype(float)

    ac1 = _autocorr(x, 1)
    ac2 = _autocorr(x, 2)
    ac4 = _autocorr(x, 4)
    ac8 = _autocorr(x, 8)
    pac1 = ac1  # first partial autocorrelation equals the first autocorrelation

    spectrum = np.abs(np.fft.rfft(centred, axis=1)) ** 2
    spectrum_sum = np.maximum(spectrum.sum(axis=1), eps)
    freqs = np.arange(spectrum.shape[1], dtype=float)
    spectral_centroid = (spectrum * freqs[None, :]).sum(axis=1) / spectrum_sum
    p_norm = spectrum / spectrum_sum[:, None]
    spectral_entropy = -(p_norm * np.log(p_norm + eps)).sum(axis=1)
    dominant_freq = spectrum[:, 1:].argmax(axis=1).astype(float) + 1.0 if spectrum.shape[1] > 1 \
        else np.zeros(n)
    dominant_power_ratio = (
        spectrum[np.arange(n), dominant_freq.astype(int)] / spectrum_sum
        if spectrum.shape[1] > 1 else np.zeros(n)
    )

    t = np.arange(length, dtype=float)
    t_centred = t - t.mean()
    slope = (centred * t_centred[None, :]).sum(axis=1) / np.maximum((t_centred ** 2).sum(), eps)
    fitted = slope[:, None] * t_centred[None, :]
    ss_res = ((centred - fitted) ** 2).sum(axis=1)
    ss_tot = np.maximum((centred ** 2).sum(axis=1), eps)
    r2 = 1.0 - ss_res / ss_tot

    n_peaks, peak_dist = _peak_stats_batch(x)

    complexity = np.sqrt((diffs ** 2).sum(axis=1))
    sample_entropy_proxy = np.log1p(mean_abs_change / np.maximum(std, eps))

    features = np.column_stack([
        mean, std, minimum, maximum, median, iqr, value_range,
        q01, q05, q25, q75, q95, q99,
        skewness, kurtosis,
        mean_abs_change, mean_change, abs_energy, rms,
        count_above, count_below, longest_strike,
        zero_crossings, mean_crossings,
        ac1, ac2, ac4, ac8,
        pac1,
        spectral_centroid, spectral_entropy, dominant_freq, dominant_power_ratio,
        slope, r2,
        n_peaks, peak_dist,
        complexity, sample_entropy_proxy, x[:, -1], x[:, 0],
    ])
    if features.shape[1] != len(FEATURE_NAMES):
        raise AssertionError(
            f"feature matrix has {features.shape[1]} columns but {len(FEATURE_NAMES)} names"
        )
    return np.nan_to_num(features, nan=0.0, posinf=0.0, neginf=0.0)
