"""Anomaly injectors for the synthetic benchmark.

Every injector mutates a copy of the input series over a chosen interval and
returns the new series together with the binary point labels.  The variety of
anomaly types (spikes, level shifts, flatlines, noise bursts, pattern
distortions, frequency changes) is what makes different detectors win on
different dataset families, which is the property the model-selection
experiments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class AnomalySpan:
    """A labelled anomalous interval ``[start, start + length)``."""

    start: int
    length: int
    kind: str


def _scale(series: np.ndarray) -> float:
    spread = float(series.std())
    return spread if spread > 1e-9 else 1.0


def inject_spike(series: np.ndarray, start: int, length: int, rng: np.random.Generator,
                 magnitude: float = 3.0) -> np.ndarray:
    """Additive spike / dip over the interval."""
    out = series.copy()
    sign = rng.choice([-1.0, 1.0])
    bump = magnitude * _scale(series) * np.hanning(max(length, 2))[:length]
    out[start:start + length] += sign * bump
    return out


def inject_level_shift(series: np.ndarray, start: int, length: int, rng: np.random.Generator,
                       magnitude: float = 2.5) -> np.ndarray:
    """Constant offset over the interval (e.g. a stuck valve or config change)."""
    out = series.copy()
    sign = rng.choice([-1.0, 1.0])
    out[start:start + length] += sign * magnitude * _scale(series)
    return out


def inject_noise_burst(series: np.ndarray, start: int, length: int, rng: np.random.Generator,
                       magnitude: float = 3.0) -> np.ndarray:
    """High-variance noise over the interval (sensor interference)."""
    out = series.copy()
    out[start:start + length] += rng.normal(0.0, magnitude * _scale(series) * 0.5, size=length)
    return out


def inject_flatline(series: np.ndarray, start: int, length: int, rng: np.random.Generator,
                    magnitude: float = 0.0) -> np.ndarray:
    """Freeze the signal at its value just before the interval (stuck sensor)."""
    del magnitude
    out = series.copy()
    out[start:start + length] = out[max(start - 1, 0)]
    return out


def inject_amplitude_change(series: np.ndarray, start: int, length: int, rng: np.random.Generator,
                            magnitude: float = 2.0) -> np.ndarray:
    """Multiply the local oscillation around its mean by a factor."""
    out = series.copy()
    segment = out[start:start + length]
    local_mean = segment.mean()
    factor = magnitude if rng.random() < 0.5 else 1.0 / magnitude
    out[start:start + length] = local_mean + factor * (segment - local_mean)
    return out


def inject_pattern_distortion(series: np.ndarray, start: int, length: int, rng: np.random.Generator,
                              magnitude: float = 1.0) -> np.ndarray:
    """Replace the interval with a smoothly warped version of itself.

    This produces subtle anomalies (as in MGAB) that point-wise detectors
    struggle with but forecasting / discord detectors can find.
    """
    out = series.copy()
    segment = out[start:start + length]
    warp = np.interp(
        np.linspace(0, length - 1, length) + magnitude * np.sin(np.linspace(0, 3 * np.pi, length)),
        np.arange(length),
        segment,
    )
    out[start:start + length] = warp + 0.05 * magnitude * _scale(series) * rng.normal(size=length)
    return out


def inject_frequency_change(series: np.ndarray, start: int, length: int, rng: np.random.Generator,
                            magnitude: float = 2.0) -> np.ndarray:
    """Locally compress the signal in time (e.g. premature heart beats)."""
    out = series.copy()
    src_length = min(len(series) - start, int(length * magnitude))
    if src_length <= 2:
        return inject_spike(series, start, length, rng)
    source = out[start:start + src_length]
    out[start:start + length] = np.interp(
        np.linspace(0, src_length - 1, length), np.arange(src_length), source
    )
    return out


Injector = Callable[[np.ndarray, int, int, np.random.Generator, float], np.ndarray]

INJECTORS: Dict[str, Injector] = {
    "spike": inject_spike,
    "level_shift": inject_level_shift,
    "noise_burst": inject_noise_burst,
    "flatline": inject_flatline,
    "amplitude_change": inject_amplitude_change,
    "pattern_distortion": inject_pattern_distortion,
    "frequency_change": inject_frequency_change,
}


def inject_anomalies(
    series: np.ndarray,
    rng: np.random.Generator,
    kinds: Sequence[str],
    n_anomalies: int,
    length_range: Tuple[int, int],
    magnitude: float = 2.5,
    margin: int = 32,
) -> Tuple[np.ndarray, np.ndarray, List[AnomalySpan]]:
    """Inject ``n_anomalies`` non-overlapping anomalies of the given kinds.

    Returns the modified series, the point-wise binary labels and the list of
    injected spans.  Unknown kinds raise ``KeyError`` so configuration typos
    fail loudly.
    """
    series = np.asarray(series, dtype=np.float64).copy()
    labels = np.zeros(len(series), dtype=int)
    spans: List[AnomalySpan] = []
    for kind in kinds:
        if kind not in INJECTORS:
            raise KeyError(f"unknown anomaly kind {kind!r}; available: {sorted(INJECTORS)}")

    attempts = 0
    while len(spans) < n_anomalies and attempts < 50 * max(n_anomalies, 1):
        attempts += 1
        length = int(rng.integers(length_range[0], length_range[1] + 1))
        max_start = len(series) - length - margin
        if max_start <= margin:
            break
        start = int(rng.integers(margin, max_start))
        if labels[max(0, start - margin):start + length + margin].any():
            continue
        kind = str(rng.choice(list(kinds)))
        series = INJECTORS[kind](series, start, length, rng, magnitude)
        labels[start:start + length] = 1
        spans.append(AnomalySpan(start=start, length=length, kind=kind))

    spans.sort(key=lambda s: s.start)
    return series, labels, spans
