"""Base waveform generators for the synthetic TSB-UAD-style benchmark.

Each function returns a 1-D float array.  The 16 dataset families in
:mod:`repro.data.generators` compose these primitives so that the resulting
collections are heterogeneous in the same way the real benchmark is:
periodic medical signals, chaotic series, noisy server metrics, slowly
drifting environmental sensors, switching industrial processes, and so on.
"""

from __future__ import annotations

import numpy as np


def sine_wave(length: int, period: float, amplitude: float = 1.0, phase: float = 0.0) -> np.ndarray:
    """Plain sinusoid."""
    t = np.arange(length)
    return amplitude * np.sin(2.0 * np.pi * t / period + phase)


def sine_mixture(length: int, periods, amplitudes, rng: np.random.Generator) -> np.ndarray:
    """Sum of sinusoids with random phases."""
    out = np.zeros(length)
    for period, amplitude in zip(periods, amplitudes):
        out += sine_wave(length, period, amplitude, phase=rng.uniform(0, 2 * np.pi))
    return out


def ecg_like(length: int, beat_period: int, rng: np.random.Generator, amplitude: float = 1.0) -> np.ndarray:
    """Synthetic electrocardiogram: a sharp QRS-like spike plus P/T bumps per beat."""
    t = np.arange(beat_period, dtype=np.float64)
    centre = beat_period * 0.45
    qrs = amplitude * np.exp(-0.5 * ((t - centre) / (beat_period * 0.02 + 1.0)) ** 2)
    p_wave = 0.18 * amplitude * np.exp(-0.5 * ((t - beat_period * 0.28) / (beat_period * 0.05 + 1.0)) ** 2)
    t_wave = 0.32 * amplitude * np.exp(-0.5 * ((t - beat_period * 0.68) / (beat_period * 0.07 + 1.0)) ** 2)
    beat = qrs + p_wave + t_wave - 0.12 * amplitude

    n_beats = length // beat_period + 2
    series = np.concatenate([beat * (1.0 + 0.04 * rng.normal()) for _ in range(n_beats)])
    return series[:length]


def mackey_glass(length: int, rng: np.random.Generator, tau: int = 17, beta: float = 0.2,
                 gamma: float = 0.1, n: int = 10, warmup: int = 500) -> np.ndarray:
    """Mackey-Glass delay differential equation (Euler discretisation).

    The MGAB benchmark is built from exactly this chaotic system.
    """
    total = length + warmup
    x = np.zeros(total + tau)
    x[:tau] = 1.2 + 0.05 * rng.normal(size=tau)
    for i in range(tau, total + tau - 1):
        x[i + 1] = x[i] + beta * x[i - tau] / (1.0 + x[i - tau] ** n) - gamma * x[i]
    return x[tau + warmup:tau + warmup + length]


def random_walk(length: int, rng: np.random.Generator, step_std: float = 0.05, drift: float = 0.0) -> np.ndarray:
    """Gaussian random walk with optional drift."""
    steps = rng.normal(drift, step_std, size=length)
    return np.cumsum(steps)


def ar1_process(length: int, rng: np.random.Generator, phi: float = 0.9, noise_std: float = 0.1) -> np.ndarray:
    """First-order autoregressive process."""
    out = np.zeros(length)
    noise = rng.normal(0.0, noise_std, size=length)
    for i in range(1, length):
        out[i] = phi * out[i - 1] + noise[i]
    return out


def square_wave(length: int, period: int, rng: np.random.Generator, low: float = 0.0,
                high: float = 1.0, duty: float = 0.5, jitter: float = 0.05) -> np.ndarray:
    """Square wave with per-cycle duty-cycle jitter (occupancy / actuator style)."""
    out = np.full(length, low, dtype=np.float64)
    pos = 0
    while pos < length:
        cycle_duty = np.clip(duty + jitter * rng.normal(), 0.1, 0.9)
        on = int(period * cycle_duty)
        out[pos:pos + on] = high
        pos += period
    return out


def level_steps(length: int, rng: np.random.Generator, n_levels: int = 5, step_std: float = 1.0) -> np.ndarray:
    """Piecewise-constant signal (web-service load / machine state style).

    The change points are distinct interior positions, so a series shorter
    than ``n_levels + 1`` points gets fewer levels (one below 3 points).
    """
    n_changes = min(max(n_levels - 1, 1), max(length - 2, 0))
    boundaries = np.sort(rng.choice(np.arange(1, length - 1), size=n_changes, replace=False))
    levels = np.cumsum(rng.normal(0.0, step_std, size=n_levels))
    out = np.zeros(length)
    start = 0
    for i, end in enumerate(list(boundaries) + [length]):
        out[start:end] = levels[i]
        start = end
    return out


def seasonal_pattern(length: int, period: int, rng: np.random.Generator, sharpness: float = 3.0) -> np.ndarray:
    """Asymmetric repeating daily-traffic-like pattern (rush-hour bumps)."""
    t = np.arange(length) % period
    base = np.exp(-0.5 * ((t - 0.35 * period) / (period / (2 * sharpness))) ** 2)
    base += 0.7 * np.exp(-0.5 * ((t - 0.75 * period) / (period / (2 * sharpness))) ** 2)
    return base * (1.0 + 0.05 * rng.normal(size=length))


def trend(length: int, slope: float) -> np.ndarray:
    """Linear trend."""
    return slope * np.arange(length, dtype=np.float64)
