"""Synthetic generators for the 16 TSB-UAD-style dataset families.

The real benchmark cannot be downloaded in this offline environment, so each
family is replaced by a generator whose signal model and anomaly types echo
the description in Table 4 of the paper.  The families are deliberately
heterogeneous so that no single detector dominates everywhere — the property
that makes TSAD model selection a meaningful problem.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from . import signals
from .anomalies import inject_anomalies
from .records import DATASET_NAMES, TimeSeriesRecord


@dataclass(frozen=True)
class FamilyConfig:
    """Configuration of one synthetic dataset family."""

    name: str
    base: Callable[[int, np.random.Generator], np.ndarray]
    anomaly_kinds: Tuple[str, ...]
    noise_std: float = 0.05
    n_anomalies: Tuple[int, int] = (1, 3)
    anomaly_length: Tuple[int, int] = (16, 48)
    magnitude: float = 2.5


# --------------------------------------------------------------------------- #
# base signals per family
# --------------------------------------------------------------------------- #
def _ecg_base(length: int, rng: np.random.Generator) -> np.ndarray:
    return signals.ecg_like(length, beat_period=int(rng.integers(40, 70)), rng=rng)


def _mitdb_base(length: int, rng: np.random.Generator) -> np.ndarray:
    base = signals.ecg_like(length, beat_period=int(rng.integers(50, 90)), rng=rng)
    return base + 0.15 * signals.sine_wave(length, period=length / 3, amplitude=1.0)


def _svdb_base(length: int, rng: np.random.Generator) -> np.ndarray:
    return signals.ecg_like(length, beat_period=int(rng.integers(35, 55)), rng=rng, amplitude=1.2)


def _mgab_base(length: int, rng: np.random.Generator) -> np.ndarray:
    return signals.mackey_glass(length, rng)


def _iops_base(length: int, rng: np.random.Generator) -> np.ndarray:
    return (
        signals.level_steps(length, rng, n_levels=int(rng.integers(3, 7)), step_std=0.8)
        + 0.4 * signals.seasonal_pattern(length, period=max(length // 6, 20), rng=rng)
        + signals.ar1_process(length, rng, phi=0.7, noise_std=0.08)
    )


def _smd_base(length: int, rng: np.random.Generator) -> np.ndarray:
    return (
        signals.level_steps(length, rng, n_levels=int(rng.integers(2, 5)), step_std=0.5)
        + signals.ar1_process(length, rng, phi=0.95, noise_std=0.05)
        + signals.trend(length, slope=rng.uniform(-0.3, 0.3) / max(length, 1))
    )


def _nab_base(length: int, rng: np.random.Generator) -> np.ndarray:
    return (
        signals.seasonal_pattern(length, period=max(length // 8, 24), rng=rng)
        + signals.random_walk(length, rng, step_std=0.02)
    )


def _yahoo_base(length: int, rng: np.random.Generator) -> np.ndarray:
    return (
        signals.sine_mixture(length, [length / 5, length / 23], [1.0, 0.3], rng)
        + signals.trend(length, slope=rng.uniform(0.0, 1.0) / max(length, 1))
        + signals.ar1_process(length, rng, phi=0.5, noise_std=0.05)
    )


def _kdd21_base(length: int, rng: np.random.Generator) -> np.ndarray:
    choice = rng.integers(0, 3)
    if choice == 0:
        return _ecg_base(length, rng)
    if choice == 1:
        return _mgab_base(length, rng)
    return _iops_base(length, rng)


def _sensorscope_base(length: int, rng: np.random.Generator) -> np.ndarray:
    return (
        signals.sine_wave(length, period=max(length // 3, 30), amplitude=1.0, phase=rng.uniform(0, 2 * np.pi))
        + signals.random_walk(length, rng, step_std=0.03)
    )


def _daphnet_base(length: int, rng: np.random.Generator) -> np.ndarray:
    walk = signals.sine_mixture(length, [18, 7], [1.0, 0.4], rng)
    envelope = 0.5 + 0.5 * np.abs(signals.sine_wave(length, period=max(length // 4, 40)))
    return walk * envelope + 0.1 * signals.ar1_process(length, rng, phi=0.6, noise_std=0.2)


def _opportunity_base(length: int, rng: np.random.Generator) -> np.ndarray:
    segments = signals.level_steps(length, rng, n_levels=int(rng.integers(4, 8)), step_std=1.0)
    return segments + signals.sine_mixture(length, [25, 11], [0.4, 0.2], rng)


def _ghl_base(length: int, rng: np.random.Generator) -> np.ndarray:
    heating_cycle = signals.square_wave(length, period=max(length // 6, 40), rng=rng, low=-0.5, high=0.8)
    return heating_cycle + signals.ar1_process(length, rng, phi=0.9, noise_std=0.04)


def _genesis_base(length: int, rng: np.random.Generator) -> np.ndarray:
    return signals.square_wave(length, period=max(length // 10, 25), rng=rng, low=0.0, high=1.0, duty=0.4)


def _occupancy_base(length: int, rng: np.random.Generator) -> np.ndarray:
    occupancy = signals.square_wave(length, period=max(length // 5, 50), rng=rng, low=0.0, high=1.0, duty=0.6)
    return occupancy + 0.3 * signals.seasonal_pattern(length, period=max(length // 5, 50), rng=rng)


def _dodgers_base(length: int, rng: np.random.Generator) -> np.ndarray:
    return signals.seasonal_pattern(length, period=max(length // 7, 30), rng=rng, sharpness=4.0) \
        + 0.1 * signals.ar1_process(length, rng, phi=0.5, noise_std=0.3)


FAMILY_CONFIGS: Dict[str, FamilyConfig] = {
    "Dodgers": FamilyConfig("Dodgers", _dodgers_base, ("spike", "level_shift"), noise_std=0.08),
    "ECG": FamilyConfig("ECG", _ecg_base, ("frequency_change", "amplitude_change"), noise_std=0.04,
                        anomaly_length=(24, 60)),
    "IOPS": FamilyConfig("IOPS", _iops_base, ("spike", "level_shift", "noise_burst"), noise_std=0.06),
    "KDD21": FamilyConfig("KDD21", _kdd21_base, ("spike", "pattern_distortion", "level_shift"), noise_std=0.05),
    "MGAB": FamilyConfig("MGAB", _mgab_base, ("pattern_distortion",), noise_std=0.01,
                         anomaly_length=(24, 56), magnitude=1.5),
    "NAB": FamilyConfig("NAB", _nab_base, ("spike", "level_shift", "flatline"), noise_std=0.06),
    "SensorScope": FamilyConfig("SensorScope", _sensorscope_base, ("flatline", "noise_burst", "spike"),
                                noise_std=0.05),
    "YAHOO": FamilyConfig("YAHOO", _yahoo_base, ("spike", "level_shift"), noise_std=0.04,
                          anomaly_length=(8, 24)),
    "Daphnet": FamilyConfig("Daphnet", _daphnet_base, ("flatline", "amplitude_change"), noise_std=0.06,
                            anomaly_length=(24, 64)),
    "GHL": FamilyConfig("GHL", _ghl_base, ("level_shift", "frequency_change"), noise_std=0.04),
    "Genesis": FamilyConfig("Genesis", _genesis_base, ("flatline", "spike"), noise_std=0.03),
    "MITDB": FamilyConfig("MITDB", _mitdb_base, ("frequency_change", "pattern_distortion"), noise_std=0.05,
                          anomaly_length=(24, 60)),
    "OPPORTUNITY": FamilyConfig("OPPORTUNITY", _opportunity_base, ("level_shift", "noise_burst", "flatline"),
                                noise_std=0.06),
    "Occupancy": FamilyConfig("Occupancy", _occupancy_base, ("level_shift", "flatline"), noise_std=0.04),
    "SMD": FamilyConfig("SMD", _smd_base, ("spike", "level_shift", "noise_burst"), noise_std=0.05),
    "SVDB": FamilyConfig("SVDB", _svdb_base, ("frequency_change", "amplitude_change"), noise_std=0.05,
                         anomaly_length=(24, 56)),
}

# Keep the registry aligned with the documented dataset list.
assert set(FAMILY_CONFIGS) == set(DATASET_NAMES)


def generate_series(
    dataset: str,
    index: int,
    length: int,
    seed: int,
    anomaly_free: bool = False,
) -> TimeSeriesRecord:
    """Generate one labelled series of ``dataset`` family.

    The generator is deterministic in (dataset, index, length, seed), which
    lets the oracle cache and the tests rely on reproducible data.
    """
    if dataset not in FAMILY_CONFIGS:
        raise KeyError(f"unknown dataset family {dataset!r}; available: {sorted(FAMILY_CONFIGS)}")
    config = FAMILY_CONFIGS[dataset]
    # Stable across processes (unlike built-in hash()), so cached oracle
    # results and tests see identical data.
    key = f"{dataset}|{index}|{length}|{seed}".encode("utf-8")
    rng = np.random.default_rng(zlib.crc32(key))

    base = config.base(length, rng)
    base = base + rng.normal(0.0, config.noise_std, size=length)

    if anomaly_free:
        n_anomalies = 0
    else:
        n_anomalies = int(rng.integers(config.n_anomalies[0], config.n_anomalies[1] + 1))
    series, labels, spans = inject_anomalies(
        base,
        rng,
        kinds=config.anomaly_kinds,
        n_anomalies=n_anomalies,
        length_range=config.anomaly_length,
        magnitude=config.magnitude,
    )
    return TimeSeriesRecord(
        name=f"{dataset}_{index}",
        dataset=dataset,
        series=series,
        labels=labels,
        anomalies=spans,
    )

