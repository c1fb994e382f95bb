"""Weight initialisation helpers for the NumPy NN substrate."""

from __future__ import annotations

import threading

import numpy as np

from ..accel.precision import resolve_dtype

# The initialisation RNG is thread-local: threads that run NN code (shard
# connection threads, the TCP front end's executor, callers' own threads)
# each get their own stream, so a set_seed() in one thread cannot corrupt
# the draws of another.  Every thread starts from seed 0, matching the old
# module-global default.
_rng_store = threading.local()


def set_seed(seed: int) -> None:
    """Reset the calling thread's RNG used for parameter initialisation."""
    _rng_store.rng = np.random.default_rng(seed)


def get_rng() -> np.random.Generator:
    """Return the calling thread's RNG used for parameter initialisation."""
    rng = getattr(_rng_store, "rng", None)
    if rng is None:
        rng = np.random.default_rng(0)
        _rng_store.rng = rng
    return rng


def xavier_uniform(shape, gain: float = 1.0, rng: np.random.Generator | None = None) -> np.ndarray:
    """Glorot / Xavier uniform initialisation."""
    rng = rng or get_rng()
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(resolve_dtype(None), copy=False)


def kaiming_uniform(shape, rng: np.random.Generator | None = None) -> np.ndarray:
    """He / Kaiming uniform initialisation (ReLU gain)."""
    rng = rng or get_rng()
    fan_in, _ = _fans(shape)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(resolve_dtype(None), copy=False)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=resolve_dtype(None))


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=resolve_dtype(None))


def _fans(shape) -> tuple[int, int]:
    shape = tuple(shape)
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    # Convolution weights: (C_out, C_in, K)
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
