"""Operation timing that cancels the machine's speed swings.

On a shared virtual machine the same computation can run 1.7x slower for
tens of seconds at a time, and CPU time moves with wall time, so neither
clock makes two runs comparable.  The benchmark therefore also times a
fixed *reference computation* (benchmark code, never program code) just
before every operation, and reports each operation in *reference units*:
its wall time divided by the reference's wall time at that moment.  A
change to the program moves the numerator only; a slow phase of the
machine moves both.  Wall times are kept next to them for reading.

This needs many short operations, each with its own reference sample.  A
single long operation (a selector's training) is timed in wall seconds:
a few samples at its ends do not tell what the machine did in between.

Set-up time is reported in seconds, corrected the same way: each set-up
is timed between reference samples, divided by their median and
multiplied by the reference's nominal duration (``NOMINAL_S``).
"""

from __future__ import annotations

import gc
import time
from typing import Callable, List, Tuple

import numpy as np

clock = time.perf_counter

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((96, 96))
_VECTOR = _rng.standard_normal(4096)
_LIST = list(range(2000))
#: an im2col matrix of 33 windows x 96 steps and a 12-filter bank
_COLUMNS = _rng.standard_normal((33 * 96, 96))
_FILTERS = _rng.standard_normal((96, 12))

#: each operation is divided by the median of the reference samples taken
#: before it and before this many neighbours on each side
NEIGHBOURS = 2


# The machine does not slow every kind of code alike: code whose working
# set sits in the core's private caches (the interpreter, small arrays)
# slows most.  Each workload therefore uses the reference that resembles
# what its operations spend their time on.  Over 5 s blocks of a noisy
# stretch on a 2-vCPU shared VM, the matching reference cut the
# block-to-block variation (coefficient of variation) of a teacher forward
# from 0.088 to 0.036, where the other reference left 0.068.  A stream tick
# runs both kinds of code and each reference alone misled it at times: in
# one noisy stretch the mixed one cut a tick's variation from 0.163 to
# 0.048 (conv: 0.082), yet over five quiet runs of one seed it moved the
# median tick by 25 % while raw wall time moved 7 % (conv: 9 %).  Ticks
# therefore use both.


def mixed_reference() -> float:
    """Interpreter, small numpy calls and small GEMMs: detectors."""
    acc = 0.0
    for k in range(60):
        acc += sum(_LIST[k::7])
        acc += float(np.sort(_VECTOR[k:k + 1024])[512])
        acc += float((_MATRIX @ _MATRIX)[k % 96, 0])
    return acc


def conv_reference() -> float:
    """im2col-shaped GEMMs and a ReLU, as a small conv net's forward: serving."""
    acc = 0.0
    for _ in range(5):
        acc += float(np.maximum(_COLUMNS @ _FILTERS, 0.0).sum())
    return acc


def blended_reference() -> float:
    """Both of the above, as a stream tick runs a conv net and detectors."""
    return mixed_reference() + conv_reference()


#: median wall time of each reference over a minute on the 2-vCPU x86-64
#: VM the benchmark was tuned on: the unit of the corrected set-up seconds
NOMINAL_S = {mixed_reference: 2.2e-3, conv_reference: 3.1e-3, blended_reference: 5.3e-3}

#: reference samples taken before and after each set-up
SETUP_REFERENCE_SAMPLES = 3


def reference_s(reference: Callable[[], float]) -> float:
    """Wall time of one reference computation (2-3 ms).

    The collector is paused so that a collection of the program's garbage
    cannot land inside the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        reference()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def timed_setup(fn: Callable[[], object],
                reference: Callable[[], float]) -> Tuple[object, float, float]:
    """``(fn(), wall s, corrected s)`` of one set-up.

    The corrected time is the wall time over the median of the reference
    samples taken just before and just after ``fn``, in units of the
    reference's ``NOMINAL_S``: the set-up's duration on the nominal machine
    at its usual speed.
    """
    refs = [reference_s(reference) for _ in range(SETUP_REFERENCE_SAMPLES)]
    t0 = clock()
    out = fn()
    wall = clock() - t0
    refs += [reference_s(reference) for _ in range(SETUP_REFERENCE_SAMPLES)]
    return out, wall, wall / float(np.median(refs)) * NOMINAL_S[reference]


class OpTimer:
    """Wall time of each operation, plus the reference time measured before it."""

    def __init__(self, reference: Callable[[], float]) -> None:
        self.reference = reference
        self.wall: List[float] = []
        self.refs: List[float] = []

    def __call__(self, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one timed operation (also when it raises)."""
        self.refs.append(reference_s(self.reference))
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall.append(clock() - t0)

    def in_reference_units(self) -> np.ndarray:
        """Each operation's wall time over the local median reference time."""
        refs = np.asarray(self.refs)
        local = np.array([np.median(refs[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1])
                          for i in range(len(refs))])
        return np.asarray(self.wall) / local


def tail_percentile(samples) -> Tuple[int, float]:
    """``(p, value)``: the highest whole percentile with >= 10 samples beyond."""
    n = len(samples)
    p = int(np.floor(100.0 * (n - 10) / n)) if n > 10 else 50
    p = max(p, 50)
    return p, float(np.percentile(samples, p))
