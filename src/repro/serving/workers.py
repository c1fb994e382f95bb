"""Worker abstraction for fan-out work (oracle labelling).

A :class:`WorkerPool` maps a function over a list of items either
sequentially (``max_workers`` 0 or 1, the default 0 — deterministic
execution order, trivially debuggable) or on a pool of forked processes
(``max_workers >= 2``).  Results always come back in input order
regardless of completion order, so callers can treat the two paths
interchangeably.

Forked workers suit oracle labelling, whose payload is largely GIL-bound
Python: the neural detectors (AE / LSTM-AD / CNN) train on small
minibatches, where each NumPy op is cheap next to the Python that issues
it, so threads serialise on the GIL (and lost to sequential execution on a
2-vCPU box, see ``docs/performance.md``).  The pool forks, so children
inherit the parent's memory: the function, the item list and any series
arrays they close over are shared copy-on-write — nothing is pickled on the
way *in*, only results on the way out.  Platforms without ``fork``
(Windows / some macOS configurations) run sequentially.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
import traceback
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class WorkerError(RuntimeError):
    """A forked worker raised; carries the worker-side traceback text.

    Raised as the ``__cause__`` of the original exception (re-raised in the
    parent when it pickles) so both the parent-side call stack and the
    worker-side stack appear in the report.  When the original exception
    cannot cross the process boundary (unpicklable), this error is raised
    alone with the original type name in its message.
    """

    def __init__(self, item_index: int, exc_type: str, worker_traceback: str) -> None:
        super().__init__(
            f"worker failed on item {item_index} with {exc_type}\n"
            f"--- worker traceback ---\n{worker_traceback}")
        self.item_index = item_index
        self.exc_type = exc_type
        self.worker_traceback = worker_traceback

#: payload of an in-flight fork-pool map; children inherit it through fork,
#: so only the integer item index crosses the pipe on the way in.  The lock
#: serialises concurrent maps from different threads — without it, one
#: thread's fork could pick up another thread's payload.
_fork_payload: Optional[Tuple[Callable, Sequence]] = None
_fork_lock = threading.Lock()


def _fork_invoke(index: int):
    # Success and failure both travel as tagged tuples: ``multiprocessing``
    # pickles exceptions without ``__traceback__``, so the worker-side stack
    # must be captured here, as text, before the pipe erases it.
    fn, items = _fork_payload
    try:
        return ("ok", fn(items[index]))
    except Exception as error:
        try:
            payload = pickle.dumps(error)
        except Exception:
            payload = None
        return ("err", index, type(error).__name__, payload, traceback.format_exc())


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerPool:
    """Map work over items: sequentially, or on forked processes."""

    def __init__(self, max_workers: int = 0) -> None:
        if max_workers < 0:
            raise ValueError("max_workers must be >= 0 (0 means sequential)")
        self.max_workers = max_workers

    @property
    def is_parallel(self) -> bool:
        """Whether this pool actually fans out (needs >= 2 workers and fork)."""
        return self.max_workers >= 2 and _fork_available()

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``fn`` to every item, returning results in input order."""
        items = list(items)
        if not self.is_parallel or len(items) <= 1:
            return [fn(item) for item in items]
        return self._map_forked(fn, items, min(self.max_workers, len(items)))

    @staticmethod
    def _map_forked(fn: Callable[[T], R], items: List[T], workers: int) -> List[R]:
        global _fork_payload
        if _fork_payload is not None:
            # This process *is* a forked worker (it inherited an in-flight
            # payload): a nested process fan-out would fork a pool from
            # inside a pool, so run this level inline instead.
            return [fn(item) for item in items]
        with _fork_lock:
            _fork_payload = (fn, items)
            try:
                ctx = multiprocessing.get_context("fork")
                with ctx.Pool(processes=workers) as pool:
                    outcomes = pool.map(_fork_invoke, range(len(items)))
            finally:
                _fork_payload = None
        results: List[R] = []
        for outcome in outcomes:
            if outcome[0] == "ok":
                results.append(outcome[1])
                continue
            _, index, exc_type, payload, worker_tb = outcome
            cause = WorkerError(index, exc_type, worker_tb)
            if payload is not None:
                try:
                    original = pickle.loads(payload)
                except Exception:
                    original = None
                if isinstance(original, Exception):
                    raise original from cause
            raise cause
        return results

    def __repr__(self) -> str:
        mode = f"processes={self.max_workers}" if self.is_parallel else "sequential"
        return f"WorkerPool({mode})"
