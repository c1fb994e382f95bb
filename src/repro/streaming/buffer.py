"""Append-only stream storage with incremental window extraction.

A live series grows one tick at a time, but the selector consumes complete
fixed-length windows.  :class:`StreamBuffer` owns that boundary: it stores
the raw points of one stream (amortised-O(1) append into a doubling array)
and, when asked, yields exactly the windows that became complete since it
was last asked — via :func:`repro.data.windows.extract_new_windows`, so the
emitted rows are bitwise identical to what batch extraction over the final
series would produce.  A partial tail (fewer than ``window`` unconsumed
points past the last complete window) simply stays pending until enough
points arrive; no padded pseudo-window is ever emitted.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..data.windows import extract_new_windows, resolve_stride


class GrowingArray:
    """A float64 array with amortised-O(1) append (doubling capacity).

    It holds points (1-D) by default, or rows of ``row_width`` columns.
    """

    def __init__(self, initial_capacity: int = 1024,
                 row_width: Optional[int] = None) -> None:
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        row_shape = () if row_width is None else (row_width,)
        self._data = np.empty((initial_capacity,) + row_shape, dtype=np.float64)
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def append(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if self._data.ndim == 1:
            values = values.ravel()
        needed = self._length + len(values)
        if needed > len(self._data):
            capacity = len(self._data)
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity,) + self._data.shape[1:], dtype=np.float64)
            grown[: self._length] = self._data[: self._length]
            self._data = grown
        self._data[self._length:needed] = values
        self._length = needed

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the filled prefix (no copy)."""
        view = self._data[: self._length]
        view.flags.writeable = False
        return view


class StreamBuffer:
    """One live stream: raw points in, newly complete selector windows out.

    The buffer normally owns its storage (a :class:`GrowingArray`), but a
    stream whose points already live elsewhere — e.g. a shared-memory
    segment written by a service front end — can instead :meth:`attach` a
    read-only view of that external series.  Window extraction is storage
    agnostic, so attached streams produce bitwise-identical windows with
    zero copies on the handoff.
    """

    def __init__(self, window: int, stride: Optional[int] = None) -> None:
        self.stride = resolve_stride(window, stride)
        self.window = window
        self._points = GrowingArray(max(1024, 2 * window))
        self._external: Optional[np.ndarray] = None
        self._n_emitted = 0

    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Number of points received so far."""
        if self._external is not None:
            return len(self._external)
        return len(self._points)

    @property
    def series(self) -> np.ndarray:
        """The full series received so far (read-only view)."""
        if self._external is not None:
            return self._external
        return self._points.values

    @property
    def n_windows(self) -> int:
        """Number of complete windows emitted so far."""
        return self._n_emitted

    # ------------------------------------------------------------------ #
    def extend(self, values: np.ndarray) -> None:
        """Append points without emitting (the engine's staging step)."""
        if self._external is not None:
            raise ValueError("buffer is attached to external storage; "
                             "grow the external series and re-attach instead")
        self._points.append(values)

    def attach(self, series: np.ndarray) -> None:
        """Adopt an externally stored series prefix (zero-copy).

        ``series`` must be the same stream the buffer has seen so far plus
        any newly arrived points — i.e. at least as long as :attr:`length`;
        the caller guarantees the shared prefix is unchanged (an append-only
        store such as a shared-memory segment satisfies this by
        construction).  After attaching, new points arrive by attaching a
        longer view; :meth:`extend` is disabled.
        """
        series = np.asarray(series)
        if series.dtype != np.float64 or series.ndim != 1:
            raise ValueError("attached series must be a 1-D float64 array")
        if len(series) < self.length:
            raise ValueError(
                f"attached series is shorter than the stream so far "
                f"({len(series)} < {self.length}); streams are append-only")
        view = series.view()
        view.flags.writeable = False
        self._external = view

    def take_new_windows(self) -> np.ndarray:
        """Emit every window that became complete since the last call.

        Returns a (k, window) matrix (k may be 0).  The rows are bitwise
        identical to rows ``n_windows:`` of ``extract_windows`` over the
        current series, and each window is emitted exactly once over the
        stream's lifetime.
        """
        windows = extract_new_windows(self.series, self.window, self._n_emitted,
                                      stride=self.stride)
        self._n_emitted += len(windows)
        return windows

    def __repr__(self) -> str:
        return (f"StreamBuffer(length={self.length}, windows={self.n_windows}, "
                f"window={self.window}, stride={self.stride})")
