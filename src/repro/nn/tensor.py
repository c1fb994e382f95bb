"""Reverse-mode automatic differentiation on top of NumPy arrays.

This module is the foundation of the ``repro.nn`` substrate that replaces
PyTorch in this reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray``
and records the operations applied to it so that :meth:`Tensor.backward`
can propagate gradients through the computation graph.

The design follows the classic "define-by-run" tape approach: every
operation returns a new ``Tensor`` whose ``_backward`` closure knows how to
push its output gradient into the gradients of its inputs.  A topological
sort over the recorded graph drives the backward pass.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..accel.precision import resolve_dtype

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

# Grad tracking is a *thread-local* flag: one worker thread entering
# inference (repro.serving fans detector runs out to threads) must not
# silently disable autograd for another thread that is mid-training.
_grad_state = threading.local()


class no_grad:
    """Context manager that disables gradient tracking in the calling thread.

    Mirrors ``torch.no_grad``.  Inside the context, operations on tensors do
    not build the autograd graph, which makes inference cheaper.
    """

    def __enter__(self) -> "no_grad":
        self._prev = is_grad_enabled()
        _grad_state.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _grad_state.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return True when operations should record gradient information."""
    return getattr(_grad_state, "enabled", True)


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(data, Tensor):
        return data.data
    if dtype is None:
        # The accel precision policy decides the default dtype: float64
        # unless the caller opted into the float32 fast path.
        dtype = resolve_dtype(None)
    arr = np.asarray(data, dtype=dtype)
    return arr


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` so that it matches ``shape`` after a broadcast op.

    NumPy broadcasting can expand dimensions of either operand; the gradient
    of the expanded operand is the sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were of size 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")
    __array_priority__ = 200  # make numpy defer to our __radd__ etc.

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Callable[[], None] = lambda: None
        self._prev: Tuple[Tensor, ...] = _prev if is_grad_enabled() else ()
        self.name = name

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying NumPy array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def _make(self, data: np.ndarray, parents: Sequence["Tensor"]) -> "Tensor":
        req = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=req, _prev=tuple(parents))

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=self.data.dtype)
        self.grad += grad

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        out = self._make(self.data + other.data, (self, other))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        out._backward = _backward
        return out

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        out = self._make(self.data * other.data, (self, other))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        out._backward = _backward
        return out

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(-out.grad)

        out._backward = _backward
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._ensure(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other) + (-self)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self + other

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self * other

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        return self * other ** -1.0

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._ensure(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        out = self._make(self.data ** exponent, (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out._backward = _backward
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        if self.data.ndim == 2 and other.data.ndim == 2 and not is_grad_enabled():
            # Inference runs one single-row product per row: a plain GEMM
            # picks its blocking (hence its summation order) from the row
            # count, so a row's bits would depend on how many rows share
            # the call.  Training keeps the one GEMM per batch.
            data = np.matmul(self.data[:, None, :], other.data)[:, 0, :]
        else:
            data = self.data @ other.data
        out = self._make(data, (self, other))

        def _backward() -> None:
            grad = out.grad
            if self.requires_grad:
                if other.data.ndim == 1:
                    g = np.outer(grad, other.data) if self.data.ndim == 2 else grad[..., None] * other.data
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g.reshape(self.shape) if g.shape != self.shape else g, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    g = np.outer(self.data, grad)
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g if g.shape == other.shape else g.reshape(other.shape), other.shape))

        out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # element-wise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        out = self._make(np.exp(self.data), (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data)

        out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad / self.data)

        out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out = self._make(np.tanh(self.data), (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - out.data ** 2))

        out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make(sig, (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * out.data * (1.0 - out.data))

        out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make(self.data * mask, (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        out._backward = _backward
        return out

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        c = np.sqrt(2.0 / np.pi)
        x = self.data
        inner = c * (x + 0.044715 * x ** 3)
        t = np.tanh(inner)
        out = self._make(0.5 * x * (1.0 + t), (self,))

        def _backward() -> None:
            if self.requires_grad:
                dinner = c * (1.0 + 3 * 0.044715 * x ** 2)
                dt = (1.0 - t ** 2) * dinner
                grad = 0.5 * (1.0 + t) + 0.5 * x * dt
                self._accumulate(out.grad * grad)

        out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        out = self._make(np.abs(self.data), (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * np.sign(self.data))

        out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        clipped = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)
        out = self._make(clipped, (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def _backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                shape = list(out.grad.shape)
                for ax in sorted(a % self.ndim for a in axes):
                    shape.insert(ax, 1)
                grad = grad.reshape(shape)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centred = self - mu
        return (centred * centred).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make(out_data, (self,))

        def _backward() -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            expanded = out_data
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                shape = list(np.asarray(out_data).shape)
                for ax in sorted(a % self.ndim for a in axes):
                    shape.insert(ax, 1)
                grad = grad.reshape(shape)
                expanded = np.asarray(out_data).reshape(shape)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient evenly among ties to keep the op well defined.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * grad / np.maximum(counts, 1.0))

        out._backward = _backward
        return out

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -(-self).max(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,))

        def _backward() -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.shape))

        out._backward = _backward
        return out

    def flatten(self, start_dim: int = 1) -> "Tensor":
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        out = self._make(np.transpose(self.data, axes), (self,))

        def _backward() -> None:
            if self.requires_grad:
                if axes is None:
                    self._accumulate(np.transpose(out.grad))
                else:
                    inverse = np.argsort(axes)
                    self._accumulate(np.transpose(out.grad, inverse))

        out._backward = _backward
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(axes)

    def __getitem__(self, index) -> "Tensor":
        out = self._make(self.data[index], (self,))

        def _backward() -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data, dtype=self.data.dtype)
                np.add.at(grad, index, out.grad)
                self._accumulate(grad)

        out._backward = _backward
        return out

    def pad1d(self, left: int, right: int) -> "Tensor":
        """Zero-pad the last axis by ``left`` and ``right`` elements."""
        pad_width = [(0, 0)] * (self.ndim - 1) + [(left, right)]
        out = self._make(np.pad(self.data, pad_width), (self,))

        def _backward() -> None:
            if self.requires_grad:
                sl = [slice(None)] * (self.ndim - 1) + [slice(left, left + self.shape[-1])]
                self._accumulate(out.grad[tuple(sl)])

        out._backward = _backward
        return out

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones (appropriate for scalar losses).
        """
        if grad is None:
            grad = np.ones_like(self.data, dtype=self.data.dtype)
        self.grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(topo):
            if node.grad is not None:
                node._backward()


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    req = any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=req, _prev=tuple(tensors))

    def _backward() -> None:
        offset = 0
        for t in tensors:
            size = t.shape[axis]
            sl = [slice(None)] * data.ndim
            sl[axis] = slice(offset, offset + size)
            if t.requires_grad:
                t._accumulate(out.grad[tuple(sl)])
            offset += size

    out._backward = _backward
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    req = any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=req, _prev=tuple(tensors))

    def _backward() -> None:
        grads = np.split(out.grad, len(tensors), axis=axis)
        for t, g in zip(tensors, grads):
            if t.requires_grad:
                t._accumulate(np.squeeze(g, axis=axis))

    out._backward = _backward
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Element-wise select with gradient support (condition is constant)."""
    a = Tensor._ensure(a)
    b = Tensor._ensure(b)
    cond = np.asarray(condition, dtype=bool)
    out = Tensor(np.where(cond, a.data, b.data), requires_grad=a.requires_grad or b.requires_grad, _prev=(a, b))

    def _backward() -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(out.grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(out.grad * (~cond), b.shape))

    out._backward = _backward
    return out
