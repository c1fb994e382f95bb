"""Reverse-mode automatic differentiation on top of NumPy arrays.

This module is the foundation of the ``repro.nn`` substrate that replaces
PyTorch in this reproduction.  A :class:`Tensor` wraps a ``numpy.ndarray``
and records the operations applied to it so that :meth:`Tensor.backward`
can propagate gradients through the computation graph.

The design follows the classic "define-by-run" tape approach: every
operation builds its output with :func:`_node`, handing it one
vector-Jacobian product (VJP) per parent, which maps the output's gradient
to that parent's gradient.  No VJP refers to the output tensor, so the
recorded graph is a DAG that reference counting frees as soon as its last
tensor goes.  :meth:`Tensor.backward` walks it in reverse topological
order; it is the only code that accumulates gradients.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..accel.precision import resolve_dtype

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]
VJP = Callable[[np.ndarray], np.ndarray]

# Grad tracking is a *thread-local* flag: one thread entering inference
# (shard connection threads, the TCP front end's executor and callers' own
# threads run NN code) must not silently disable autograd for another
# thread that is mid-training.
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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as :meth:`Tensor.matmul` computes it.

    Inference runs one single-row product per row of a 2-D ``a``: a plain
    GEMM picks its blocking (hence its summation order) from the row
    count, so a row's bits would depend on how many rows share the call.
    Training keeps the one GEMM per batch.
    """
    if a.ndim == 2 and b.ndim == 2 and not is_grad_enabled():
        return np.matmul(a[:, None, :], b)[:, 0, :]
    return a @ b


def _node(data: np.ndarray, parents: Tuple["Tensor", ...], *vjps: VJP) -> "Tensor":
    """The output of an op on ``parents``: ``vjps[i]`` maps its gradient to
    ``parents[i]``'s.

    The graph is recorded only when gradients are on and some parent
    requires one; otherwise the output is a constant tensor.
    """
    out = Tensor(data)
    if is_grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = parents
        out._vjps = vjps
    return out


class Tensor:
    """A NumPy-backed tensor with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_vjps", "name")
    __array_priority__ = 200  # make numpy defer to our __radd__ etc.

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._prev: Tuple[Tensor, ...] = ()
        self._vjps: Tuple[VJP, ...] = ()
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

    @staticmethod
    def _ensure(other: ArrayLike) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        return _node(self.data + other.data, (self, other),
                     lambda g: _unbroadcast(g, self.shape),
                     lambda g: _unbroadcast(g, other.shape))

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        return _node(self.data * other.data, (self, other),
                     lambda g: _unbroadcast(g * other.data, self.shape),
                     lambda g: _unbroadcast(g * self.data, other.shape))

    def __neg__(self) -> "Tensor":
        return _node(-self.data, (self,), lambda g: -g)

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
        return _node(self.data ** exponent, (self,),
                     lambda g: g * exponent * self.data ** (exponent - 1))

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        data = _matmul(self.data, other.data)

        def vjp_self(grad: np.ndarray) -> np.ndarray:
            if other.data.ndim == 1:
                g = np.outer(grad, other.data) if self.data.ndim == 2 else grad[..., None] * other.data
            else:
                g = grad @ np.swapaxes(other.data, -1, -2)
            return _unbroadcast(g.reshape(self.shape) if g.shape != self.shape else g, self.shape)

        def vjp_other(grad: np.ndarray) -> np.ndarray:
            if self.data.ndim == 1:
                g = np.outer(self.data, grad)
            else:
                g = np.swapaxes(self.data, -1, -2) @ grad
            return _unbroadcast(g if g.shape == other.shape else g.reshape(other.shape), other.shape)

        return _node(data, (self, other), vjp_self, vjp_other)

    # ------------------------------------------------------------------ #
    # element-wise non-linearities
    # ------------------------------------------------------------------ #
    # exp, tanh and sigmoid differentiate through their output, so their
    # VJPs close over the output array (as stored, after the dtype policy).
    def exp(self) -> "Tensor":
        y = _as_array(np.exp(self.data))
        return _node(y, (self,), lambda g: g * y)

    def log(self) -> "Tensor":
        return _node(np.log(self.data), (self,), lambda g: g / self.data)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        y = _as_array(np.tanh(self.data))
        return _node(y, (self,), lambda g: g * (1.0 - y ** 2))

    def sigmoid(self) -> "Tensor":
        sig = _as_array(1.0 / (1.0 + np.exp(-self.data)))
        return _node(sig, (self,), lambda g: g * sig * (1.0 - sig))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return _node(self.data * mask, (self,), lambda g: g * mask)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        c = np.sqrt(2.0 / np.pi)
        x = self.data
        inner = c * (x + 0.044715 * x ** 3)
        t = np.tanh(inner)

        def vjp(g: np.ndarray) -> np.ndarray:
            dinner = c * (1.0 + 3 * 0.044715 * x ** 2)
            dt = (1.0 - t ** 2) * dinner
            return g * (0.5 * (1.0 + t) + 0.5 * x * dt)

        return _node(0.5 * x * (1.0 + t), (self,), vjp)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def _expand_reduced(self, grad: np.ndarray, axis) -> np.ndarray:
        """Re-insert the axes a ``keepdims=False`` reduction removed."""
        axes = axis if isinstance(axis, tuple) else (axis,)
        shape = list(grad.shape)
        for ax in sorted(a % self.ndim for a in axes):
            shape.insert(ax, 1)
        return grad.reshape(shape)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def vjp(grad: np.ndarray) -> np.ndarray:
            if axis is not None and not keepdims:
                grad = self._expand_reduced(grad, axis)
            return np.broadcast_to(grad, self.shape).copy()

        return _node(self.data.sum(axis=axis, keepdims=keepdims), (self,), vjp)

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

        def vjp(grad: np.ndarray) -> np.ndarray:
            expanded = out_data
            if axis is not None and not keepdims:
                grad = self._expand_reduced(grad, axis)
                expanded = self._expand_reduced(np.asarray(out_data), axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient evenly among ties to keep the op well defined.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return mask * grad / np.maximum(counts, 1.0)

        return _node(out_data, (self,), vjp)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _node(self.data.reshape(shape), (self,), lambda g: g.reshape(self.shape))

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        return _node(np.transpose(self.data, axes), (self,),
                     lambda g: np.transpose(g, None if axes is None else np.argsort(axes)))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(axes)

    def __getitem__(self, index) -> "Tensor":
        def vjp(g: np.ndarray) -> np.ndarray:
            grad = np.zeros_like(self.data, dtype=self.data.dtype)
            np.add.at(grad, index, g)
            return grad

        return _node(self.data[index], (self,), vjp)

    def pad1d(self, left: int, right: int) -> "Tensor":
        """Zero-pad the last axis by ``left`` and ``right`` elements."""
        length = self.shape[-1]
        data = np.zeros(self.shape[:-1] + (left + length + right,), dtype=self.dtype)
        data[..., left:left + length] = self.data
        return _node(data, (self,), lambda g: g[..., left:left + length])

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # A fresh array in the node's dtype, never one a VJP returned
            # (some return views of their input); adding to 0.0 stores a
            # -0.0 as +0.0, as summing into zeros did.
            self.grad = np.add(0.0, grad, out=np.empty_like(self.data))
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        In reverse topological order, each interior node's gradient goes
        through the node's VJPs into the parents that require one, and is
        then dropped (as PyTorch leaves a non-leaf ``.grad`` empty).  Leaf
        gradients accumulate, so a second ``backward`` over the same graph
        adds to them; the graph itself stays until its tensors go.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ones (appropriate for scalar losses).
        """
        self._accumulate(np.ones_like(self.data) if grad is None else np.asarray(grad))

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
            if node._prev:
                out_grad, node.grad = node.grad, None
                for parent, vjp in zip(node._prev, node._vjps):
                    if parent.requires_grad:
                        parent._accumulate(vjp(out_grad))


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = tuple(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    index = [slice(None)] * data.ndim
    vjps = []
    offset = 0
    for t in tensors:
        index[axis] = slice(offset, offset + t.shape[axis])
        vjps.append(lambda g, piece=tuple(index): g[piece])
        offset += t.shape[axis]
    return _node(data, tensors, *vjps)
