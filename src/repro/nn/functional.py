"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

These mirror the subset of ``torch.nn.functional`` that the selector
architectures (ConvNet / ResNet / InceptionTime / Transformer) and the
KDSelector losses need: 1-D convolution, softmax/log-softmax, dropout,
the affine map and cosine similarity.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .init import get_rng
from .tensor import Tensor, _node


def _im2col_1d(x: np.ndarray, kernel_size: int, stride: int, dilation: int) -> Tuple[np.ndarray, int]:
    """Unfold (N, C, L) into columns of shape (N, C * k, L_out)."""
    n, c, length = x.shape
    span = (kernel_size - 1) * dilation + 1
    l_out = (length - span) // stride + 1
    if l_out <= 0:
        raise ValueError(
            f"conv1d output length would be {l_out} (input length {length}, kernel {kernel_size}, "
            f"dilation {dilation})"
        )
    # idx: (K, L_out) so the gather directly yields (N, C, K, L_out) — the
    # reshape below is then a free view instead of a strided copy, which is
    # what makes large serving batches affordable.
    idx = np.arange(kernel_size)[:, None] * dilation + np.arange(l_out)[None, :] * stride
    cols = x[:, :, idx].reshape(n, c * kernel_size, l_out)
    return cols, l_out


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    dilation: int = 1,
) -> Tensor:
    """1-D convolution over an input of shape (N, C_in, L).

    ``weight`` has shape (C_out, C_in, K); ``bias`` has shape (C_out,).
    Implemented with im2col + matmul, with a hand-written backward pass for
    speed (building the unfold out of primitive autograd ops would be far
    slower for long series).
    """
    if padding:
        x = x.pad1d(padding, padding)

    n, c_in, _ = x.shape
    c_out, c_in_w, kernel_size = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"conv1d channel mismatch: input has {c_in}, weight expects {c_in_w}")

    cols, l_out = _im2col_1d(x.data, kernel_size, stride, dilation)
    w2d = weight.data.reshape(c_out, c_in * kernel_size)
    # (O, CK) @ (N, CK, L) -> (N, O, L): a batched GEMM; matmul broadcasting
    # beats the equivalent einsum by avoiding its per-call path search.
    out_data = np.matmul(w2d, cols)
    if bias is not None:
        out_data = out_data + bias.data[None, :, None]

    # Each VJP takes the output gradient, shape (N, C_out, L_out).
    def vjp_x(grad: np.ndarray) -> np.ndarray:
        gcols = np.einsum("ok,nol->nkl", w2d, grad, optimize=True)  # (N, C*K, L_out)
        gcols = gcols.reshape(n, c_in, kernel_size, l_out).transpose(0, 1, 3, 2)  # (N, C, L_out, K)
        gx = np.zeros_like(x.data)
        idx = np.arange(kernel_size)[None, :] * dilation + np.arange(l_out)[:, None] * stride
        np.add.at(gx, (slice(None), slice(None), idx), gcols)
        return gx

    def vjp_weight(grad: np.ndarray) -> np.ndarray:
        return np.einsum("nol,nkl->ok", grad, cols, optimize=True).reshape(weight.shape)

    if bias is None:
        return _node(out_data, (x, weight), vjp_x, vjp_weight)
    return _node(out_data, (x, weight, bias), vjp_x, vjp_weight, lambda g: g.sum(axis=(0, 2)))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: scales kept activations by 1/(1-p) during training.

    Without an explicit ``rng`` the mask is drawn from the thread-local
    initialisation RNG (:func:`repro.nn.init.get_rng`), the same seeded
    stream every other random draw in the substrate uses — an unseeded
    fallback here would silently break run-to-run reproducibility.
    """
    if not training or p <= 0.0:
        return x
    if rng is None:
        rng = get_rng()
    mask = (rng.random(x.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for 2-D or 3-D inputs."""
    if x.ndim == 3:
        n, t, d = x.shape
        flat = x.reshape(n * t, d)
        out = flat.matmul(weight.transpose())
        if bias is not None:
            out = out + bias
        return out.reshape(n, t, weight.shape[0])
    out = x.matmul(weight.transpose())
    if bias is not None:
        out = out + bias
    return out


def cosine_similarity_matrix(a: Tensor, b: Tensor, eps: float = 1e-8) -> Tensor:
    """Pairwise cosine similarity between rows of ``a`` and rows of ``b``."""
    a_norm = (a * a).sum(axis=1, keepdims=True).sqrt() + eps
    b_norm = (b * b).sum(axis=1, keepdims=True).sqrt() + eps
    a_unit = a / a_norm
    b_unit = b / b_norm
    return a_unit.matmul(b_unit.transpose())
