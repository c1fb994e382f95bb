"""Neural-network layers used by the selector architectures.

All layers operate on :class:`repro.nn.tensor.Tensor`.  Time-series tensors
use the (batch, channels, length) layout, matching PyTorch's ``Conv1d``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features)))
        self.bias = Parameter(init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class Conv1d(Module):
    """1-D convolution over (N, C, L) inputs."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        dilation: int = 1,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.weight = Parameter(init.kaiming_uniform((out_channels, in_channels, kernel_size)))
        self.bias = Parameter(init.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv1d(
            x, self.weight, self.bias,
            stride=self.stride, padding=self.padding, dilation=self.dilation,
        )

    def __repr__(self) -> str:
        return (
            f"Conv1d({self.in_channels}, {self.out_channels}, kernel_size={self.kernel_size}, "
            f"padding={self.padding})"
        )


class BatchNorm1d(Module):
    """Batch normalisation over (N, C, L) or (N, C) inputs.

    Runs as one :func:`~repro.nn.functional.batch_norm` node in both
    modes; training updates the running statistics.
    """

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones(num_features))
        self.bias = Parameter(init.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        out, running_mean, running_var = F.batch_norm(
            x, self.weight, self.bias, self._buffers["running_mean"], self._buffers["running_var"],
            self.training, self.momentum, self.eps)
        if self.training:
            self.update_buffer("running_mean", running_mean)
            self.update_buffer("running_var", running_var)
        return out


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.weight = Parameter(init.ones(normalized_shape))
        self.bias = Parameter(init.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normed = (x - mean) / (var + self.eps) ** 0.5
        return normed * self.weight + self.bias


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Dropout(Module):
    """Inverted dropout; a seeded generator keeps training runs reproducible."""

    def __init__(self, p: float = 0.5, seed: Optional[int] = None) -> None:
        super().__init__()
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, rng=self._rng)


class MultiHeadSelfAttention(Module):
    """Scaled dot-product self-attention over (N, T, D) inputs."""

    def __init__(self, embed_dim: int, num_heads: int, dropout: float = 0.0, seed: Optional[int] = None) -> None:
        super().__init__()
        if embed_dim % num_heads != 0:
            raise ValueError(f"embed_dim ({embed_dim}) must be divisible by num_heads ({num_heads})")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.q_proj = Linear(embed_dim, embed_dim)
        self.k_proj = Linear(embed_dim, embed_dim)
        self.v_proj = Linear(embed_dim, embed_dim)
        self.out_proj = Linear(embed_dim, embed_dim)
        self.dropout = Dropout(dropout, seed=seed)

    def forward(self, x: Tensor) -> Tensor:
        n, t, d = x.shape
        q = self._split_heads(self.q_proj(x), n, t)
        k = self._split_heads(self.k_proj(x), n, t)
        v = self._split_heads(self.v_proj(x), n, t)

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = q.matmul(k.swapaxes(-1, -2)) * scale  # (N, H, T, T)
        attn = F.softmax(scores, axis=-1)
        attn = self.dropout(attn)
        context = attn.matmul(v)  # (N, H, T, hd)
        merged = context.swapaxes(1, 2).reshape(n, t, d)
        return self.out_proj(merged)

    def _split_heads(self, x: Tensor, n: int, t: int) -> Tensor:
        return x.reshape(n, t, self.num_heads, self.head_dim).swapaxes(1, 2)


class TransformerEncoderLayer(Module):
    """Pre-norm transformer encoder block (attention + MLP)."""

    def __init__(
        self,
        embed_dim: int,
        num_heads: int,
        mlp_ratio: float = 2.0,
        dropout: float = 0.1,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        hidden = int(embed_dim * mlp_ratio)
        self.norm1 = LayerNorm(embed_dim)
        self.attn = MultiHeadSelfAttention(embed_dim, num_heads, dropout=dropout, seed=seed)
        self.norm2 = LayerNorm(embed_dim)
        self.fc1 = Linear(embed_dim, hidden)
        self.fc2 = Linear(hidden, embed_dim)
        self.dropout = Dropout(dropout, seed=None if seed is None else seed + 1)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.norm1(x))
        h = self.fc2(self.dropout(self.fc1(self.norm2(x)).gelu()))
        return x + h


class LSTMCell(Module):
    """A single LSTM cell; gradients flow through the autodiff graph.

    :class:`LSTM` runs its sequence as one :func:`~repro.nn.functional.lstm`
    node; this cell, unrolled step by step, is the reference that node
    must match bit for bit.
    """

    def __init__(self, input_size: int, hidden_size: int) -> None:
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((4 * hidden_size, input_size)))
        self.weight_hh = Parameter(init.xavier_uniform((4 * hidden_size, hidden_size)))
        self.bias = Parameter(init.zeros(4 * hidden_size))

    def forward(self, x: Tensor, state: tuple[Tensor, Tensor]) -> tuple[Tensor, Tensor]:
        h, c = state
        gates = F.linear(x, self.weight_ih) + F.linear(h, self.weight_hh) + self.bias
        hs = self.hidden_size
        i = gates[:, 0 * hs:1 * hs].sigmoid()
        f = gates[:, 1 * hs:2 * hs].sigmoid()
        g = gates[:, 2 * hs:3 * hs].tanh()
        o = gates[:, 3 * hs:4 * hs].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new


class LSTM(Module):
    """Unidirectional single-layer LSTM over (N, T, D) sequences.

    The parameters live in ``cell`` (state-dict keys ``cell.weight_ih``,
    ``cell.weight_hh``, ``cell.bias``); the sequence runs as one fused
    :func:`~repro.nn.functional.lstm` node.
    """

    def __init__(self, input_size: int, hidden_size: int) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.cell = LSTMCell(input_size, hidden_size)

    def forward(self, x: Tensor) -> Tensor:
        return F.lstm(x, self.cell.weight_ih, self.cell.weight_hh, self.cell.bias)


class PositionalEncoding(Module):
    """Fixed sinusoidal positional encoding added to (N, T, D) inputs."""

    def __init__(self, embed_dim: int, max_len: int = 4096) -> None:
        super().__init__()
        position = np.arange(max_len)[:, None]
        div = np.exp(np.arange(0, embed_dim, 2) * (-np.log(10000.0) / embed_dim))
        pe = np.zeros((max_len, embed_dim))
        pe[:, 0::2] = np.sin(position * div)
        pe[:, 1::2] = np.cos(position * div[: (embed_dim + 1) // 2][: pe[:, 1::2].shape[1]])
        self.register_buffer("pe", pe)

    def forward(self, x: Tensor) -> Tensor:
        _, t, _ = x.shape
        return x + Tensor(self._buffers["pe"][:t][None, :, :])
