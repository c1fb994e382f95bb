"""Int8 quantized inference kernels for the serving fast path.

Quantization scheme (the production-standard symmetric recipe):

* **weights** — symmetric per-channel: each output row ``c`` of a weight
  matrix gets its own scale ``s_c = max|W_c| / 127`` and is stored as an
  ``int8`` buffer ``q_c = round(W_c / s_c)``,
* **activations** — symmetric per-tensor: one scale calibrated offline
  from held-out windows (:func:`calibrate_activation_scale`), so the
  quantization of a row never depends on which batch it arrived in —
  quantized outputs are batch-composition independent by construction.

The integer accumulation runs as a float32 GEMM: sums of int8×int8
products are exactly representable in float32 while
``in_features * 127 * 127 < 2**24``, which buys BLAS speed with bit-exact
integer semantics.  Wider layers fall back to an ``int32`` matmul (slower
but exact for any width that fits 31 bits).

:class:`QuantizedLinear` and :class:`QuantizedConv1d` are buffers-only
(no :class:`Parameter`): they cannot be trained, round-trip through
:mod:`repro.nn.serialization` with their ``int8`` payload intact, and are
built empty, then filled by ``load_weights`` (quantizing float weights) or
``load_state``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .module import Module
from .tensor import Tensor

#: symmetric int8 uses the levels [-127, 127] (the -128 code is unused so
#: that negation stays exact)
INT8_LEVELS = 127

#: float32 holds integers exactly up to 2**24; accumulating ``in_features``
#: products bounded by 127*127 stays exact strictly below this
_EXACT_F32_ACC_LIMIT = 2 ** 24


def quantize_weight_per_channel(weight: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-channel int8 quantization of a ``(out, in)`` matrix.

    Returns ``(q, scale)`` with ``q`` int8 and ``scale`` float64 of shape
    ``(out,)``; all-zero rows get scale 1.0 so dequantization is always
    well defined.  The per-element round-trip error is bounded by
    ``scale[c] / 2`` (round-half-to-even on ``W / scale``).
    """
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2:
        raise ValueError(f"expected a 2-D weight matrix, got shape {weight.shape}")
    absmax = np.abs(weight).max(axis=1)
    scale = np.where(absmax > 0.0, absmax / INT8_LEVELS, 1.0)
    q = np.clip(np.rint(weight / scale[:, None]), -INT8_LEVELS, INT8_LEVELS)
    return q.astype(np.int8), scale


def calibrate_activation_scale(samples: Union[np.ndarray, Iterable[np.ndarray]]) -> float:
    """Per-tensor symmetric activation scale from calibration activations.

    ``samples`` is one activation matrix or an iterable of them (held-out
    calibration windows pushed through the float model).  Deterministic:
    the scale is ``max|x| / 127`` over everything seen, or 1.0 when the
    calibration set is empty/all-zero.
    """
    if isinstance(samples, np.ndarray):
        samples = (samples,)
    absmax = 0.0
    for sample in samples:
        sample = np.asarray(sample, dtype=np.float64)
        if sample.size:
            absmax = max(absmax, float(np.abs(sample).max()))
    return absmax / INT8_LEVELS if absmax > 0.0 else 1.0


def quantize_activations(x: np.ndarray, scale: float) -> np.ndarray:
    """Clip-and-round activations to integer levels (kept in float64)."""
    return np.clip(np.rint(x / scale), -INT8_LEVELS, INT8_LEVELS)


class QuantizedLinear(Module):
    """Int8 inference-only replacement for :class:`repro.nn.Linear`.

    State is four buffers — ``weight_q`` (int8, per-channel symmetric),
    ``weight_scale`` (float64 per channel), ``act_scale`` (float64 scalar,
    calibrated per tensor) and ``bias`` (float64) — so serialization and
    the selector store round-trip the quantized payload without touching
    the float path.
    """

    def __init__(self, in_features: int, out_features: int) -> None:
        super().__init__()
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.register_buffer("weight_q", np.zeros((out_features, in_features), dtype=np.int8))
        self.register_buffer("weight_scale", np.ones(out_features, dtype=np.float64))
        self.register_buffer("act_scale", np.ones(1, dtype=np.float64))
        self.register_buffer("bias", np.zeros(out_features, dtype=np.float64))

    # ------------------------------------------------------------------ #
    def load_weights(self, weight: np.ndarray, bias: Optional[np.ndarray],
                     act_scale: float) -> None:
        """(Re-)quantize float ``(out, in)`` weights in place."""
        q, scale = quantize_weight_per_channel(weight)
        self.update_buffer("weight_q", q)
        self.update_buffer("weight_scale", scale)
        self.update_buffer("act_scale", np.asarray([float(act_scale)], dtype=np.float64))
        self.update_buffer("bias", np.zeros(self.out_features, dtype=np.float64)
                           if bias is None else np.asarray(bias, dtype=np.float64).copy())

    # ------------------------------------------------------------------ #
    def _weight_f32(self) -> np.ndarray:
        """float32 view of ``weight_q``, cached until the buffer is swapped."""
        cached = self.__dict__.get("_w_f32_cache")
        if cached is None or cached[0] is not self.weight_q:
            cached = (self.weight_q, self.weight_q.astype(np.float32))
            self.__dict__["_w_f32_cache"] = cached
        return cached[1]

    def forward(self, x) -> Tensor:
        x_np = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        if x_np.ndim != 2:
            raise ValueError(f"QuantizedLinear expects (N, {self.in_features}) inputs, "
                             f"got shape {x_np.shape}")
        s_act = float(self.act_scale[0])
        q_x = quantize_activations(x_np, s_act)
        if self.in_features * INT8_LEVELS * INT8_LEVELS < _EXACT_F32_ACC_LIMIT:
            acc = (q_x.astype(np.float32) @ self._weight_f32().T).astype(np.float64)
        else:
            acc = (q_x.astype(np.int32) @ self.weight_q.astype(np.int32).T).astype(np.float64)
        y = acc * (s_act * self.weight_scale)[None, :] + self.bias
        return Tensor(y)

    def __repr__(self) -> str:
        return f"QuantizedLinear(in={self.in_features}, out={self.out_features})"


class QuantizedConv1d(Module):
    """Int8 inference-only replacement for :class:`repro.nn.Conv1d`.

    Same contract as :class:`QuantizedLinear`, lifted to 1-D convolution:
    per-output-channel symmetric weight scales over the ``(C_in * K,)``
    reduction axis, one offline-calibrated per-tensor activation scale, and
    buffers-only state (``weight_q`` int8 ``(O, C, K)``, ``weight_scale``,
    ``act_scale``, ``bias``) so the int8 payload round-trips serialization.

    The forward pass is an im2col → integer GEMM with two physical
    layouts, chosen per shape:

    * stride-1 convs with a few input channels or more run as ``K``
      shifted batched GEMMs — ``acc += W[:, :, k] @ q[:, :, k*d : ...]``
      on zero-copy slices of the quantized input, producing the
      ``(N, C_out, L_out)`` output directly with no patch gather at all;
    * everything else gathers a sliding-window view into an explicit
      ``(N * L_out, C_in * K)`` patch matrix and runs one GEMM.

    Both layouts accumulate sums of int8×int8 products that are exactly
    representable while ``C_in * K * 127 * 127 < 2**24``, so they produce
    bit-identical integer accumulators — independent of BLAS summation
    order, batch composition and chunking — and the choice is purely a
    speed decision.  The exact paths dequantize in float32 (the int8 tier
    keeps activations float32 end-to-end); the int32 fallback for wider
    reductions dequantizes through float64, because its accumulators can
    exceed float32's exact-integer range.  Zero padding commutes with
    symmetric quantization (0 quantizes to 0), so padding is applied to
    the already-quantized input.

    Unlike :class:`QuantizedLinear`, the clip-and-round step itself runs in
    float32 (``rint(x * (1/s))``) — rounding the quantization thresholds a
    ulp differently than the float64 helper would, which the agreement gate
    prices in, but keeping the whole pre-GEMM pipeline allocation-light.
    The quantized levels are exact small integers either way, so the
    exact-f32 and int32 accumulator paths still agree bit for bit.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, dilation: int = 1) -> None:
        super().__init__()
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        self.dilation = int(dilation)
        self.register_buffer(
            "weight_q", np.zeros((out_channels, in_channels, kernel_size), dtype=np.int8))
        self.register_buffer("weight_scale", np.ones(out_channels, dtype=np.float64))
        self.register_buffer("act_scale", np.ones(1, dtype=np.float64))
        self.register_buffer("bias", np.zeros(out_channels, dtype=np.float64))

    # ------------------------------------------------------------------ #
    def load_weights(self, weight: np.ndarray, bias: Optional[np.ndarray],
                     act_scale: float) -> None:
        """(Re-)quantize float ``(O, C, K)`` weights in place."""
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape != (self.out_channels, self.in_channels, self.kernel_size):
            raise ValueError(
                f"expected weight shape {(self.out_channels, self.in_channels, self.kernel_size)}, "
                f"got {weight.shape}")
        q, scale = quantize_weight_per_channel(weight.reshape(self.out_channels, -1))
        self.update_buffer("weight_q", q.reshape(weight.shape))
        self.update_buffer("weight_scale", scale)
        self.update_buffer("act_scale", np.asarray([float(act_scale)], dtype=np.float64))
        self.update_buffer("bias", np.zeros(self.out_channels, dtype=np.float64)
                           if bias is None else np.asarray(bias, dtype=np.float64).copy())

    # ------------------------------------------------------------------ #
    def _weight_cache(self, key: str, build) -> np.ndarray:
        """Derived-weight cache, invalidated when ``weight_q`` is swapped."""
        cached = self.__dict__.get("_w_cache")
        if cached is None or cached[0] is not self.weight_q:
            cached = (self.weight_q, {})
            self.__dict__["_w_cache"] = cached
        table = cached[1]
        if key not in table:
            table[key] = build()
        return table[key]

    def _weight_cols(self, dtype) -> np.ndarray:
        """``(C_in * K, O)`` GEMM operand for the im2col path."""
        return self._weight_cache(
            "cols:" + np.dtype(dtype).name,
            lambda: np.ascontiguousarray(
                self.weight_q.reshape(self.out_channels, -1).T.astype(dtype)))

    def _weight_taps(self, dtype) -> np.ndarray:
        """``(O, C_in, K)`` operand for the shifted-matmul fast path."""
        return self._weight_cache(
            "taps:" + np.dtype(dtype).name,
            lambda: np.ascontiguousarray(self.weight_q.astype(dtype)))

    def _dequant32(self):
        """Float32 per-channel dequant operands for the exact paths."""
        return self._weight_cache("dequant32", lambda: (
            (float(self.act_scale[0]) * self.weight_scale).astype(np.float32),
            self.bias.astype(np.float32)))

    def _im2col(self, q: np.ndarray, span: int, l_out: int) -> np.ndarray:
        """Gather quantized patches into a ``(N * L_out, C_in * K)`` matrix."""
        view = sliding_window_view(q, span, axis=2)
        taps = view[:, :, ::self.stride, ::self.dilation]
        return np.ascontiguousarray(taps.transpose(0, 2, 1, 3)).reshape(
            q.shape[0] * l_out, self.in_channels * self.kernel_size)

    def _shifted_matmul(self, q: np.ndarray, l_out: int) -> np.ndarray:
        """Stride-1 fast path: ``K`` batched GEMMs on shifted input slices."""
        w3d = self._weight_taps(np.float32)
        acc = np.matmul(w3d[:, :, 0], q[:, :, :l_out])
        for k in range(1, self.kernel_size):
            off = k * self.dilation
            acc += np.matmul(w3d[:, :, k], q[:, :, off:off + l_out])
        return acc

    def forward(self, x) -> Tensor:
        x_np = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        if x_np.ndim != 3 or x_np.shape[1] != self.in_channels:
            raise ValueError(f"QuantizedConv1d expects (N, {self.in_channels}, L) inputs, "
                             f"got shape {x_np.shape}")
        s_act = float(self.act_scale[0])
        q = np.empty(x_np.shape, dtype=np.float32)
        np.multiply(x_np, 1.0 / s_act, out=q, casting="unsafe")
        np.rint(q, out=q)
        np.clip(q, -INT8_LEVELS, INT8_LEVELS, out=q)
        if self.padding:
            n, c, length = q.shape
            padded = np.zeros((n, c, length + 2 * self.padding), dtype=np.float32)
            padded[:, :, self.padding:self.padding + length] = q
            q = padded
        n, _, length = q.shape
        span = (self.kernel_size - 1) * self.dilation + 1
        if span > length:
            raise ValueError(f"input length {length} too short for kernel span {span}")
        l_out = (length - span) // self.stride + 1
        reduction = self.in_channels * self.kernel_size
        exact_f32 = reduction * INT8_LEVELS * INT8_LEVELS < _EXACT_F32_ACC_LIMIT
        if exact_f32 and self.stride == 1 and self.in_channels >= 4:
            y = self._shifted_matmul(q, l_out)
            scale32, bias32 = self._dequant32()
            y *= scale32[None, :, None]
            y += bias32[None, :, None]
            return Tensor(y)
        if exact_f32:
            y = self._im2col(q, span, l_out) @ self._weight_cols(np.float32)
            scale32, bias32 = self._dequant32()
            y *= scale32[None, :]
            y += bias32[None, :]
        else:
            acc = self._im2col(q.astype(np.int32), span, l_out) @ self._weight_cols(np.int32)
            y = acc.astype(np.float64)
            y *= (s_act * self.weight_scale)[None, :]
            y += self.bias[None, :]
        # hand downstream float ops a C-contiguous (N, C_out, L_out) array —
        # elementwise kernels on the badly-strided transpose view are far
        # slower than this single extra copy
        return Tensor(np.ascontiguousarray(
            y.reshape(n, l_out, self.out_channels).transpose(0, 2, 1)))

    def __repr__(self) -> str:
        return (f"QuantizedConv1d(in={self.in_channels}, out={self.out_channels}, "
                f"kernel_size={self.kernel_size}, stride={self.stride}, "
                f"padding={self.padding}, dilation={self.dilation})")
