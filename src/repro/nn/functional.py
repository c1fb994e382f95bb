"""Functional operations built on :class:`repro.nn.tensor.Tensor`.

These mirror the subset of ``torch.nn.functional`` that the selector
architectures (ConvNet / ResNet / InceptionTime / Transformer / LSTM) and
the KDSelector losses need: 1-D convolution, the LSTM sequence op,
softmax/log-softmax, dropout, the affine map and cosine similarity.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..accel.precision import resolve_dtype
from .init import get_rng
from .tensor import Tensor, _as_array, _matmul, _node, _unbroadcast, is_grad_enabled


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
    # The taps as a read-only strided view (N, C, L_out, K), copied once.
    # A GEMM's bits depend on its operands' memory order, so the copy keeps
    # the one the forward GEMM has always read: C-contiguous (N, C * K,
    # L_out), or, where C or K is 1, the (K, L_out, N, C) order of an index
    # gather.  (``as_strided`` costs a third of ``sliding_window_view``'s
    # set-up, which small batches notice.)
    sn, sc, sl = x.strides
    taps = as_strided(x, (n, c, l_out, kernel_size), (sn, sc, sl * stride, sl * dilation),
                      writeable=False)
    if c == 1 or kernel_size == 1:
        cols = np.ascontiguousarray(taps.transpose(3, 2, 0, 1)).transpose(2, 3, 0, 1)
    else:
        cols = np.ascontiguousarray(taps.transpose(0, 1, 3, 2))
    return cols.reshape(n, c * kernel_size, l_out), l_out


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

    # Each VJP takes the output gradient, shape (N, C_out, L_out).  Their
    # GEMMs are the ones ``np.einsum(..., optimize=True)`` runs for
    # ``"ok,nol->nkl"`` and ``"nol,nkl->ok"``, without its per-call path
    # search.  With two operands einsum swaps them: it multiplies the
    # gradient rows by ``w2d`` for the input and the columns by the
    # gradient rows for the weight, and that operand order keeps its bits.
    def grad_rows(grad: np.ndarray) -> np.ndarray:
        return grad.transpose(0, 2, 1).reshape(-1, c_out)  # (N * L_out, C_out)

    def vjp_x(grad: np.ndarray) -> np.ndarray:
        gcols = (grad_rows(grad) @ w2d).reshape(n, l_out, c_in, kernel_size)
        # col2im: one strided slice-add per tap into a channels-last
        # (N, L, C_in) accumulator, which reads the GEMM's (N, L_out, C_in,
        # K) output near-contiguously; the (N, C_in, L) view goes back.
        # Descending taps add each input position's terms in ascending
        # output position, the order an ``np.add.at`` over the (L_out, K)
        # index grid adds them.
        gx = np.zeros((n, x.shape[2], c_in), dtype=x.dtype)
        stop = (l_out - 1) * stride + 1
        for k in reversed(range(kernel_size)):
            gx[:, k * dilation:k * dilation + stop:stride] += gcols[..., k]
        return gx.transpose(0, 2, 1)

    def vjp_weight(grad: np.ndarray) -> np.ndarray:
        col_rows = cols.transpose(1, 0, 2).reshape(c_in * kernel_size, -1)  # (C_in * K, N * L_out)
        return (col_rows @ grad_rows(grad)).T.reshape(weight.shape)

    if bias is None:
        return _node(out_data, (x, weight), vjp_x, vjp_weight)
    return _node(out_data, (x, weight, bias), vjp_x, vjp_weight, lambda g: g.sum(axis=(0, 2)))


def lstm(x: Tensor, w_ih: Tensor, w_hh: Tensor, bias: Tensor) -> Tensor:
    """A single-layer LSTM over (N, T, D) inputs: the (N, T, H) hidden states.

    One graph node for the whole sequence.  Its forward repeats
    :class:`~repro.nn.layers.LSTMCell`'s NumPy expressions step by step,
    on the same array layouts: the products a ``Tensor.matmul`` runs (one
    per row with gradients off), and the policy dtype after each op.  Its
    VJPs share one hand-written BPTT, run once per ``backward``, which
    repeats the unrolled cells' VJP expressions and adds each parameter's
    per-step terms in the order ``Tensor.backward`` reaches them: ``w_ih``
    and ``bias`` from the last step to the first, ``w_hh`` from the first
    to the last.  So outputs and gradients are byte-equal to the unrolled
    cells' in either precision.  Activations are kept only when a graph
    is recorded.
    """
    n, steps, _ = x.shape
    hs = w_hh.shape[1]
    dtype = resolve_dtype(None)
    record = is_grad_enabled() and any(p.requires_grad for p in (x, w_ih, w_hh, bias))

    def cast(a: np.ndarray) -> np.ndarray:
        return _as_array(a, dtype)

    # Each step's input and the weights' transposes, as the unrolled
    # cells' graph holds them: views, or copies cast to the policy dtype.
    inputs = [cast(x.data[:, step, :]) for step in range(steps)]
    wih_t, whh_t = cast(w_ih.data.T), cast(w_hh.data.T)
    h = np.zeros((n, hs), dtype)
    c = np.zeros((n, hs), dtype)
    hidden, saved = [], []
    for x_t in inputs:
        gates = cast(cast(cast(_matmul(x_t, wih_t)) + cast(_matmul(h, whh_t))) + bias.data)
        i = cast(1.0 / (1.0 + np.exp(-gates[:, 0 * hs:1 * hs])))
        f = cast(1.0 / (1.0 + np.exp(-gates[:, 1 * hs:2 * hs])))
        g = cast(np.tanh(gates[:, 2 * hs:3 * hs]))
        o = cast(1.0 / (1.0 + np.exp(-gates[:, 3 * hs:4 * hs])))
        c_prev, c = c, cast(cast(f * c) + cast(i * g))
        tc = cast(np.tanh(c))
        h = cast(o * tc)
        hidden.append(h)
        if record:
            saved.append((c_prev, i, f, g, o, tc))
    out = cast(np.stack(hidden, axis=1))

    def bptt(grad: np.ndarray) -> tuple:
        d_x = np.zeros_like(x.data) if x.requires_grad else None
        d_ih, d_hh, d_b = (np.zeros_like(p.data) if p.requires_grad else None
                           for p in (w_ih, w_hh, bias))
        d_gates = [None] * steps
        dh_next = dc_next = None
        for step in reversed(range(steps)):
            c_prev, i, f, g, o, tc = saved[step]
            dh = grad[:, step, :] if dh_next is None else grad[:, step, :] + dh_next
            dc = dh * o * (1.0 - tc ** 2)
            if dc_next is not None:
                dc = dc + dc_next
            dg = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                                 dc * i * (1.0 - g ** 2), dh * tc * o * (1.0 - o)], axis=1)
            d_gates[step] = dg
            if d_b is not None:
                d_b += dg.sum(axis=0)
            if d_ih is not None:
                d_ih += (np.swapaxes(inputs[step], -1, -2) @ dg).T
            if d_x is not None:
                d_x[:, step, :] = cast(dg @ wih_t.T)
            if step:
                dh_next, dc_next = dg @ whh_t.T, dc * f
        if d_hh is not None:
            for step in range(1, steps):
                d_hh += (np.swapaxes(hidden[step - 1], -1, -2) @ d_gates[step]).T
        return d_x, d_ih, d_hh, d_b

    cache: dict = {}

    def grads(grad: np.ndarray) -> tuple:
        # Every VJP of one backward gets the same gradient array; a new
        # backward brings a new one, so the BPTT runs again.
        if cache.get("grad") is not grad:
            cache.update(grad=grad, grads=bptt(grad))
        return cache["grads"]

    return _node(out, (x, w_ih, w_hh, bias),
                 *(lambda g, k=k: grads(g)[k] for k in range(4)))


def batch_norm(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tuple[Tensor, np.ndarray, np.ndarray]:
    """Batch normalisation of (N, C, L) or (N, C) inputs per channel.

    Returns the output and the running statistics after this call: moved
    by ``momentum`` towards the batch's in training, the given ones in
    eval.  One graph node with parents ``(x, weight, bias)``.  Its forward
    repeats the expressions of ``(x - mean) / (var + eps) ** 0.5 * weight
    + bias`` built from ``Tensor`` ops (``x.mean``, ``x.var``), with the
    policy dtype after each op, but computes the batch sum and the centred
    array once.  Its VJPs share one backward, run once per output
    gradient, which repeats that graph's VJP expressions and adds x's
    terms in the order ``Tensor.backward`` adds them: the centred term, the
    mean's, the centred array's own (``t + t``, from ``centred *
    centred``) and the variance's mean.  So outputs and gradients are
    byte-equal to the unrolled graph's in either precision, where the
    norm is the only consumer of ``x`` (as in every encoder).
    """
    if x.ndim == 3:
        axes, shape = (0, 2), (1, weight.shape[0], 1)
    elif x.ndim == 2:
        axes, shape = (0,), (1, weight.shape[0])
    else:
        raise ValueError(f"BatchNorm1d expects 2-D or 3-D input, got {x.ndim}-D")
    dtype = resolve_dtype(None)
    record = is_grad_enabled() and any(p.requires_grad for p in (x, weight, bias))

    def cast(a) -> np.ndarray:
        return _as_array(a, dtype)

    if training:
        scale = cast(1.0 / int(np.prod([x.shape[a] for a in axes])))
        mean = cast(cast(x.data.sum(axis=axes, keepdims=True)) * scale)
        centred = cast(x.data + cast(-mean))
        var = cast(cast(cast(centred * centred).sum(axis=axes, keepdims=True)) * scale)
        running_mean = (1 - momentum) * running_mean + momentum * mean.reshape(-1)
        running_var = (1 - momentum) * running_var + momentum * var.reshape(-1)
    else:
        centred = cast(x.data + cast(-cast(running_mean.reshape(shape))))
        var = cast(running_var.reshape(shape))
    shifted = cast(var + cast(eps))
    root = cast(shifted ** 0.5)
    inv = cast(root ** -1.0)
    w, b = cast(weight.data.reshape(shape)), cast(bias.data.reshape(shape))
    # In place wherever the backward does not read the array again.
    keep_centred = record and training and x.requires_grad
    normed = centred * inv if keep_centred else np.multiply(centred, inv, out=centred)
    out = normed * w if record and weight.requires_grad else np.multiply(normed, w, out=normed)
    out += b

    def backward(grad: np.ndarray) -> tuple:
        d_b = _unbroadcast(grad, shape).reshape(bias.shape) if bias.requires_grad else None
        d_w = (_unbroadcast(grad * normed, shape).reshape(weight.shape)
               if weight.requires_grad else None)
        if not x.requires_grad:
            return None, d_w, d_b
        d_x = grad * w
        if not training:
            d_x *= inv
            return d_x, d_w, d_b
        d_inv = _unbroadcast(d_x * centred, shape)
        d_x *= inv
        d_mean = -_unbroadcast(d_x, shape) * scale
        d_var = d_inv * -1.0 * root ** -2.0 * 0.5 * shifted ** -0.5
        t = centred * (d_var * scale)
        t += t
        d_mu = -_unbroadcast(t, shape) * scale
        # x's terms in Tensor.backward's order, summed in x's dtype as its
        # gradient accumulates.
        d_x = d_x.astype(x.dtype, copy=False)
        d_x += d_mean
        d_x += t
        d_x += d_mu
        return d_x, d_w, d_b

    cache: dict = {}

    def grads(grad: np.ndarray) -> tuple:
        # Every VJP of one backward gets the same gradient array; a new
        # backward brings a new one, so the backward runs again.
        if cache.get("grad") is not grad:
            cache.update(grad=grad, grads=backward(grad))
        return cache["grads"]

    return (_node(out, (x, weight, bias), *(lambda g, k=k: grads(g)[k] for k in range(3))),
            running_mean, running_var)


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
