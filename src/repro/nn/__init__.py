"""``repro.nn`` — a NumPy autodiff neural-network substrate.

This package replaces PyTorch for the KDSelector reproduction.  It provides
reverse-mode automatic differentiation (:mod:`repro.nn.tensor`), standard
layers (:mod:`repro.nn.layers`), losses used by the selector-learning
framework (:mod:`repro.nn.losses`) and optimizers (:mod:`repro.nn.optim`).
"""

from .tensor import Tensor, no_grad, concatenate, stack, where
from .module import Module, ModuleList, Parameter, Sequential
from .layers import (
    BatchNorm1d,
    Conv1d,
    Dropout,
    LayerNorm,
    Linear,
    LSTM,
    LSTMCell,
    MultiHeadSelfAttention,
    PositionalEncoding,
    ReLU,
    TransformerEncoderLayer,
)
from .losses import cross_entropy, info_nce, mse_loss, soft_cross_entropy
from .optim import Adam, Optimizer
from .quant import (
    QuantizedConv1d,
    QuantizedLinear,
    calibrate_activation_scale,
    quantize_weight_per_channel,
)
from .serialization import load_state, save_state
from . import functional
from . import init

__all__ = [
    "Tensor", "no_grad", "concatenate", "stack", "where",
    "Module", "ModuleList", "Parameter", "Sequential",
    "BatchNorm1d", "Conv1d", "Dropout", "LayerNorm", "Linear", "LSTM",
    "LSTMCell", "MultiHeadSelfAttention", "PositionalEncoding",
    "ReLU", "TransformerEncoderLayer",
    "cross_entropy", "info_nce", "mse_loss", "soft_cross_entropy",
    "Adam", "Optimizer",
    "QuantizedConv1d", "QuantizedLinear",
    "calibrate_activation_scale", "quantize_weight_per_channel",
    "load_state", "save_state", "functional", "init",
]
