"""Int8 twin of a float teacher selector — the quantized escalation tier.

:class:`Int8TeacherSelector` rebuilds the exact module structure of a base
neural selector (``arch_kwargs["base_type"]``, e.g. ``"ResNet"``) and swaps
every :class:`repro.nn.Conv1d` in the encoder for a
:class:`repro.nn.QuantizedConv1d` plus the classifier for a
:class:`repro.nn.QuantizedLinear`.  Everything else (batch norm, ReLU,
residual adds, pooling) stays float64, so the quantized twin shares the
teacher's topology and its state dict differs only in the conv/classifier
leaves — which is what lets the selector store round-trip it from
``(base_type, window, n_classes, seed, arch_kwargs)`` alone.

Instances are produced by :func:`repro.distill.quantize_teacher` (which
calibrates per-conv activation scales and enforces the dequantize-compare
agreement gate) or restored from the selector store; ``fit`` raises.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .. import nn
from ..accel.precision import use_precision
from ..nn.quant import QuantizedConv1d, QuantizedLinear
from .base import make_selector, register_selector
from .nn_selector import NNSelector

#: default architecture quantized when ``base_type`` is not recorded
DEFAULT_BASE_TYPE = "ResNet"


class FoldedBatchNorm(nn.Module):
    """Placeholder for a batch norm folded into the preceding int8 conv.

    In eval mode ``BatchNorm1d`` is a per-channel affine, which the
    quantizer absorbs into the conv's per-channel weight scales and bias
    (``g = gamma / sqrt(var + eps)``; ``W' = W * g``,
    ``b' = (b - mean) * g + beta``) — so the quantized twin replaces the
    norm with this identity and skips the elementwise pass entirely.
    """

    def forward(self, x):
        return x


def paired_bn_name(parent: nn.Module, conv_name: str, conv) -> Optional[str]:
    """Name of the batch norm that directly follows ``conv`` in ``parent``.

    Encoders here follow the ``convX``/``bnX`` naming convention
    (``_ConvBlock.conv``/``.bn``, ``_ResidualBlock.conv3``/``.bn3``); a
    norm is foldable only when it is a :class:`~repro.nn.BatchNorm1d` over
    exactly the conv's output channels.  Norms applied to merged outputs
    (e.g. InceptionTime's post-concat norm) never pair and stay float.
    """
    if not conv_name.startswith("conv"):
        return None
    bn_name = "bn" + conv_name[len("conv"):]
    bn = parent._modules.get(bn_name)
    if isinstance(bn, nn.BatchNorm1d) and bn.num_features == conv.out_channels:
        return bn_name
    return None


def swap_conv_modules(module: nn.Module) -> int:
    """Replace every ``Conv1d`` child of ``module`` (recursively) in place.

    Each float conv becomes an empty :class:`QuantizedConv1d` of the same
    geometry (weights are filled later by ``load_weights`` or
    ``load_state``), and its paired batch norm — when the
    :func:`paired_bn_name` convention identifies one — becomes a
    :class:`FoldedBatchNorm` identity.  Returns the number of convs
    swapped.  Replacement goes through ``setattr`` on the owning parent so
    both the module registry and the plain attribute stay consistent.
    """
    count = 0
    for name, child in list(module._modules.items()):
        if isinstance(child, nn.Conv1d):
            bn_name = paired_bn_name(module, name, child)
            setattr(module, name, QuantizedConv1d(
                child.in_channels, child.out_channels, child.kernel_size,
                stride=child.stride, padding=child.padding, dilation=child.dilation))
            if bn_name is not None:
                setattr(module, bn_name, FoldedBatchNorm())
            count += 1
        elif not isinstance(child, (QuantizedConv1d, FoldedBatchNorm)):
            count += swap_conv_modules(child)
    return count


def named_conv_modules(module: nn.Module, conv_types=(nn.Conv1d,),
                       prefix: str = "") -> List[Tuple[str, nn.Module]]:
    """``(qualified_name, conv)`` pairs in deterministic traversal order.

    Shares its traversal with :func:`conv_fold_plan` and
    :func:`swap_conv_modules`, so float convs and their quantized twins
    resolve to identical qualified names.
    """
    out: List[Tuple[str, nn.Module]] = []
    for name, child in module._modules.items():
        qualified = prefix + name
        if isinstance(child, tuple(conv_types)):
            out.append((qualified, child))
        else:
            out.extend(named_conv_modules(child, conv_types, prefix=qualified + "."))
    return out


def conv_fold_plan(module: nn.Module, prefix: str = "") -> List[Tuple[str, nn.Module, Optional[nn.Module]]]:
    """``(qualified_name, conv, folded_bn_or_None)`` for every float conv.

    The traversal order and the pairing rule match
    :func:`swap_conv_modules` exactly, so a plan computed on the float
    teacher lines up one-to-one with the quantized twin's conv modules.
    """
    plan: List[Tuple[str, nn.Module, Optional[nn.Module]]] = []
    for name, child in module._modules.items():
        qualified = prefix + name
        if isinstance(child, nn.Conv1d):
            bn_name = paired_bn_name(module, name, child)
            plan.append((qualified, child,
                         module._modules[bn_name] if bn_name is not None else None))
        else:
            plan.extend(conv_fold_plan(child, prefix=qualified + "."))
    return plan


@register_selector("TeacherInt8", neural=True)
class Int8TeacherSelector(NNSelector):
    """Quantized teacher: int8 conv encoder + int8 linear classifier.

    ``arch_kwargs`` must carry ``base_type`` (the registered name of the
    float selector this is a twin of); the remaining keys are forwarded to
    the base selector's constructor, so the twin's encoder is structurally
    identical to the teacher it was quantized from.
    """

    #: a wider chunk than the float tiers' amortises the per-call
    #: quantize/gather overhead of the int8 convs
    predict_chunk = 512

    def build(self, window: Optional[int] = None, n_classes: Optional[int] = None) -> "Int8TeacherSelector":
        if window is not None:
            self.window = window
        if n_classes is not None:
            self.n_classes = n_classes
        if self.encoder is None:
            base_kwargs = dict(self.arch_kwargs)
            base_type = base_kwargs.pop("base_type", DEFAULT_BASE_TYPE)
            base = make_selector(base_type, window=self.window, n_classes=self.n_classes,
                                 seed=self.seed, **base_kwargs)
            if not isinstance(base, NNSelector):
                raise ValueError(f"base selector {base_type!r} is not a neural selector")
            base.build()
            swapped = swap_conv_modules(base.encoder)
            if swapped == 0:
                raise ValueError(
                    f"{base_type!r} encoder has no Conv1d layers to quantize; "
                    "feature-based selectors have no int8 tier")
            self.encoder = base.encoder
            self.classifier = QuantizedLinear(base.encoder.feature_dim, self.n_classes)
        return self

    def fit(self, dataset, config=None, **overrides):
        raise RuntimeError(
            "Int8TeacherSelector is inference-only; train a float teacher "
            "and quantize it with repro.distill.quantize_teacher"
        )

    def forward(self, windows):
        """Run the quantized graph with float32 intermediate activations.

        Every value between int8 convs is a dequantized scaled integer; the
        float64 default precision would double the memory traffic of the
        relu / residual-add / pooling passes for no accuracy the agreement
        gate could measure.  The float32 elementwise ops are deterministic
        per element, so chunk independence is unaffected.
        """
        with use_precision("float32"):
            return super().forward(windows)

    def encode(self, windows):
        with use_precision("float32"):
            return super().encode(windows)
