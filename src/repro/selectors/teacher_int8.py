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
Either way the twin carries its gate result as ``quant_provenance``: the
store manifest and ``explain`` show its :func:`quant_summary`, and a
:class:`repro.cascade.CascadeRouter` escalating to the twin prices its
``agreement`` as the slow tier's quality.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from .. import nn
from ..accel.precision import use_precision
from ..nn.quant import QuantizedConv1d, QuantizedLinear
from .base import make_selector, register_selector
from .nn_selector import NNSelector

#: default architecture quantized when ``base_type`` is not recorded
DEFAULT_BASE_TYPE = "ResNet"

#: the gate fields of an int8 twin's ``quant_provenance`` that the store
#: manifest and ``explain`` show (the full per-conv scale table is not)
QUANT_SUMMARY_KEYS = ("agreement", "act_scales_hash", "n_calibration",
                      "base_type", "n_quantized_convs", "n_folded_bns")


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


def conv_bn_sites(module: nn.Module, prefix: str = ""
                  ) -> Iterator[Tuple[str, nn.Module, str, Optional[str]]]:
    """Every float conv of ``module`` with the batch norm that folds into it.

    Yields ``(qualified_name, parent, conv_name, bn_name)`` in the module
    registry's order, so a walk over the float teacher and a walk over the
    base encoder its twin is built from visit the same convs under the
    same qualified names.  Encoders follow the ``convX``/``bnX`` naming
    convention (``_ConvBlock.conv``/``.bn``, ``_ResidualBlock.conv3``/
    ``.bn3``); a norm folds only when it is a :class:`~repro.nn.BatchNorm1d`
    over exactly the conv's output channels, otherwise ``bn_name`` is
    ``None``.  Norms applied to merged outputs (InceptionTime's post-concat
    norm) never pair and stay float.
    """
    for name, child in module._modules.items():
        if isinstance(child, nn.Conv1d):
            bn_name = "bn" + name[len("conv"):]
            bn = module._modules.get(bn_name) if name.startswith("conv") else None
            foldable = isinstance(bn, nn.BatchNorm1d) and bn.num_features == child.out_channels
            yield prefix + name, module, name, bn_name if foldable else None
        else:
            yield from conv_bn_sites(child, prefix=f"{prefix}{name}.")


def quant_summary(selector) -> Optional[Dict[str, object]]:
    """The :data:`QUANT_SUMMARY_KEYS` of ``selector``'s gate result, or
    ``None`` for a selector that is not an int8 twin."""
    provenance = getattr(selector, "quant_provenance", None)
    if not provenance:
        return None
    return {key: provenance[key] for key in QUANT_SUMMARY_KEYS if key in provenance}


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
            sites = list(conv_bn_sites(base.encoder))
            if not sites:
                raise ValueError(
                    f"{base_type!r} encoder has no Conv1d layers to quantize; "
                    "feature-based selectors have no int8 tier")
            # empty int8 convs of the same geometry (filled by load_weights
            # or load_state); setattr keeps the module registry consistent
            for _, parent, conv_name, bn_name in sites:
                conv = parent._modules[conv_name]
                setattr(parent, conv_name, QuantizedConv1d(
                    conv.in_channels, conv.out_channels, conv.kernel_size,
                    stride=conv.stride, padding=conv.padding, dilation=conv.dilation))
                if bn_name is not None:
                    setattr(parent, bn_name, FoldedBatchNorm())
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
