"""Operator specifications with shape and parameter inference.

These are *static descriptions* used for memory analysis (peak activation
SRAM and weight flash), standing in for the TFLite-Micro graphs the paper
inspects in Sec. 4.2.  Tensors are single-batch HWC; quantized deployments
use 1 byte per element (int8), which is the paper's setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil


@dataclass(frozen=True)
class TensorShape:
    """Single-batch activation shape (height, width, channels)."""

    h: int
    w: int
    c: int

    def __post_init__(self) -> None:
        if self.h < 1 or self.w < 1 or self.c < 1:
            raise ValueError(f"invalid tensor shape {self}")

    @property
    def elems(self) -> int:
        return self.h * self.w * self.c

    def bytes(self, dtype_bytes: int = 1) -> int:
        return self.elems * dtype_bytes

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.h}x{self.w}x{self.c}"


def _conv_out(size: int, kernel: int, stride: int, same: bool) -> int:
    if same:
        return ceil(size / stride)
    return (size - kernel) // stride + 1


class OpSpec:
    """Base operator: shape inference + parameter counts."""

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:  # pragma: no cover
        raise NotImplementedError

    def weight_params(self, inputs: list[TensorShape]) -> int:
        return 0

    def _one(self, inputs: list[TensorShape]) -> TensorShape:
        if len(inputs) != 1:
            raise ValueError(f"{type(self).__name__} expects exactly one input")
        return inputs[0]


@dataclass(frozen=True)
class Conv(OpSpec):
    """Standard convolution; ``same`` padding by default.

    Attributes:
        out_c: output channels.
        kernel: square kernel side.
        stride: spatial stride.
        same: SAME (ceil) vs VALID padding semantics.
        bias: include per-channel bias parameters.
    """

    out_c: int
    kernel: int = 3
    stride: int = 1
    same: bool = True
    bias: bool = True

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        x = self._one(inputs)
        return TensorShape(
            _conv_out(x.h, self.kernel, self.stride, self.same),
            _conv_out(x.w, self.kernel, self.stride, self.same),
            self.out_c,
        )

    def weight_params(self, inputs: list[TensorShape]) -> int:
        x = self._one(inputs)
        return self.kernel * self.kernel * x.c * self.out_c + (self.out_c if self.bias else 0)


@dataclass(frozen=True)
class DepthwiseConv(OpSpec):
    """Depthwise convolution: channels preserved."""

    kernel: int = 3
    stride: int = 1
    same: bool = True
    bias: bool = True

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        x = self._one(inputs)
        return TensorShape(
            _conv_out(x.h, self.kernel, self.stride, self.same),
            _conv_out(x.w, self.kernel, self.stride, self.same),
            x.c,
        )

    def weight_params(self, inputs: list[TensorShape]) -> int:
        x = self._one(inputs)
        return self.kernel * self.kernel * x.c + (x.c if self.bias else 0)


@dataclass(frozen=True)
class GlobalPool(OpSpec):
    """Global average pooling to 1x1xC."""

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        x = self._one(inputs)
        return TensorShape(1, 1, x.c)


@dataclass(frozen=True)
class Dense(OpSpec):
    """Fully connected layer on a flattened input."""

    out_features: int
    bias: bool = True

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        return TensorShape(1, 1, self.out_features)

    def weight_params(self, inputs: list[TensorShape]) -> int:
        x = self._one(inputs)
        return x.elems * self.out_features + (self.out_features if self.bias else 0)


@dataclass(frozen=True)
class Add(OpSpec):
    """Elementwise residual addition of two same-shape tensors."""

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        if len(inputs) != 2:
            raise ValueError("Add expects exactly two inputs")
        a, b = inputs
        if (a.h, a.w, a.c) != (b.h, b.w, b.c):
            raise ValueError(f"Add shape mismatch: {a} vs {b}")
        return a


@dataclass(frozen=True)
class Activation(OpSpec):
    """In-place-able activation (ReLU/ReLU6/...): shape-preserving, no params.

    Memory analyzers treat activations as fused (TFLite-Micro fuses them
    into the preceding op), so the analyzer may skip allocating a separate
    output for them; see ``analyzer.fused_activation``.
    """

    kind: str = "relu6"

    def output_shape(self, inputs: list[TensorShape]) -> TensorShape:
        return self._one(inputs)
