"""Tiny CNN classifier factories (trainable stage-2 models).

Two capacity tiers mirror the paper's stage-2 pair:

* :func:`tiny_cnn` with ``width=8`` — an MCUNetV2-flavored budget model;
* :func:`tiny_cnn` with ``width=16`` — a MobileNetV2-flavored larger model.

Architecturally these are small VGG-ish stacks (conv-BN-ReLU-pool) sized so
NumPy training at 14-112 px inputs stays tractable; the *memory-analysis*
versions of MCUNetV2/MobileNetV2 (faithful op graphs) live separately in
:mod:`repro.memory.zoo`, because Table 3's SRAM columns are a static
property of the architecture, not of these trained weights.
"""

from __future__ import annotations

import numpy as np

from ..layers import BatchNorm, Conv2D, Dense, GlobalAvgPool, MaxPool2D, ReLU
from ..model import Sequential


def tiny_cnn(
    input_size: int,
    n_classes: int,
    width: int = 8,
    in_channels: int = 3,
    seed: int = 0,
) -> Sequential:
    """Build a small classifier for square ``input_size`` images.

    The network downsamples by 2 at each stage until the spatial side is
    <= 4, then applies global average pooling and a dense head; total depth
    therefore adapts to the input size (more stages for 112 px than 14 px),
    like scaling a mobile backbone across resolutions.

    Args:
        input_size: input side length in pixels (>= 8).
        n_classes: output classes.
        width: base channel count (doubles each stage, capped at 8x).
        in_channels: input channels (3 for RGB crops).
        seed: weight-init seed.

    Returns:
        A :class:`~repro.ml.model.Sequential` producing ``(N, n_classes)``
        logits.
    """
    if input_size < 8:
        raise ValueError("input_size must be >= 8")
    rng = np.random.default_rng(seed)
    layers: list = []
    channels = in_channels
    out_ch = width
    side = input_size
    while side > 4:
        layers.append(Conv2D(channels, out_ch, kernel=3, stride=1, rng=rng))
        layers.append(BatchNorm(out_ch))
        layers.append(ReLU())
        if side % 2 == 0:
            layers.append(MaxPool2D(2))
            side //= 2
        else:
            # Odd side: strided conv keeps shapes valid (ceil division).
            layers.append(Conv2D(out_ch, out_ch, kernel=3, stride=2, rng=rng))
            layers.append(ReLU())
            side = (side + 1) // 2
        channels = out_ch
        out_ch = min(out_ch * 2, width * 8)
    layers.append(GlobalAvgPool())
    layers.append(Dense(channels, n_classes, rng=rng))
    return Sequential(layers)
