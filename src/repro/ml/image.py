"""Small image-processing utilities shared by the ML stack.

Pure NumPy implementations of bilinear resize, luma conversion, and padded
cropping — the operations a stage-1/stage-2 edge pipeline performs on
digital images after readout.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: BT.601 luma weights (matches ``repro.sensor.grayscale.LUMA_WEIGHTS``).
_LUMA = np.array([0.299, 0.587, 0.114])


def to_gray(image: np.ndarray) -> np.ndarray:
    """Luma grayscale of an ``(H, W, 3)`` image; 2-D images pass through."""
    if image.ndim == 2:
        return image
    if image.ndim == 3 and image.shape[2] == 3:
        return image @ _LUMA
    if image.ndim == 3 and image.shape[2] == 1:
        return image[:, :, 0]
    raise ValueError(f"expected (H, W[, 3]) image, got shape {image.shape}")


def ensure_channels(image: np.ndarray) -> np.ndarray:
    """Return the image as ``(H, W, C)`` (adds a channel axis to 2-D input)."""
    if image.ndim == 2:
        return image[:, :, None]
    if image.ndim == 3:
        return image
    raise ValueError(f"expected 2-D or 3-D image, got shape {image.shape}")


@lru_cache(maxsize=64)
def _resize_plan(in_hw: tuple[int, int], out_hw: tuple[int, int], channels: int):
    """Interpolation plan for one ``(in_hw, out_hw, channels)`` key, memoized.

    The serving hot path resizes every ROI crop to the classifier input
    size, so the same few shapes recur thousands of times; the
    index/weight tables depend only on the shapes, never on the pixels.
    Cached arrays are marked read-only (they are shared across calls) and
    the LRU keeps the footprint bounded — each plan is a few kB.

    Returns:
        ``(y0, y1, wy0, wy1, x0, x1, wx0, wx1)``: the source rows of each
        output row and their ``(1 - f, f)`` blend weights shaped
        ``(out_h, 1)``, then the source sample of each output sample
        along a ``(H, W * channels)`` row, ``x * channels + channel``,
        with the column weights repeated per channel.
    """
    h, w = in_hw
    oh, ow = out_hw
    # Align-corners=False sampling (pixel centers), standard for resizing.
    ys = (np.arange(oh) + 0.5) * h / oh - 0.5
    xs = (np.arange(ow) + 0.5) * w / ow - 0.5
    ys = np.clip(ys, 0.0, h - 1.0)
    xs = np.clip(xs, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = xs - x0
    channel = np.arange(channels)
    plan = (
        y0,
        y1,
        1 - fy,
        fy,
        (x0[:, None] * channels + channel).ravel(),
        (x1[:, None] * channels + channel).ravel(),
        np.repeat(1 - fx, channels),
        np.repeat(fx, channels),
    )
    for table in plan:
        table.setflags(write=False)
    return plan


def resize_bilinear(image: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Bilinear resize with edge clamping.

    Interpolation index/weight tables are memoized per ``(in_hw, out_hw,
    channels)`` (:func:`_resize_plan`), which is free on correctness: the
    plan depends only on the shapes, so outputs are bit-identical to an
    uncached resize.  The blend is separable and walks the image as
    ``(H, W * C)`` rows: every source row is blended across columns first
    (``np.take`` of each output sample's two source samples), then the
    output rows blend those rows, so the inner loop of every gather,
    multiply and add runs along a row rather than along the C channels.
    Each output pixel gets the same products and sums as the four-corner
    gather, ``(p00 * (1 - fx) + p01 * fx) * (1 - fy) + (p10 * (1 - fx) +
    p11 * fx) * fy``, so the result is bit-identical to it.

    Args:
        image: ``(H, W)`` or ``(H, W, C)`` float array.
        out_hw: target ``(height, width)``.

    Returns:
        A fresh resized array with the same channel layout as the input.
    """
    oh, ow = out_hw
    if oh < 1 or ow < 1:
        raise ValueError("output size must be positive")
    squeeze = image.ndim == 2
    img = ensure_channels(np.asarray(image, dtype=np.float64))
    h, w, c = img.shape
    if (h, w) == (oh, ow):
        out = img.copy()
        return out[:, :, 0] if squeeze else out

    y0, y1, wy0, wy1, x0, x1, wx0, wx1 = _resize_plan((h, w), (int(oh), int(ow)), c)
    rows = img.reshape(h, w * c)
    cols = _blend(np.take(rows, x0, axis=1), wx0, np.take(rows, x1, axis=1), wx1)
    out = _blend(np.take(cols, y0, axis=0), wy0, np.take(cols, y1, axis=0), wy1)
    return out.reshape((oh, ow) if squeeze else (oh, ow, c))


def _blend(a: np.ndarray, wa: np.ndarray, b: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """``a * wa + b * wb``, computed in place in the fresh ``a`` and ``b``."""
    a *= wa
    b *= wb
    a += b
    return a


def downscale_antialiased(image: np.ndarray, factor: float) -> np.ndarray:
    """Downscale by ``factor`` (< 1) without aliasing.

    Plain bilinear sampling at large downscale factors samples only four
    source pixels per output pixel, so fine texture aliases into noise.
    This helper halves the image with 2x2 block means (a true area filter)
    until the remaining factor is > 1/2, then applies a single bilinear
    resize for the residual — matching what optics + a pooling sensor do.

    Args:
        image: ``(H, W)`` or ``(H, W, C)`` float array.
        factor: target scale in (0, 1].

    Returns:
        The downscaled image (same channel layout).
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError("factor must be in (0, 1]")
    img = np.asarray(image, dtype=np.float64)
    remaining = factor
    while remaining <= 0.5 and min(img.shape[0], img.shape[1]) >= 4:
        h2, w2 = (img.shape[0] // 2) * 2, (img.shape[1] // 2) * 2
        cropped = img[:h2, :w2]
        if cropped.ndim == 2:
            img = cropped.reshape(h2 // 2, 2, w2 // 2, 2).mean(axis=(1, 3))
        else:
            img = cropped.reshape(h2 // 2, 2, w2 // 2, 2, cropped.shape[2]).mean(
                axis=(1, 3)
            )
        remaining *= 2.0
    out_h = max(int(round(image.shape[0] * factor)), 1)
    out_w = max(int(round(image.shape[1] * factor)), 1)
    return resize_bilinear(img, (out_h, out_w))
