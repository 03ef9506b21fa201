"""Procedural textures: the source of "rich features" in synthetic scenes.

The paper's motivation (Fig. 1) is that high-resolution ROIs preserve rich
texture — hair, fabric, facial detail — that pooling destroys.  For the
reproduction to exercise the same trade-off, synthetic objects must carry
fine-grained, high-frequency texture that aliases away at low resolution.
This module provides deterministic, seedable texture fields:

* :func:`value_noise` — multi-octave bilinear value noise (Perlin-flavored);
* :func:`stripes` — periodic pattern with controllable pitch (fine pitches
  vanish under pooling).

All functions return float64 arrays in [0, 1].
"""

from __future__ import annotations

import numpy as np


def _bilinear_upsample(grid: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Bilinearly resample a coarse grid to ``shape`` (used by value noise).

    Separable: every coarse row is interpolated along x once, then output
    rows are gathered from those and blended along y.  Each pixel gets the
    same products and sums as a four-corner gather, so the result is
    bit-identical to one, at a fraction of the full-size passes.
    """
    gh, gw = grid.shape
    h, w = shape
    # Sample positions in grid coordinates; endpoints map exactly.
    ys = np.linspace(0.0, gh - 1.0, h)
    xs = np.linspace(0.0, gw - 1.0, w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    rows = grid[:, x0] * (1 - fx) + grid[:, x1] * fx
    top = rows[y0]
    top *= 1 - fy
    bottom = rows[y1]
    bottom *= fy
    top += bottom
    return top


def value_noise(
    shape: tuple[int, int],
    rng: np.random.Generator,
    octaves: int = 4,
    base_cells: int = 4,
    persistence: float = 0.55,
) -> np.ndarray:
    """Multi-octave value noise in [0, 1].

    Args:
        shape: output ``(H, W)``.
        rng: random generator (advance-once semantics: each call consumes
            randomness, so repeated calls differ).
        octaves: number of frequency octaves to sum.
        base_cells: grid cells of the coarsest octave along the short side.
        persistence: amplitude falloff per octave.

    Returns:
        ``(H, W)`` float64 noise normalized to [0, 1].
    """
    h, w = shape
    total = np.zeros(shape)
    amplitude = 1.0
    norm = 0.0
    cells = base_cells
    for _ in range(octaves):
        gh = max(2, min(h, int(round(cells * h / min(h, w)))))
        gw = max(2, min(w, int(round(cells * w / min(h, w)))))
        grid = rng.random((gh, gw))
        octave = _bilinear_upsample(grid, shape)
        octave *= amplitude
        total += octave
        norm += amplitude
        amplitude *= persistence
        cells *= 2
    total /= norm
    lo, hi = float(total.min()), float(total.max())
    if hi > lo:
        total -= lo
        total /= hi - lo
    return total


def stripes(
    shape: tuple[int, int],
    pitch: float,
    angle_deg: float = 0.0,
    duty: float = 0.5,
    soft: float = 0.15,
) -> np.ndarray:
    """Smoothed periodic stripes in [0, 1].

    Args:
        shape: output ``(H, W)``.
        pitch: stripe period in pixels (small pitch = fine texture that a
            k x k pool with ``k >= pitch/2`` wipes out).
        angle_deg: stripe orientation.
        duty: bright fraction of each period.
        soft: transition softness as a fraction of the period.

    Returns:
        ``(H, W)`` float64 pattern.
    """
    if pitch <= 0:
        raise ValueError("pitch must be positive")
    h, w = shape
    yy, xx = np.mgrid[0:h, 0:w]
    theta = np.deg2rad(angle_deg)
    coord = xx * np.cos(theta) + yy * np.sin(theta)
    phase = (coord / pitch) % 1.0
    edge0, edge1 = duty - soft, duty + soft
    out = np.clip((edge1 - phase) / max(edge1 - edge0, 1e-9), 0.0, 1.0)
    return out


def colorize(field: np.ndarray, low: tuple, high: tuple) -> np.ndarray:
    """Map a [0, 1] scalar field to an RGB ramp between two colors.

    Args:
        field: ``(H, W)`` scalar texture.
        low: RGB color (floats in [0, 1]) at field value 0.
        high: RGB color at field value 1.

    Returns:
        ``(H, W, 3)`` float64 image.
    """
    low_arr = np.asarray(low, dtype=np.float64)
    span = np.asarray(high, dtype=np.float64) - low_arr
    # One channel at a time: a broadcast over the 3-long channel axis runs
    # NumPy's inner loop 3 elements at a time, three times slower.
    image = np.empty(field.shape + (3,))
    for c in range(3):
        channel = image[..., c]
        np.multiply(field, span[c], out=channel)
        channel += low_arr[c]
    return image
