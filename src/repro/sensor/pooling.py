"""Analog k x k average pooling — the heart of the HiRISE compression unit.

The behavioral model here is calibrated against the transistor-level circuit
in :mod:`repro.analog.pooling_circuit`: the shared node of the averaging
circuit sits at ``gain * mean(inputs) + offset`` (ideally ``0.5`` and
``-VDD/2``), and the readout chain inverts that nominal affine map before
the ADC.  What cannot be inverted is captured as non-ideality:

* a per-pool-site **gain error** (resistor mismatch across the legs),
* a per-pool-site **offset error** (pull-down resistor mismatch),
* the source-follower's residual **compression nonlinearity**, second-order
  and typically < 1% of full scale for the default circuit sizing (see the
  Fig. 5 tracking fits).

Digital pooling (:func:`digital_avg_pool`) is the in-processor reference the
paper compares against in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def _check_pool_args(height: int, width: int, k: int) -> None:
    if k < 1:
        raise ValueError("pooling size k must be >= 1")
    if height < k or width < k:
        raise ValueError(f"array {width}x{height} smaller than pooling size {k}")


def block_reduce_mean(values: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping k x k block mean over the two leading axes.

    Rows/columns that do not fill a complete block are cropped, matching a
    sensor whose pooling groups are tiled from the top-left corner.

    Each output is its block's elements left-folded in row-major order,
    then divided by ``k * k``; the k² strided sub-grids are added whole.
    NumPy's reshape-mean sums in this order on channel-last input with
    C >= 2 (bit-identical), but pairwise per block row on 2-D input.

    Args:
        values: ``(H, W)`` or ``(H, W, C)`` array.
        k: block size.

    Returns:
        ``(H // k, W // k[, C])`` array of block means, in the input's
        dtype if it is floating and float64 otherwise (``np.mean``'s rule).
    """
    _check_pool_args(values.shape[0], values.shape[1], k)
    h = (values.shape[0] // k) * k
    w = (values.shape[1] // k) * k
    floating = np.issubdtype(values.dtype, np.floating)
    total = values[:h:k, :w:k].astype(values.dtype if floating else np.float64)
    for i in range(k):
        for j in range(k):
            if i or j:
                total += values[i:h:k, j:w:k]
    total /= k * k
    return total


@lru_cache(maxsize=32)
def _mismatch_maps(
    model: "AnalogPoolingModel", site_shape: tuple[int, ...], vdd: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-site ``(gain_map, offset_map)`` of one pooling circuit, memoized.

    The fixed pattern depends only on the (frozen, hashable) model, the
    pool-site grid and ``vdd``, and every frame of a stream is pooled on
    the same silicon, so the maps are drawn once per key instead of once
    per frame.  Cached arrays are shared across calls, so they are marked
    read-only; the LRU keeps the footprint bounded.
    """
    rng = np.random.default_rng(model.seed)
    gain_map = 1.0 + model.gain_error_sigma * rng.standard_normal(site_shape)
    offset_map = model.offset_error_sigma_per_vdd * vdd * rng.standard_normal(site_shape)
    for table in (gain_map, offset_map):
        table.setflags(write=False)
    return gain_map, offset_map


@dataclass(frozen=True)
class AnalogPoolingModel:
    """Behavioral model of the analog averaging circuit.

    Attributes:
        gain: nominal shared-node gain (circuit ideal: 0.5).
        offset_per_vdd: nominal offset as a fraction of VDD (ideal: -0.5).
        gain_error_sigma: per-site multiplicative mismatch (unitless sigma).
        offset_error_sigma_per_vdd: per-site additive mismatch, fraction of
            VDD.
        compression: strength of the residual source-follower nonlinearity;
            the model applies ``v - compression * v * (1 - v)`` on the
            normalized mean, a second-order bow matched to the Fig. 5 fits.
        seed: seed for the per-site mismatch maps.
    """

    gain: float = 0.5
    offset_per_vdd: float = -0.5
    gain_error_sigma: float = 0.002
    offset_error_sigma_per_vdd: float = 0.001
    compression: float = 0.01
    seed: int = 77

    @classmethod
    def ideal(cls) -> "AnalogPoolingModel":
        """Mismatch-free, perfectly linear averaging (for unit tests)."""
        return cls(
            gain_error_sigma=0.0, offset_error_sigma_per_vdd=0.0, compression=0.0
        )

    @classmethod
    def from_tracking_fit(
        cls, gain: float, offset: float, vdd: float, **kwargs
    ) -> "AnalogPoolingModel":
        """Build from a measured circuit fit (see ``repro.analog.fit_tracking``)."""
        return cls(gain=gain, offset_per_vdd=offset / vdd, **kwargs)

    # -- core op ------------------------------------------------------------------

    def pool(
        self,
        voltages: np.ndarray,
        k: int,
        vdd: float,
        grayscale: bool = False,
    ) -> np.ndarray:
        """Analog-average ``voltages`` over k x k blocks (and channels).

        The returned voltages are *calibrated*: the nominal gain/offset of
        the shared node has been inverted by the readout chain, so an ideal
        circuit returns exactly the block mean.  Mismatch and compression
        remain, because a real readout cannot know each site's deviation.

        Args:
            voltages: ``(H, W, 3)`` analog pixel voltages.
            k: pooling size (k=1 with grayscale=True merges channels only).
            vdd: full-scale voltage.
            grayscale: merge the three channels into the pool as well
                (k*k*3 pixels per output, the paper's Fig. 4 example).

        Returns:
            ``(H//k, W//k)`` if grayscale else ``(H//k, W//k, 3)``.
        """
        if voltages.ndim != 3 or voltages.shape[2] != 3:
            raise ValueError(f"expected (H, W, 3), got {voltages.shape}")
        _check_pool_args(voltages.shape[0], voltages.shape[1], k)

        if grayscale:
            merged = block_reduce_mean(voltages.mean(axis=2), k)
        else:
            merged = block_reduce_mean(voltages, k)

        # Residual nonlinearity applied to the normalized mean before the
        # affine map.
        normalized = np.clip(merged / vdd, 0.0, 1.0)
        if self.compression:
            normalized = normalized - self.compression * normalized * (1.0 - normalized)
        shared = self.gain * normalized * vdd + self.offset_per_vdd * vdd

        # Per-site mismatch (fixed pattern: depends only on seed and shape).
        if self.gain_error_sigma or self.offset_error_sigma_per_vdd:
            gain_map, offset_map = _mismatch_maps(self, merged.shape, vdd)
            shared = shared * gain_map + offset_map

        # Readout calibration: invert the *nominal* affine map.
        calibrated = (shared - self.offset_per_vdd * vdd) / self.gain
        return np.clip(calibrated, 0.0, vdd)


def digital_avg_pool(image: np.ndarray, k: int) -> np.ndarray:
    """In-processor k x k average pooling of an already-digitized image.

    This is the baseline scaling path in Table 2 ("In-Proc"): the full frame
    is converted and transferred first, then scaled digitally.

    Args:
        image: ``(H, W)`` or ``(H, W, C)`` digital image.
        k: pooling size.

    Returns:
        Block-mean image, same dtype promoted to float64.
    """
    return block_reduce_mean(np.asarray(image, dtype=np.float64), k)
