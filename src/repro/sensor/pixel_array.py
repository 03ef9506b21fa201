"""The analog pixel array: where photons live before any ADC conversion.

A :class:`PixelArray` holds the *analog* voltages produced by a photodiode +
source-follower front end for one exposure.  Everything HiRISE does in the
sensor — grayscale merging, k x k pooling, selective ROI readout — operates
on these voltages; nothing becomes digital until an :class:`~repro.sensor.adc.ADCModel`
converts it.

The optical model is deliberately simple and linear: a scene image with
values in [0, 1] maps to voltages in [0, vdd] with per-pixel PRNU/DSNU
fixed-pattern deviations applied once at exposure time.  Real sensors add
gamma and color filter array effects downstream of the ADC; those do not
change any of the paper's comparisons, which all happen pre-demosaic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .noise import NoiseModel


def _scene_shape(image: np.ndarray) -> tuple[int, int]:
    """``(H, W)`` of a scene image.

    Anything but an ``(H, W, 3)`` or ``(H, W)`` array is rejected, a
    non-array frame (such as an already exposed :class:`PixelArray`)
    included.
    """
    if not isinstance(image, np.ndarray):
        raise ValueError(
            f"image must be (H, W, 3) or (H, W), got {type(image).__name__}"
        )
    if image.ndim != 2 and (image.ndim != 3 or image.shape[2] != 3):
        raise ValueError(f"image must be (H, W, 3) or (H, W), got {image.shape}")
    return image.shape[:2]


def _scene_into(image: np.ndarray, out: np.ndarray) -> None:
    """Normalize one scene image to float64 in [0, 1], written into ``out``.

    ``out`` is one ``(H, W, 3)`` float64 slot of an exposure stack and
    ``image`` has passed :func:`_scene_shape`.  uint8 values convert to
    float64 before the divide by 255; float inputs cast exactly and must
    already lie in [0, 1]; a 2-D image broadcasts across the channels.
    """
    if image.ndim == 2:
        image = image[:, :, None]
    if image.dtype == np.uint8:
        np.divide(image, 255.0, out=out)
        return
    np.copyto(out, image)
    # Written as "not inside" so that NaN, which fails every comparison
    # and propagates through min/max, is rejected too.
    if out.size and not (out.min() >= -1e-9 and out.max() <= 1.0 + 1e-9):
        raise ValueError("float image values must lie in [0, 1]")


@dataclass
class PixelArray:
    """Analog pixel voltages for one exposure.

    Attributes:
        voltages: float64 array of shape ``(height, width, 3)`` in volts.
        vdd: full-scale voltage (a pixel seeing full-scale light sits at
            ``vdd``).
        noise: the sensor's noise model (fixed-pattern part already applied
            to ``voltages``; the temporal part is sampled at each readout).
    """

    voltages: np.ndarray
    vdd: float = 1.0
    noise: NoiseModel = field(default_factory=NoiseModel.noiseless)

    def __post_init__(self) -> None:
        if self.voltages.ndim != 3 or self.voltages.shape[2] != 3:
            raise ValueError(
                f"voltages must have shape (H, W, 3), got {self.voltages.shape}"
            )
        if self.vdd <= 0:
            raise ValueError("vdd must be positive")

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_image(
        cls,
        image: np.ndarray,
        vdd: float = 1.0,
        noise: NoiseModel | None = None,
    ) -> "PixelArray":
        """Expose the array to a scene image (a batch of one).

        Args:
            image: ``(H, W, 3)`` or ``(H, W)`` array; uint8 images are
                scaled by 1/255, float images must already be in [0, 1].
            vdd: full-scale voltage.
            noise: noise model; fixed-pattern (PRNU gain / DSNU offset)
                deviations are baked into the stored voltages here, because
                they are properties of the silicon, not of a readout.

        Returns:
            A new :class:`PixelArray`.
        """
        return cls.from_image_batch([image], vdd=vdd, noise=noise)[0]

    @classmethod
    def from_image_batch(
        cls,
        images: "Sequence[np.ndarray]",
        vdd: float = 1.0,
        noise: NoiseModel | None = None,
        out: np.ndarray | None = None,
    ) -> "list[PixelArray]":
        """Expose N same-size scenes in one vectorized pass.

        The fixed-pattern maps depend only on the noise seed and the frame
        shape, so they are computed once and broadcast across the stack; all
        other operations are elementwise, so every frame's voltages are the
        same whatever the batch it is exposed in.

        Args:
            images: scene images, all of the same spatial size.
            vdd: full-scale voltage.
            noise: shared noise model (one sensor sees every frame).
            out: optional preallocated ``(N, H, W, 3)`` float64 exposure
                buffer (the stream runner reuses one across flushes).  The
                scenes are written straight into it instead of a new
                stack, so the caller owns its lifetime and must not
                overwrite it while any returned :class:`PixelArray` is in
                use.

        Returns:
            One :class:`PixelArray` per input frame, each a view into one
            ``(N, H, W, 3)`` block.
        """
        if not len(images):
            return []
        noise = noise or NoiseModel.noiseless()
        shapes = {_scene_shape(image) for image in images}
        if len(shapes) > 1:
            raise ValueError("all frames in a batch must share one resolution")
        ((h, w),) = shapes
        if out is None:
            out = np.empty((len(images), h, w, 3))
        elif out.shape != (len(images), h, w, 3) or out.dtype != np.float64:
            raise ValueError(
                f"out: expected a ({len(images)}, {h}, {w}, 3) float64 "
                f"buffer, got shape {out.shape} dtype {out.dtype}"
            )
        for image, slot in zip(images, out):
            _scene_into(image, slot)
        out *= vdd
        if not noise.is_noiseless():
            gain, offset = noise.fixed_pattern_maps(out.shape[1:])
            out *= gain
            out += offset
        np.clip(out, 0.0, vdd, out=out)
        return [cls(voltages=v, vdd=vdd, noise=noise) for v in out]

    # -- geometry -----------------------------------------------------------------

    @property
    def height(self) -> int:
        return int(self.voltages.shape[0])

    @property
    def width(self) -> int:
        return int(self.voltages.shape[1])

    @property
    def resolution(self) -> tuple[int, int]:
        """``(width, height)`` — note the paper's ``n x m`` is width x height."""
        return (self.width, self.height)

    @property
    def n_sites(self) -> int:
        """Total analog pixel sites (3 color channels per spatial location)."""
        return self.height * self.width * 3

    # -- raw access -----------------------------------------------------------------

    def region(self, x: int, y: int, w: int, h: int) -> np.ndarray:
        """Analog voltages of an axis-aligned region (no bounds forgiveness).

        Args:
            x, y: top-left corner in pixels.
            w, h: region width and height in pixels.

        Raises:
            ValueError: if the region is empty or falls outside the array.
        """
        if w <= 0 or h <= 0:
            raise ValueError("region must have positive size")
        if x < 0 or y < 0 or x + w > self.width or y + h > self.height:
            raise ValueError(
                f"region ({x},{y},{w},{h}) outside {self.width}x{self.height} array"
            )
        return self.voltages[y : y + h, x : x + w, :]
