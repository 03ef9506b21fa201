"""Sensor readout paths: full frame, compressed (pooled), and selective ROI.

This module is the sensor-side half of the HiRISE dataflow (paper Fig. 3):

* :meth:`SensorReadout.read_full` — the conventional baseline: convert every
  analog site and ship the whole frame.
* :meth:`SensorReadout.read_compressed` — stage 1: analog grayscale/pooling
  first, then convert only the pooled outputs.
* :meth:`SensorReadout.read_rois` — stage 2: given the windows the
  processor's selection encoder (:func:`repro.core.prepare_rois`) sent
  back, it selects only those rows/columns of the analog array, converts
  them at full resolution, and ships the crops.

Every read returns a :class:`ReadoutResult` counting conversions and bytes
on the link, which the processor prices (:class:`repro.core.EnergyModel`).
Boxes are duck-typed: anything with ``x, y, w, h`` attributes (e.g.
:class:`repro.core.ROI`) or a 4-tuple works, keeping this substrate
independent of the core package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .adc import ADCModel
from .noise import NoiseModel
from .pixel_array import PixelArray
from .pooling import AnalogPoolingModel


def as_box(obj) -> tuple[int, int, int, int]:
    """Coerce an ROI-like object into an integer ``(x, y, w, h)`` tuple."""
    if hasattr(obj, "x"):
        return int(obj.x), int(obj.y), int(obj.w), int(obj.h)
    x, y, w, h = obj
    return int(x), int(y), int(w), int(h)


def clip_box(
    box: tuple[int, int, int, int], width: int, height: int
) -> tuple[int, int, int, int] | None:
    """Clip a box to the array bounds; ``None`` if nothing remains."""
    x, y, w, h = box
    x0, y0 = max(x, 0), max(y, 0)
    x1, y1 = min(x + w, width), min(y + h, height)
    if x1 <= x0 or y1 <= y0:
        return None
    return x0, y0, x1 - x0, y1 - y0


@dataclass
class ReadoutResult:
    """One readout transaction from sensor to processor.

    Attributes:
        images: digital image(s) in [0, 1]; a single array for frame reads,
            a list of crops for ROI reads.
        conversions: number of ADC conversions performed.
        data_bytes: bytes shipped over the link (conversions x sample bytes).
        boxes: for ROI reads, the clipped boxes actually read.
    """

    images: object
    conversions: int
    data_bytes: int
    boxes: list[tuple[int, int, int, int]] = field(default_factory=list)


@dataclass
class SensorReadout:
    """Binds a pixel array to its converter and compression circuitry.

    Attributes:
        array: the exposed analog pixel array.
        adc: converter model (defaults to the paper's 8-bit ADC).
        pooling: behavioral analog pooling model.
        frame_seed: seed for per-readout temporal noise.
    """

    array: PixelArray
    adc: ADCModel = field(default_factory=ADCModel)
    pooling: AnalogPoolingModel = field(default_factory=AnalogPoolingModel)
    frame_seed: int = 0

    def __post_init__(self) -> None:
        if abs(self.adc.v_ref - self.array.vdd) > 1e-12:
            raise ValueError(
                f"ADC full scale ({self.adc.v_ref} V) must match the pixel "
                f"array vdd ({self.array.vdd} V)"
            )
        self._readout_counter = 0

    # -- internals -------------------------------------------------------------

    def _add_read_noise(self, voltages: np.ndarray) -> None:
        """Add the next read's temporal and ADC noise to its fresh float64
        ``voltages`` in place.

        ``(frame_seed, counter)`` names every read's stream: the temporal
        noise draws from it first, then the ADC's input-referred noise.
        Seeding costs more than converting a small crop, so the generator
        is built only if a term draws (the ``> 0.0`` tests of
        ``temporal_noise`` and ``add_noise``).
        """
        self._readout_counter += 1
        noise = self.array.noise
        if max(noise.read_noise, noise.shot_noise_scale, self.adc.noise_lsb) > 0.0:
            rng = np.random.default_rng((self.frame_seed, self._readout_counter))
            voltages += noise.temporal_noise(voltages, self.array.vdd, rng)
            self.adc.add_noise(voltages, rng)

    def _digitize(self, voltages: np.ndarray) -> tuple[np.ndarray, int]:
        """One read of fresh float64 ``voltages``, converted in place."""
        self._add_read_noise(voltages)
        self.adc.quantize(voltages)
        return voltages, int(voltages.size)

    # -- readout paths ------------------------------------------------------------

    def read_full(self) -> ReadoutResult:
        """Conventional baseline: convert and ship the entire RGB frame."""
        image, n = self._digitize(np.array(self.array.voltages, dtype=np.float64))
        return ReadoutResult(
            images=image,
            conversions=n,
            data_bytes=n * self.adc.bytes_per_sample(),
        )

    def read_compressed(self, k: int, grayscale: bool = False) -> ReadoutResult:
        """Stage 1: analog-pool (optionally grayscale-merge), then convert.

        Args:
            k: pooling size; the output is ``(H//k, W//k)`` spatial.
            grayscale: merge color channels in the analog domain as well.

        Returns:
            :class:`ReadoutResult` whose ``images`` is the pooled frame
            (2-D if grayscale, else ``(H//k, W//k, 3)``).
        """
        pooled_v = self.pooling.pool(
            self.array.voltages, k, self.array.vdd, grayscale=grayscale
        )
        image, n = self._digitize(np.asarray(pooled_v, dtype=np.float64))
        return ReadoutResult(
            images=image,
            conversions=n,
            data_bytes=n * self.adc.bytes_per_sample(),
        )

    def read_rois(self, rois: Iterable[object]) -> ReadoutResult:
        """Stage 2: full-resolution readout of the given boxes, as given.

        Which windows to read is the processor's decision
        (:func:`repro.core.prepare_rois`); the sensor reads each box in
        order, clipped to the array (a box entirely off it reads nothing).

        All windows land in one float64 buffer: each is exposed into its
        slot (or copied there once the whole frame is exposed), and gets
        its temporal and ADC noise from its own read's generator, in box
        order.  One ADC pass then converts the whole buffer.  Each crop
        is bit-identical to reading its window alone.

        Args:
            rois: ROI-like objects or ``(x, y, w, h)`` tuples, in *pixel
                array* coordinates.

        Returns:
            :class:`ReadoutResult` whose ``images`` is a list of RGB crops
            aligned with ``result.boxes``: views of that one buffer.
        """
        clipped: list[tuple[int, int, int, int]] = []
        for roi in rois:
            box = clip_box(as_box(roi), self.array.width, self.array.height)
            if box is not None:
                clipped.append(box)

        conversions = sum(w * h * 3 for _, _, w, h in clipped)
        buffer = np.empty(conversions)
        crops: list[np.ndarray] = []
        start = 0
        for x, y, w, h in clipped:
            crop = buffer[start : start + w * h * 3].reshape(h, w, 3)
            start += crop.size
            self.array._region_into(x, y, crop)
            self._add_read_noise(crop)
            crops.append(crop)
        self.adc.quantize(buffer)
        return ReadoutResult(
            images=crops,
            conversions=conversions,
            data_bytes=conversions * self.adc.bytes_per_sample(),
            boxes=clipped,
        )


@dataclass
class BatchSensorReadout:
    """Per-frame readout chains over a run of same-size exposures.

    Video streams expose one frame after another onto the *same* silicon:
    the fixed-pattern maps, pooling circuit and ADC are shared, and only
    the scene and the temporal-noise stream differ per frame.  Binding a
    run of frames validates every frame up front; each frame is then
    exposed on demand by the read that needs it (see :class:`PixelArray`).

    Conversion stays per frame, on each frame's own random stream, so a
    frame that is never pooled costs no pooling: every readout here is
    exactly ``SensorReadout(array_i, ..., frame_seed=seed_i)``.

    Attributes:
        readouts: one scalar readout per frame.
    """

    readouts: list[SensorReadout]

    @classmethod
    def from_images(
        cls,
        frames: Sequence[np.ndarray],
        adc_bits: int = 8,
        noise: NoiseModel | None = None,
        pooling: AnalogPoolingModel | None = None,
        frame_seeds: Sequence[int] | None = None,
        vdd: float = 1.0,
        out: np.ndarray | None = None,
    ) -> "BatchSensorReadout":
        """Validate a run of frames and bind per-frame readout chains.

        Args:
            frames: scene images, all of one resolution.  A
                :class:`~repro.sensor.CheckedFrames` (a clip's frames, or
                a slice of them) skips the range check it passed when it
                was built; its shapes are still checked.  Its frames are
                bound as their own voltages when their exposure is an
                identity (no fixed pattern, ``vdd`` 1, float64 frames
                inside [0, 1]; see :meth:`PixelArray.from_image_batch`).
            adc_bits: converter precision (shared).
            noise: sensor noise model (shared silicon).
            pooling: behavioral pooling model (shared circuitry).
            frame_seeds: per-frame temporal seeds; defaults to ``range(N)``.
            vdd: full-scale voltage.
            out: optional ``(H, W, 3)`` float64 buffer every frame exposes
                its whole frame into, valid for one frame at a time (see
                :meth:`PixelArray.from_image_batch`); the stream runner
                reuses one, so a steady-state stream allocates no
                whole-frame exposure.
        """
        arrays = PixelArray.from_image_batch(
            frames, vdd=vdd, noise=noise, out=out
        )
        if frame_seeds is None:
            frame_seeds = range(len(arrays))
        seeds = list(frame_seeds)
        if len(seeds) != len(arrays):
            raise ValueError(
                f"{len(seeds)} frame seeds for {len(arrays)} frames"
            )
        pooling = pooling or AnalogPoolingModel()
        return cls(
            readouts=[
                SensorReadout(
                    array=array,
                    adc=ADCModel(bits=adc_bits, v_ref=array.vdd),
                    pooling=pooling,
                    frame_seed=seed,
                )
                for array, seed in zip(arrays, seeds)
            ]
        )

    def __len__(self) -> int:
        return len(self.readouts)

    def read_compressed(self, k: int, grayscale: bool = False) -> list[ReadoutResult]:
        """Stage 1 for every frame: :meth:`SensorReadout.read_compressed`
        on each readout in turn."""
        return [r.read_compressed(k, grayscale=grayscale) for r in self.readouts]
