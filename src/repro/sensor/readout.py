"""Sensor readout paths: full frame, compressed (pooled), and selective ROI.

This module is the sensor-side half of the HiRISE dataflow (paper Fig. 3):

* :meth:`SensorReadout.read_full` — the conventional baseline: convert every
  analog site and ship the whole frame.
* :meth:`SensorReadout.read_compressed` — stage 1: analog grayscale/pooling
  first, then convert only the pooled outputs.
* :meth:`SensorReadout.read_rois` — stage 2: the ROI *encoder*; given the
  bounding boxes returned by the stage-1 model it selects only those rows/
  columns of the analog array, converts them at full resolution, and ships
  the crops.

Every read returns a :class:`ReadoutResult` that accounts for conversions,
bytes on the link, and energy — the quantities Tables 1/3 and Figs. 6-8 are
built from.  Boxes are duck-typed: anything with ``x, y, w, h`` attributes
(e.g. :class:`repro.core.ROI`) or a 4-tuple works, keeping this substrate
independent of the core package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..analog.pooling_circuit import PoolingEnergyModel
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


def merge_covered_boxes(
    boxes: Sequence[tuple[int, int, int, int]]
) -> list[tuple[int, int, int, int]]:
    """Drop boxes fully contained in another box (duplicate readout).

    The paper notes stage-2 transfer is "the intersection over the union of
    all the ROI boxes": overlapping regions need not be read twice.  A full
    rectangular-union readout would fragment crops, so the encoder model
    implements the practical version — containment dedup — and the cost
    model exposes the exact union area separately (see
    :func:`repro.core.roi.union_area`).
    """
    kept: list[tuple[int, int, int, int]] = []
    order = sorted(boxes, key=lambda b: b[2] * b[3], reverse=True)
    for box in order:
        x, y, w, h = box
        contained = any(
            x >= kx and y >= ky and x + w <= kx + kw and y + h <= ky + kh
            for kx, ky, kw, kh in kept
        )
        if not contained:
            kept.append(box)
    return kept


@dataclass
class ReadoutResult:
    """One readout transaction from sensor to processor.

    Attributes:
        images: digital image(s) in [0, 1]; a single array for frame reads,
            a list of crops for ROI reads.
        conversions: number of ADC conversions performed.
        data_bytes: bytes shipped over the link (conversions x sample bytes).
        adc_energy: joules spent in the ADC.
        pooling_energy: joules spent in the analog pooling circuitry
            (zero for non-pooled reads).
        boxes: for ROI reads, the clipped boxes actually read.
    """

    images: object
    conversions: int
    data_bytes: int
    adc_energy: float
    pooling_energy: float = 0.0
    boxes: list[tuple[int, int, int, int]] = field(default_factory=list)

    @property
    def total_energy(self) -> float:
        return self.adc_energy + self.pooling_energy


@dataclass
class SensorReadout:
    """Binds a pixel array to its converter and compression circuitry.

    Attributes:
        array: the exposed analog pixel array.
        adc: converter model (defaults to the paper's 8-bit / 125 pJ).
        pooling: behavioral analog pooling model.
        pooling_energy: energy model of the pooling circuit.
        frame_seed: seed for per-readout temporal noise.
    """

    array: PixelArray
    adc: ADCModel = field(default_factory=ADCModel)
    pooling: AnalogPoolingModel = field(default_factory=AnalogPoolingModel)
    pooling_energy: PoolingEnergyModel = field(default_factory=PoolingEnergyModel)
    frame_seed: int = 0

    def __post_init__(self) -> None:
        if abs(self.adc.v_ref - self.array.vdd) > 1e-12:
            raise ValueError(
                f"ADC full scale ({self.adc.v_ref} V) must match the pixel "
                f"array vdd ({self.array.vdd} V)"
            )
        self._readout_counter = 0

    # -- internals -------------------------------------------------------------

    def _digitize(self, voltages: np.ndarray) -> tuple[np.ndarray, int]:
        # ``(frame_seed, counter)`` names every read's stream; seeding costs
        # more than converting a small crop, so build the generator only if
        # a term draws (the ``> 0.0`` tests of temporal_noise and convert).
        self._readout_counter += 1
        noise = self.array.noise
        rng = None
        if max(noise.read_noise, noise.shot_noise_scale, self.adc.noise_lsb) > 0.0:
            rng = np.random.default_rng((self.frame_seed, self._readout_counter))
            voltages = voltages + noise.temporal_noise(voltages, self.array.vdd, rng)
        return self.adc.digitize(voltages, rng=rng), int(voltages.size)

    # -- readout paths ------------------------------------------------------------

    def read_full(self) -> ReadoutResult:
        """Conventional baseline: convert and ship the entire RGB frame."""
        image, n = self._digitize(self.array.voltages)
        return ReadoutResult(
            images=image,
            conversions=n,
            data_bytes=n * self.adc.bytes_per_sample(),
            adc_energy=self.adc.energy(n),
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
        image, n = self._digitize(pooled_v)
        return ReadoutResult(
            images=image,
            conversions=n,
            data_bytes=n * self.adc.bytes_per_sample(),
            adc_energy=self.adc.energy(n),
            pooling_energy=self.pooling_energy.frame_energy(n),
        )

    def read_rois(
        self,
        rois: Iterable[object],
        dedup_contained: bool = True,
    ) -> ReadoutResult:
        """Stage 2: selective full-resolution readout of the given boxes.

        Args:
            rois: ROI-like objects or ``(x, y, w, h)`` tuples, in *pixel
                array* coordinates.
            dedup_contained: drop boxes fully contained in another before
                reading (the encoder's duplicate suppression).

        Returns:
            :class:`ReadoutResult` whose ``images`` is a list of RGB crops
            aligned with ``result.boxes``.
        """
        clipped: list[tuple[int, int, int, int]] = []
        for roi in rois:
            box = clip_box(as_box(roi), self.array.width, self.array.height)
            if box is not None:
                clipped.append(box)
        if dedup_contained:
            clipped = merge_covered_boxes(clipped)

        crops: list[np.ndarray] = []
        conversions = 0
        for x, y, w, h in clipped:
            crop_v = self.array.region(x, y, w, h)
            crop, n = self._digitize(crop_v)
            crops.append(crop)
            conversions += n
        return ReadoutResult(
            images=crops,
            conversions=conversions,
            data_bytes=conversions * self.adc.bytes_per_sample(),
            adc_energy=self.adc.energy(conversions),
            boxes=clipped,
        )


@dataclass
class BatchSensorReadout:
    """Per-frame readout chains over a stack of same-size exposures.

    Video streams expose one frame after another onto the *same* silicon:
    the fixed-pattern maps, pooling circuit and ADC are shared, and only
    the scene and the temporal-noise stream differ per frame.  That makes
    exposure — scaling and fixed-pattern application over the
    full-resolution array — a single NumPy pass over an ``(N, H, W, 3)``
    stack instead of a Python loop.

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
        """Expose a clip in one pass and bind per-frame readout chains.

        Args:
            frames: scene images, all of one resolution.
            adc_bits: converter precision (shared).
            noise: sensor noise model (shared silicon).
            pooling: behavioral pooling model (shared circuitry).
            frame_seeds: per-frame temporal seeds; defaults to ``range(N)``.
            vdd: full-scale voltage.
            out: optional preallocated ``(N, H, W, 3)`` float64 exposure
                buffer (see :meth:`PixelArray.from_image_batch`); the
                stream runner reuses one across flushes so a steady-state
                stream exposes with zero per-window allocation.
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
