"""Behavioral image-sensor model (the HiRISE in-sensor compression unit).

Public surface: :class:`PixelArray` (and the :class:`CheckedFrames` it
binds without a second range check), :class:`NoiseModel`, :class:`ADCModel`,
:class:`AnalogPoolingModel`, :class:`SensorReadout` plus the grayscale and
pooling primitives.
"""

from .adc import ADCModel
from .grayscale import LUMA_WEIGHTS, analog_grayscale
from .noise import NoiseModel
from .pixel_array import CheckedFrames, PixelArray
from .pooling import (
    AnalogPoolingModel,
    block_reduce_mean,
    digital_avg_pool,
)
from .readout import (
    BatchSensorReadout,
    ReadoutResult,
    SensorReadout,
    as_box,
    clip_box,
)

__all__ = [
    "ADCModel",
    "AnalogPoolingModel",
    "BatchSensorReadout",
    "CheckedFrames",
    "LUMA_WEIGHTS",
    "NoiseModel",
    "PixelArray",
    "ReadoutResult",
    "SensorReadout",
    "analog_grayscale",
    "as_box",
    "block_reduce_mean",
    "clip_box",
    "digital_avg_pool",
]
