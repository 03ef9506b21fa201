"""Tests for the sensor readout paths (full / compressed / selective ROI)."""

import numpy as np
import pytest

from repro.sensor import (
    ADCModel,
    AnalogPoolingModel,
    NoiseModel,
    PixelArray,
    SensorReadout,
    clip_box,
)
from repro.sensor.readout import as_box

#: Mismatch-free, perfectly linear averaging.
IDEAL = AnalogPoolingModel(
    gain_error_sigma=0.0, offset_error_sigma_per_vdd=0.0, compression=0.0
)


@pytest.fixture()
def readout(noiseless_array):
    return SensorReadout(noiseless_array, pooling=IDEAL)


class TestFullRead:
    def test_conversion_count(self, readout):
        result = readout.read_full()
        assert result.conversions == 32 * 48 * 3

    def test_image_matches_scene(self, readout, gradient_image):
        result = readout.read_full()
        assert np.max(np.abs(result.images - gradient_image)) < 1 / 255.0

    def test_bytes_equal_conversions_for_8bit(self, readout):
        result = readout.read_full()
        assert result.data_bytes == result.conversions


class TestCompressedRead:
    def test_rgb_pooled_shape_and_count(self, readout):
        result = readout.read_compressed(4)
        assert result.images.shape == (8, 12, 3)
        assert result.conversions == 8 * 12 * 3

    def test_grayscale_pooled_shape_and_count(self, readout):
        result = readout.read_compressed(4, grayscale=True)
        assert result.images.shape == (8, 12)
        assert result.conversions == 8 * 12

    def test_k2_reduction_factor(self, readout, noiseless_array):
        """RGB pooled read converts k^2 x fewer samples."""
        full = readout.read_full()
        pooled = readout.read_compressed(4)
        assert full.conversions == pooled.conversions * 16

    def test_pooled_matches_digital_pooling(self, readout, gradient_image):
        from repro.sensor import digital_avg_pool

        result = readout.read_compressed(2)
        expected = digital_avg_pool(gradient_image, 2)
        assert np.max(np.abs(result.images - expected)) < 1 / 255.0


class TestROIRead:
    def test_single_roi_crop(self, readout, gradient_image):
        result = readout.read_rois([(4, 2, 10, 6)])
        assert len(result.images) == 1
        assert result.images[0].shape == (6, 10, 3)
        expected = gradient_image[2:8, 4:14, :]
        assert np.max(np.abs(result.images[0] - expected)) < 1 / 255.0

    def test_conversions_sum_roi_areas(self, readout):
        result = readout.read_rois([(0, 0, 5, 4), (10, 10, 8, 8)])
        assert result.conversions == (5 * 4 + 8 * 8) * 3

    def test_out_of_bounds_roi_clipped(self, readout):
        result = readout.read_rois([(44, 28, 10, 10)])
        assert result.boxes == [(44, 28, 4, 4)]

    def test_fully_outside_roi_dropped(self, readout):
        result = readout.read_rois([(100, 100, 5, 5)])
        assert result.images == []
        assert result.conversions == 0

    def test_contained_roi_deduplicated(self, readout):
        """Containment dedup is the processor's decision (``prepare_rois``):
        the sensor reads nested boxes both, in the order given."""
        result = readout.read_rois([(5, 5, 4, 4), (0, 0, 20, 20)])
        assert result.boxes == [(5, 5, 4, 4), (0, 0, 20, 20)]
        assert [c.shape for c in result.images] == [(4, 4, 3), (20, 20, 3)]

    def test_accepts_roi_objects(self, readout):
        from repro.core import ROI

        result = readout.read_rois([ROI(1, 1, 6, 5)])
        assert result.boxes == [(1, 1, 6, 5)]


class TestHelpers:
    def test_clip_box_inside(self):
        assert clip_box((2, 3, 4, 5), 100, 100) == (2, 3, 4, 5)

    def test_clip_box_negative_origin(self):
        assert clip_box((-3, -2, 10, 10), 100, 100) == (0, 0, 7, 8)

    def test_clip_box_gone(self):
        assert clip_box((200, 0, 5, 5), 100, 100) is None

    def test_as_box_reads_rois_and_sequences_as_python_ints(self):
        from repro.core import ROI

        assert as_box(ROI(1, 2, 3, 4)) == (1, 2, 3, 4)
        for box in ((1.0, 2.0, 3.0, 4.0), np.array([1, 2, 3, 4], dtype=np.int64)):
            got = as_box(box)
            assert got == (1, 2, 3, 4)
            assert all(type(v) is int for v in got)


class TestNoiseAndMismatch:
    def test_adc_vref_mismatch_rejected(self, noiseless_array):
        with pytest.raises(ValueError):
            SensorReadout(noiseless_array, adc=ADCModel(v_ref=3.3))

    def test_temporal_noise_varies_per_read(self, gradient_image):
        arr = PixelArray.from_image(gradient_image, noise=NoiseModel(read_noise=5e-3))
        ro = SensorReadout(arr)
        a = ro.read_full().images
        b = ro.read_full().images
        assert not np.array_equal(a, b)

    def test_frame_seed_reproducible(self, gradient_image):
        arr = PixelArray.from_image(gradient_image, noise=NoiseModel(read_noise=5e-3))
        a = SensorReadout(arr, frame_seed=4).read_full().images
        b = SensorReadout(arr, frame_seed=4).read_full().images
        assert np.array_equal(a, b)


def nth_read(readout, voltages, n):
    """What the n-th read of ``readout`` digitizes ``voltages`` to: one
    generator keyed ``(frame_seed, n)`` draws the temporal noise, then the
    ADC's input-referred noise."""
    g = np.random.default_rng((readout.frame_seed, n))
    noisy = voltages + readout.array.noise.temporal_noise(
        voltages, readout.array.vdd, g
    )
    return readout.adc.to_float(readout.adc.convert(noisy, rng=g))


quiet = dict(read_noise=0.0, shot_noise_scale=0.0, dsnu=0.0, prnu=0.0)


@pytest.mark.parametrize(
    "noise, noise_lsb",
    [
        (NoiseModel(read_noise=2e-3, shot_noise_scale=2e-3, seed=5), 0.7),
        (NoiseModel(**{**quiet, "read_noise": 2e-3}), 0.0),
        (NoiseModel(**{**quiet, "shot_noise_scale": 2e-3}), 0.0),
        (NoiseModel.noiseless(), 0.7),
    ],
    ids=["all", "read", "shot", "adc"],
)
class TestReadStream:
    """Each noise term alone still draws the n-th read's stream."""

    def test_pooled_read_then_roi_reads(self, gradient_image, noise, noise_lsb):
        array = PixelArray.from_image(gradient_image, noise=noise)
        ro = SensorReadout(array, adc=ADCModel(noise_lsb=noise_lsb), frame_seed=11)
        pooled = ro.read_compressed(4)
        pooled_v = ro.pooling.pool(array.voltages, 4, array.vdd)
        assert np.array_equal(pooled.images, nth_read(ro, pooled_v, 1))
        rois = ro.read_rois([(0, 0, 20, 12), (30, 16, 10, 10)])
        assert len(rois.boxes) == 2
        for n, (crop, box) in enumerate(zip(rois.images, rois.boxes), start=2):
            assert np.array_equal(crop, nth_read(ro, array.region(*box), n))

    def test_roi_reads_of_a_reused_frame(self, gradient_image, noise, noise_lsb):
        array = PixelArray.from_image(gradient_image, noise=noise)
        ro = SensorReadout(array, adc=ADCModel(noise_lsb=noise_lsb), frame_seed=3)
        rois = ro.read_rois([(4, 2, 10, 6), (20, 10, 12, 14)])
        assert len(rois.boxes) == 2
        for n, (crop, box) in enumerate(zip(rois.images, rois.boxes), start=1):
            assert np.array_equal(crop, nth_read(ro, array.region(*box), n))


def test_noiseless_read_builds_no_generator(noiseless_array, monkeypatch):
    built = []
    default_rng = np.random.default_rng

    def spy(*args):
        built.append(args)
        return default_rng(*args)

    monkeypatch.setattr(np.random, "default_rng", spy)
    ro = SensorReadout(noiseless_array, pooling=IDEAL)
    pooled = ro.read_compressed(4)
    crops = ro.read_rois([(4, 2, 10, 6)])
    assert built == []
    pooled_v = ro.pooling.pool(noiseless_array.voltages, 4, noiseless_array.vdd)
    assert np.array_equal(pooled.images, ro.adc.to_float(ro.adc.convert(pooled_v)))
    window = noiseless_array.region(4, 2, 10, 6)
    assert np.array_equal(crops.images[0], ro.adc.to_float(ro.adc.convert(window)))
