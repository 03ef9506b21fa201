"""Tests for the analog pixel array."""

import tracemalloc

import numpy as np
import pytest

from repro.core import ROI, HiRISEPipeline
from repro.sensor import BatchSensorReadout, NoiseModel, PixelArray


class TestFromImage:
    def test_uint8_scaling(self):
        img = np.full((4, 6, 3), 255, dtype=np.uint8)
        arr = PixelArray.from_image(img, vdd=1.2)
        assert np.allclose(arr.voltages, 1.2)

    def test_float_passthrough(self):
        img = np.full((4, 6, 3), 0.5)
        arr = PixelArray.from_image(img)
        assert np.allclose(arr.voltages, 0.5)

    def test_gray_image_broadcast_to_rgb(self):
        img = np.full((4, 6), 0.25)
        arr = PixelArray.from_image(img)
        assert arr.voltages.shape == (4, 6, 3)
        assert np.allclose(arr.voltages, 0.25)

    def test_rejects_out_of_range_floats(self):
        # NaN fails every comparison, so a range test written as "below
        # or above" passed it and it was later converted to code 0.
        for bad in (1.5, -0.5, np.inf, np.nan):
            frame = np.full((2, 2, 3), 0.5)
            frame[1, 0, 2] = bad
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                PixelArray.from_image(frame)
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                PixelArray.from_image_batch([np.zeros((2, 2, 3)), frame])

    @pytest.mark.parametrize(
        "frame, dtype",
        [
            (np.full((2, 2, 3), 0.5 + 0.0j), "complex128"),
            (np.full((2, 2, 3), 0.5, dtype=object), "object"),
            (np.full((2, 2, 3), "a"), "<U1"),
        ],
    )
    def test_rejects_non_numeric_frames(self, frame, dtype):
        # Complex and object frames pass a min/max range test, so the
        # dtype is checked first, by name.
        message = f"image dtype must be bool, integer or floating, got {dtype}"
        with pytest.raises(ValueError, match=message):
            PixelArray.from_image(frame)
        with pytest.raises(ValueError, match=message):
            PixelArray.from_image_batch([np.zeros((2, 2, 3)), frame])

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.uint16, np.float16])
    def test_bool_integer_and_float_frames_expose_as_float64(self, dtype):
        frame = np.random.default_rng(1).integers(0, 2, (4, 6, 3))
        arr = PixelArray.from_image(frame.astype(dtype), vdd=1.2)
        assert np.array_equal(arr.voltages, frame * 1.2)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PixelArray.from_image(np.zeros((2, 2, 4)))

    @pytest.mark.parametrize(
        "frame, got",
        [
            (np.zeros(5), r"\(5,\)"),
            (np.zeros((1, 4, 4, 3)), r"\(1, 4, 4, 3\)"),
            (PixelArray(np.zeros((4, 4, 3))), "PixelArray"),
            ([[0.5, 0.5], [0.5, 0.5]], "list"),
        ],
    )
    def test_rejects_non_image_frames(self, frame, got):
        message = r"image must be \(H, W, 3\) or \(H, W\), got " + got
        with pytest.raises(ValueError, match=message):
            PixelArray.from_image(frame)
        with pytest.raises(ValueError, match=message):
            PixelArray.from_image_batch([np.zeros((4, 4, 3)), frame])

    def test_rejects_bad_vdd(self):
        with pytest.raises(ValueError):
            PixelArray.from_image(np.zeros((2, 2, 3)), vdd=0.0)

    def test_fpn_applied_at_exposure(self):
        img = np.full((8, 8, 3), 0.5)
        clean = PixelArray.from_image(img, noise=NoiseModel.noiseless())
        noisy = PixelArray.from_image(img, noise=NoiseModel(prnu=0.05, seed=1))
        assert np.allclose(clean.voltages, 0.5)
        assert not np.allclose(noisy.voltages, 0.5)

    def test_fpn_deterministic_per_seed(self):
        img = np.full((8, 8, 3), 0.5)
        a = PixelArray.from_image(img, noise=NoiseModel(seed=9))
        b = PixelArray.from_image(img, noise=NoiseModel(seed=9))
        assert np.array_equal(a.voltages, b.voltages)

    def test_voltages_clipped_to_rails(self):
        img = np.ones((8, 8, 3))
        arr = PixelArray.from_image(img, noise=NoiseModel(dsnu=0.1, seed=2))
        assert arr.voltages.max() <= 1.0
        assert arr.voltages.min() >= 0.0


class TestGeometry:
    def test_resolution_is_width_height(self, noiseless_array):
        assert noiseless_array.resolution == (48, 32)

    def test_region_extraction(self, noiseless_array):
        region = noiseless_array.region(10, 5, 8, 4)
        assert region.shape == (4, 8, 3)
        assert np.array_equal(region, noiseless_array.voltages[5:9, 10:18, :])

    def test_region_out_of_bounds_rejected(self, noiseless_array):
        with pytest.raises(ValueError):
            noiseless_array.region(45, 0, 10, 4)

    def test_region_empty_rejected(self, noiseless_array):
        with pytest.raises(ValueError):
            noiseless_array.region(0, 0, 0, 4)


class TestOnDemandExposure:
    """A frame read only at its windows exposes only those windows."""

    SHAPE = (240, 320, 3)
    WINDOWS = [ROI(10, 20, 16, 24), ROI(100, 50, 30, 20)]

    @pytest.mark.parametrize("noise", [None, NoiseModel(seed=11)])
    def test_stage2_only_allocates_no_whole_frame(self, noise):
        scene = np.random.default_rng(3).random(self.SHAPE)
        pipeline = HiRISEPipeline(noise=noise)
        if noise is not None:
            # The sensor's fixed pattern is drawn once and then shared.
            noise.fixed_pattern_maps(self.SHAPE)
        frame_bytes = scene.size * 8
        tracemalloc.start()
        try:
            outcome = pipeline.run_stage2_only(scene, self.WINDOWS, frame_seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < frame_bytes / 8
        assert sorted(c.shape for c in outcome.roi_crops) == [(20, 30, 3), (24, 16, 3)]

    def test_shared_buffer_holds_only_stage1_frames(self):
        rng = np.random.default_rng(4)
        frames = [rng.random(self.SHAPE) for _ in range(2)]
        noise = NoiseModel()
        buf = np.full(self.SHAPE, np.nan)
        batch = BatchSensorReadout.from_images(frames, noise=noise, out=buf)
        pipeline = HiRISEPipeline(noise=noise)
        reused = pipeline.run_stage2_only(batch.readouts[0].array, self.WINDOWS)
        assert np.isnan(buf).all()  # the reused frame exposed its windows only
        pipeline.run(batch.readouts[1].array, rois=self.WINDOWS, frame_seed=1)
        want = PixelArray.from_image(frames[1], noise=noise).voltages
        assert np.array_equal(buf, want)
        want = pipeline.run_stage2_only(frames[0], self.WINDOWS)
        for got, ref in zip(reused.roi_crops, want.roi_crops, strict=True):
            assert np.array_equal(got, ref)

    def test_rejects_a_mismatched_buffer(self):
        stack = np.empty((1, 4, 4, 3))
        with pytest.raises(ValueError, match=r"out: expected a \(4, 4, 3\) float64"):
            PixelArray.from_image_batch([np.zeros((4, 4, 3))], out=stack)
