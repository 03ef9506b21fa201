"""Tests for the analog pixel array."""

import numpy as np
import pytest

from repro.sensor import NoiseModel, PixelArray


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
        with pytest.raises(ValueError):
            PixelArray.from_image(np.full((2, 2, 3), 1.5))

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

    def test_n_sites_counts_channels(self, noiseless_array):
        assert noiseless_array.n_sites == 32 * 48 * 3

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
