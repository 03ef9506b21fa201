"""Tests for analog and digital average pooling."""

import numpy as np
import pytest

from repro.sensor import AnalogPoolingModel, block_reduce_mean, digital_avg_pool
from repro.sensor.pooling import _mismatch_maps

#: Mismatch-free, perfectly linear averaging.
IDEAL = AnalogPoolingModel(
    gain_error_sigma=0.0, offset_error_sigma_per_vdd=0.0, compression=0.0
)


class TestBlockReduce:
    def test_constant_image_preserved(self):
        img = np.full((8, 8), 0.3)
        assert np.allclose(block_reduce_mean(img, 2), 0.3)

    def test_known_blocks(self):
        img = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert block_reduce_mean(img, 2)[0, 0] == pytest.approx(0.5)

    def test_channelwise(self):
        img = np.zeros((4, 4, 3))
        img[:, :, 1] = 1.0
        out = block_reduce_mean(img, 2)
        assert out.shape == (2, 2, 3)
        assert np.allclose(out[:, :, 0], 0.0)
        assert np.allclose(out[:, :, 1], 1.0)

    def test_non_divisible_crops_remainder(self):
        img = np.arange(5 * 7, dtype=float).reshape(5, 7)
        out = block_reduce_mean(img, 2)
        assert out.shape == (2, 3)
        assert out[0, 0] == pytest.approx(np.mean(img[:2, :2]))

    def test_k1_identity(self):
        img = np.random.default_rng(0).random((4, 4))
        assert np.array_equal(block_reduce_mean(img, 1), img)

    def test_rejects_oversized_k(self):
        with pytest.raises(ValueError):
            block_reduce_mean(np.zeros((4, 4)), 8)


class TestAnalogPoolingModel:
    def test_ideal_matches_digital(self):
        rng = np.random.default_rng(5)
        img = rng.random((16, 16, 3))
        analog = IDEAL.pool(img, 4, vdd=1.0)
        digital = digital_avg_pool(img, 4)
        assert np.allclose(analog, digital, atol=1e-12)

    def test_grayscale_merges_channels(self):
        img = np.zeros((4, 4, 3))
        img[:, :, 0] = 0.9  # only red lit
        out = IDEAL.pool(img, 2, vdd=1.0, grayscale=True)
        assert out.shape == (2, 2)
        assert np.allclose(out, 0.3)

    def test_default_nonidealities_small(self):
        rng = np.random.default_rng(6)
        img = rng.random((32, 32, 3))
        out = AnalogPoolingModel().pool(img, 4, vdd=1.0)
        ref = digital_avg_pool(img, 4)
        assert np.max(np.abs(out - ref)) < 0.02  # < 2% of full scale

    def test_mismatch_is_fixed_pattern(self):
        img = np.full((8, 8, 3), 0.5)
        model = AnalogPoolingModel(seed=3)
        a = model.pool(img, 2, vdd=1.0)
        b = model.pool(img, 2, vdd=1.0)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        img = np.full((8, 8, 3), 0.5)
        a = AnalogPoolingModel(seed=1).pool(img, 2, vdd=1.0)
        b = AnalogPoolingModel(seed=2).pool(img, 2, vdd=1.0)
        assert not np.array_equal(a, b)

    def test_output_clipped_to_rails(self):
        img = np.ones((8, 8, 3))
        model = AnalogPoolingModel(offset_error_sigma_per_vdd=0.2, seed=0)
        out = model.pool(img, 2, vdd=1.0)
        assert out.max() <= 1.0
        assert out.min() >= 0.0

    def test_compression_bows_midscale(self):
        """The SF nonlinearity pulls mid-scale down, leaves rails alone."""
        model = AnalogPoolingModel(
            gain_error_sigma=0.0, offset_error_sigma_per_vdd=0.0, compression=0.05
        )
        mid = model.pool(np.full((2, 2, 3), 0.5), 2, vdd=1.0)
        hi = model.pool(np.ones((2, 2, 3)), 2, vdd=1.0)
        assert mid[0, 0, 0] < 0.5
        assert hi[0, 0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_input_shape(self):
        with pytest.raises(ValueError):
            AnalogPoolingModel().pool(np.zeros((4, 4)), 2, vdd=1.0)


def uncached_pool(model, voltages, k, vdd, grayscale=False):
    """:meth:`AnalogPoolingModel.pool` with the mismatch maps drawn afresh."""
    merged = block_reduce_mean(voltages.mean(axis=2) if grayscale else voltages, k)
    normalized = np.clip(merged / vdd, 0.0, 1.0)
    if model.compression:
        normalized = normalized - model.compression * normalized * (1.0 - normalized)
    shared = model.gain * normalized * vdd + model.offset_per_vdd * vdd
    rng = np.random.default_rng(model.seed)
    gain_map = 1.0 + model.gain_error_sigma * rng.standard_normal(merged.shape)
    offset_map = model.offset_error_sigma_per_vdd * vdd * rng.standard_normal(merged.shape)
    shared = shared * gain_map + offset_map
    return np.clip((shared - model.offset_per_vdd * vdd) / model.gain, 0.0, vdd)


class TestMismatchMemo:
    def test_cached_maps_are_read_only(self):
        model = AnalogPoolingModel(seed=4)
        model.pool(np.full((8, 8, 3), 0.5), 2, vdd=1.0)
        for table in _mismatch_maps(model, (4, 4, 3), 1.0):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0, 0] = 0.0

    @pytest.mark.parametrize("seed", [0, 5, 77])
    @pytest.mark.parametrize("shape, k", [((16, 12, 3), 4), ((9, 7, 3), 2), ((6, 5, 3), 1)])
    @pytest.mark.parametrize("grayscale", [False, True])
    def test_pool_equals_a_fresh_draw(self, seed, shape, k, grayscale):
        model = AnalogPoolingModel(seed=seed)
        voltages = np.random.default_rng(seed).random(shape) * 1.2
        want = uncached_pool(model, voltages, k, 1.2, grayscale)
        for _ in range(2):  # cold, then served from the memo
            got = model.pool(voltages, k, vdd=1.2, grayscale=grayscale)
            assert np.array_equal(got, want)

    def test_cache_is_bounded(self):
        maxsize = _mismatch_maps.cache_info().maxsize
        assert maxsize is not None
        model = AnalogPoolingModel(seed=9)
        for side in range(1, maxsize + 10):
            model.pool(np.full((side, 2, 3), 0.5), 1, vdd=1.0)
        assert _mismatch_maps.cache_info().currsize <= maxsize
