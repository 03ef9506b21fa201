"""Tests for grayscale conversion and the noise model."""

import numpy as np
import pytest

from repro.sensor import LUMA_WEIGHTS, NoiseModel, analog_grayscale
from repro.sensor.noise import _fixed_pattern_maps


def digital_grayscale(image: np.ndarray) -> np.ndarray:
    """BT.601 luma, what an in-processor pipeline computes: the oracle the
    analog merge is compared with."""
    return image @ LUMA_WEIGHTS


class TestGrayscale:
    def test_analog_is_unweighted_mean(self):
        img = np.zeros((2, 2, 3))
        img[:, :, 0] = 0.9
        assert np.allclose(analog_grayscale(img), 0.3)

    def test_digital_uses_luma_weights(self):
        img = np.zeros((2, 2, 3))
        img[:, :, 1] = 1.0  # pure green
        assert np.allclose(digital_grayscale(img), LUMA_WEIGHTS[1])

    def test_paths_agree_on_gray_input(self):
        img = np.full((3, 3, 3), 0.42)
        assert np.allclose(analog_grayscale(img), digital_grayscale(img))

    def test_paths_differ_on_chromatic_input(self):
        """The analog/digital grayscale gap the paper retrains around."""
        img = np.zeros((2, 2, 3))
        img[:, :, 2] = 1.0  # pure blue: mean=1/3, luma=0.114
        assert not np.allclose(analog_grayscale(img), digital_grayscale(img))

    def test_luma_weights_sum_to_one(self):
        assert LUMA_WEIGHTS.sum() == pytest.approx(1.0)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            analog_grayscale(np.zeros((4, 4)))


class TestNoiseModel:
    def test_noiseless_is_noiseless(self):
        model = NoiseModel.noiseless()
        assert (model.read_noise, model.shot_noise_scale, model.dsnu, model.prnu) == (
            0.0, 0.0, 0.0, 0.0,
        )
        rng = np.random.default_rng(0)
        noise = model.temporal_noise(np.full((5, 5), 0.5), 1.0, rng)
        assert np.all(noise == 0.0)

    @pytest.mark.parametrize("field", ["read_noise", "shot_noise_scale", "dsnu", "prnu"])
    @pytest.mark.parametrize("sigma", [-0.01, float("nan")])
    def test_rejects_bad_sigma(self, field, sigma):
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            NoiseModel(**{field: sigma})

    def test_fixed_pattern_deterministic(self):
        model = NoiseModel(seed=7)
        g1, o1 = model.fixed_pattern_maps((4, 4, 3))
        g2, o2 = model.fixed_pattern_maps((4, 4, 3))
        assert np.array_equal(g1, g2)
        assert np.array_equal(o1, o2)

    def test_fixed_pattern_memo_is_read_only_and_bounded(self):
        model = NoiseModel(seed=5)
        rng = np.random.default_rng(model.seed)
        want_gain = 1.0 + model.prnu * rng.standard_normal((6, 4, 3))
        want_offset = model.dsnu * rng.standard_normal((6, 4, 3))
        for _ in range(2):  # cold, then served from the memo
            gain, offset = model.fixed_pattern_maps([6, 4, 3])
            assert np.array_equal(gain, want_gain)
            assert np.array_equal(offset, want_offset)
        for table in (gain, offset):
            with pytest.raises(ValueError):
                table[0, 0, 0] = 0.0
        maxsize = _fixed_pattern_maps.cache_info().maxsize
        assert maxsize is not None
        for side in range(1, maxsize + 4):
            model.fixed_pattern_maps((side, 2, 3))
        assert _fixed_pattern_maps.cache_info().currsize <= maxsize

    def test_gain_map_centered_at_one(self):
        model = NoiseModel(prnu=0.01, seed=3)
        gain, _ = model.fixed_pattern_maps((100, 100))
        assert abs(gain.mean() - 1.0) < 0.01

    def test_shot_noise_grows_with_signal(self):
        model = NoiseModel(read_noise=0.0, shot_noise_scale=1e-2, dsnu=0, prnu=0)
        rng = np.random.default_rng(1)
        dark = model.temporal_noise(np.full(20000, 0.01), 1.0, rng)
        bright = model.temporal_noise(np.full(20000, 1.0), 1.0, rng)
        assert bright.std() > 3 * dark.std()

    def test_read_noise_magnitude(self):
        model = NoiseModel(read_noise=1e-3, shot_noise_scale=0.0, dsnu=0, prnu=0)
        rng = np.random.default_rng(2)
        noise = model.temporal_noise(np.zeros(50000), 1.0, rng)
        assert noise.std() == pytest.approx(1e-3, rel=0.05)
