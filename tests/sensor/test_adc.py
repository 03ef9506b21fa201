"""Tests for the ADC model."""

import numpy as np
import pytest

from repro.sensor import ADC_ENERGY_45NM_8BIT, ADCModel


class TestQuantization:
    def test_full_scale_maps_to_max_code(self):
        adc = ADCModel(bits=8)
        assert adc.convert(np.array([1.0]))[0] == 255

    def test_zero_maps_to_zero(self):
        assert ADCModel().convert(np.array([0.0]))[0] == 0

    def test_clipping_above_vref(self):
        assert ADCModel().convert(np.array([2.0]))[0] == 255

    def test_clipping_below_zero(self):
        assert ADCModel().convert(np.array([-0.5]))[0] == 0

    def test_roundtrip_error_within_half_lsb(self):
        adc = ADCModel(bits=8)
        v = np.linspace(0.0, 1.0, 1001)
        recon = adc.to_float(adc.convert(v))
        assert np.max(np.abs(recon - v)) <= adc.lsb / 2 + 1e-12

    def test_more_bits_less_error(self):
        v = np.linspace(0.0, 1.0, 997)
        err8 = np.abs(ADCModel(bits=8).digitize(v) - v).max()
        err12 = np.abs(ADCModel(bits=12).digitize(v) - v).max()
        assert err12 < err8

    def test_1bit_adc(self):
        adc = ADCModel(bits=1)
        codes = adc.convert(np.array([0.0, 0.4, 0.6, 1.0]))
        assert list(codes) == [0, 0, 1, 1]

    def test_noise_is_deterministic_given_seed(self):
        # two converters with one seed replay the same noise *stream*...
        a = ADCModel(noise_lsb=0.5, seed=11)
        b = ADCModel(noise_lsb=0.5, seed=11)
        v = np.full(100, 0.5)
        assert np.array_equal(a.convert(v), b.convert(v))
        assert np.array_equal(a.convert(v), b.convert(v))

    def test_consecutive_conversions_draw_fresh_noise(self):
        # regression: the fallback rng used to be re-seeded per call, so
        # every noisy frame in a stream got the identical realization
        adc = ADCModel(noise_lsb=0.5, seed=11)
        v = np.full(100, 0.5)
        first, second = adc.convert(v), adc.convert(v)
        assert not np.array_equal(first, second)
        # same through the normalized readout path
        assert not np.array_equal(adc.digitize(v), adc.digitize(v))

    def test_explicit_rng_still_wins(self):
        adc = ADCModel(noise_lsb=0.5, seed=11)
        v = np.full(64, 0.5)
        one = adc.convert(v, rng=np.random.default_rng(3))
        two = adc.convert(v, rng=np.random.default_rng(3))
        assert np.array_equal(one, two)

    def test_concurrent_fallback_draws_are_distinct(self):
        # the lazily-created fallback stream is shared state: racing
        # threads must neither duplicate a realization nor crash the rng
        import threading

        adc = ADCModel(noise_lsb=0.5, seed=11)
        v = np.full(256, 0.5)
        gate = threading.Barrier(4)
        outputs = []
        lock = threading.Lock()

        def draw():
            gate.wait(timeout=5)
            codes = adc.convert(v)
            with lock:
                outputs.append(codes)

        threads = [threading.Thread(target=draw) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(len(outputs)):
            for j in range(i + 1, len(outputs)):
                assert not np.array_equal(outputs[i], outputs[j])

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            ADCModel(bits=0)
        with pytest.raises(ValueError):
            ADCModel(bits=17)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan")])
    def test_rejects_bad_noise_lsb(self, sigma):
        # convert() draws only for noise_lsb > 0, so a negative sigma
        # would otherwise be accepted and silently ignored.
        with pytest.raises(ValueError, match="noise_lsb must be non-negative"):
            ADCModel(noise_lsb=sigma)


class TestEnergy:
    def test_paper_constant(self):
        """250 mW / 2 GS/s = 125 pJ per conversion."""
        assert ADC_ENERGY_45NM_8BIT == pytest.approx(125e-12)

    def test_paper_baseline_energy(self):
        """2560x1920 RGB full conversion = 1.843 mJ (paper Table 3)."""
        adc = ADCModel()
        energy = adc.energy(2560 * 1920 * 3)
        assert energy == pytest.approx(1.843e-3, rel=0.001)

    def test_energy_linear(self):
        adc = ADCModel()
        assert adc.energy(1000) == pytest.approx(10 * adc.energy(100))

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            ADCModel().energy(-1)

    def test_bytes_per_sample(self):
        assert ADCModel(bits=8).bytes_per_sample() == 1
        assert ADCModel(bits=12).bytes_per_sample() == 2
