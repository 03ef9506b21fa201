"""Tests for the ADC model."""

import numpy as np
import pytest

from repro.core import ADC_ENERGY_PER_CONVERSION
from repro.sensor import ADCModel


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
        adc8, adc12 = ADCModel(bits=8), ADCModel(bits=12)
        err8 = np.abs(adc8.to_float(adc8.convert(v)) - v).max()
        err12 = np.abs(adc12.to_float(adc12.convert(v)) - v).max()
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
        # same once normalized
        assert not np.array_equal(
            adc.to_float(adc.convert(v)), adc.to_float(adc.convert(v))
        )

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


class TestInPlaceSteps:
    """``add_noise`` and ``quantize`` are the two steps a sensor read runs
    on its own float64 buffer; together they must give what ``convert``
    then ``to_float`` gives on a copy."""

    @pytest.mark.parametrize("bits", [1, 8, 12, 16])
    def test_quantize_equals_to_float_of_convert(self, bits):
        adc = ADCModel(bits=bits)
        v = np.concatenate([np.linspace(-0.5, 1.5, 1001), [0.0, 1.0, adc.lsb / 2]])
        buf = v.copy()
        adc.quantize(buf)
        assert np.array_equal(buf, adc.to_float(adc.convert(v)))

    def test_quantize_turns_negative_zero_into_zero(self):
        buf = np.array([-0.0, -1e-9])
        ADCModel().quantize(buf)
        assert np.array_equal(buf, [0.0, 0.0])
        assert not np.signbit(buf).any()

    def test_add_noise_without_noise_draws_nothing(self):
        adc = ADCModel(noise_lsb=0.0)
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        buf = np.full(16, 0.25)
        adc.add_noise(buf, rng)
        assert np.all(buf == 0.25)
        assert rng.bit_generator.state == state

    def test_add_noise_adds_draws_scaled_to_lsb(self):
        adc = ADCModel(bits=8, noise_lsb=0.5)
        buf = np.full(64, 0.5)
        adc.add_noise(buf, np.random.default_rng(9))
        draws = np.random.default_rng(9).standard_normal(64)
        assert np.allclose(buf - 0.5, draws * 0.5 * adc.lsb, rtol=0, atol=1e-15)
        # the in-place pair is the convert path for the same generator
        quantized = buf.copy()
        adc.quantize(quantized)
        codes = adc.convert(np.full(64, 0.5), rng=np.random.default_rng(9))
        assert np.array_equal(quantized, adc.to_float(codes))


class TestEnergy:
    def test_paper_constant(self):
        """250 mW / 2 GS/s = 125 pJ per conversion."""
        assert ADC_ENERGY_PER_CONVERSION == pytest.approx(125e-12)

    def test_bytes_per_sample(self):
        assert ADCModel(bits=8).bytes_per_sample() == 1
        assert ADCModel(bits=12).bytes_per_sample() == 2
