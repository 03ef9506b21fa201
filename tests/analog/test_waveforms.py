"""Tests for the SPICE-style stimulus waveforms."""

import pytest

from repro.analog import DC, PWL, Pulse, as_waveform


class TestDC:
    def test_constant_everywhere(self):
        w = DC(0.7)
        assert w(0.0) == 0.7
        assert w(1e9) == 0.7

    def test_as_waveform_wraps_numbers(self):
        w = as_waveform(1.5)
        assert isinstance(w, DC)
        assert w(3.0) == 1.5

    def test_as_waveform_passes_callables_through(self):
        f = lambda t: 2 * t
        assert as_waveform(f) is f


class TestPWL:
    def test_holds_before_first_point(self):
        w = PWL([(1.0, 2.0), (2.0, 4.0)])
        assert w(0.0) == 2.0

    def test_holds_after_last_point(self):
        w = PWL([(0.0, 1.0), (1.0, 3.0)])
        assert w(5.0) == 3.0

    def test_linear_interpolation(self):
        w = PWL([(0.0, 0.0), (2.0, 1.0)])
        assert w(1.0) == pytest.approx(0.5)
        assert w(0.5) == pytest.approx(0.25)

    def test_multiple_segments(self):
        w = PWL([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
        assert w(1.5) == pytest.approx(0.5)

    def test_rejects_unsorted_points(self):
        with pytest.raises(ValueError):
            PWL([(1.0, 0.0), (0.5, 1.0)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PWL([])

    def test_vertical_step_allowed(self):
        w = PWL([(0.0, 0.0), (1.0, 0.0), (1.0, 5.0), (2.0, 5.0)])
        assert w(0.5) == 0.0
        assert w(1.5) == 5.0


class TestPulse:
    def test_sits_at_v1_before_delay(self):
        w = Pulse(v1=0.0, v2=1.0, delay=1e-6)
        assert w(0.0) == 0.0

    def test_reaches_v2_after_rise(self):
        w = Pulse(v1=0.0, v2=1.0, delay=0.0, rise=1e-9, width=1e-6, period=10e-6)
        assert w(0.5e-6) == pytest.approx(1.0)

    def test_returns_to_v1_after_fall(self):
        w = Pulse(v1=0.2, v2=1.0, delay=0.0, rise=1e-9, fall=1e-9, width=1e-6, period=10e-6)
        assert w(5e-6) == pytest.approx(0.2)

    def test_periodicity(self):
        w = Pulse(v1=0.0, v2=1.0, rise=1e-9, fall=1e-9, width=1e-6, period=4e-6)
        assert w(0.5e-6) == pytest.approx(w(4.5e-6))

    def test_mid_rise_value(self):
        w = Pulse(v1=0.0, v2=1.0, rise=2e-6, width=10e-6, period=100e-6)
        assert w(1e-6) == pytest.approx(0.5)
