"""Tests for the MNA solver: DC operating points and transients.

Every circuit here has a hand-derivable solution, so the solver is checked
against closed-form answers rather than golden files.
"""

import numpy as np
import pytest

from repro.analog import (
    Capacitor,
    Circuit,
    DC,
    MNASolver,
    MOSFET,
    MOSFETParams,
    NetlistError,
    PWL,
    Resistor,
    VoltageSource,
)


def divider(r1=1e3, r2=1e3, vin=1.0) -> Circuit:
    c = Circuit("divider")
    c.add(VoltageSource("Vin", "in", "0", vin))
    c.add(Resistor("R1", "in", "mid", r1))
    c.add(Resistor("R2", "mid", "0", r2))
    return c


class TestDCLinear:
    def test_voltage_divider(self):
        sol = MNASolver(divider()).dc()
        assert sol["mid"] == pytest.approx(0.5)

    def test_asymmetric_divider(self):
        sol = MNASolver(divider(r1=3e3, r2=1e3, vin=2.0)).dc()
        assert sol["mid"] == pytest.approx(0.5)

    def test_two_sources_superposition(self):
        c = Circuit("two")
        c.add(VoltageSource("V1", "a", "0", 1.0))
        c.add(VoltageSource("V2", "b", "0", 3.0))
        c.add(Resistor("Ra", "a", "m", 1e3))
        c.add(Resistor("Rb", "b", "m", 1e3))
        c.add(Resistor("Rg", "m", "0", 1e9))
        sol = MNASolver(c).dc()
        assert sol["m"] == pytest.approx(2.0, rel=1e-3)

    def test_negative_supply(self):
        c = Circuit("neg")
        c.add(VoltageSource("V1", "a", "0", -1.0))
        c.add(Resistor("R1", "a", "m", 1e3))
        c.add(Resistor("R2", "m", "0", 1e3))
        sol = MNASolver(c).dc()
        assert sol["m"] == pytest.approx(-0.5)

    def test_time_varying_source_sampled_at_t(self):
        c = Circuit("pwl")
        c.add(VoltageSource("V1", "a", "0", PWL([(0.0, 0.0), (1.0, 1.0)])))
        c.add(Resistor("R1", "a", "0", 1e3))
        assert MNASolver(c).dc(t=0.5)["a"] == pytest.approx(0.5)


class TestValidation:
    def test_empty_circuit_rejected(self):
        with pytest.raises(NetlistError):
            MNASolver(Circuit("empty"))

    def test_floating_circuit_rejected(self):
        c = Circuit("floating")
        c.add(Resistor("R1", "a", "b", 1e3))
        with pytest.raises(NetlistError):
            MNASolver(c)

    def test_duplicate_component_rejected(self):
        c = Circuit("dup")
        c.add(Resistor("R1", "a", "0", 1e3))
        with pytest.raises(NetlistError):
            c.add(Resistor("R1", "a", "0", 2e3))


class TestMOSFETDC:
    def test_cutoff_no_current(self):
        """Gate at 0 V: drain pulled fully to VDD through the resistor."""
        c = Circuit("cutoff")
        c.add(VoltageSource("Vdd", "vdd", "0", 1.0))
        c.add(VoltageSource("Vg", "g", "0", 0.0))
        c.add(Resistor("Rd", "vdd", "d", 10e3))
        c.add(MOSFET("M1", drain="d", gate="g", source="0"))
        sol = MNASolver(c).dc()
        assert sol["d"] == pytest.approx(1.0, abs=1e-3)

    def test_saturation_current_matches_square_law(self):
        """Common-source amp in saturation: check Id = k/2 (Vgs-Vth)^2."""
        params = MOSFETParams(vth=0.45, kp=200e-6, lam=0.0)
        vg, w_over_l, rd, vdd = 0.8, 2.0, 10e3, 2.0
        k = params.kp * w_over_l
        expected_id = 0.5 * k * (vg - params.vth) ** 2
        c = Circuit("cs-amp")
        c.add(VoltageSource("Vdd", "vdd", "0", vdd))
        c.add(VoltageSource("Vg", "g", "0", vg))
        c.add(Resistor("Rd", "vdd", "d", rd))
        c.add(MOSFET("M1", drain="d", gate="g", source="0", params=params, w_over_l=w_over_l))
        sol = MNASolver(c).dc()
        measured_id = (vdd - sol["d"]) / rd
        assert measured_id == pytest.approx(expected_id, rel=1e-4)

    def test_source_follower_tracks_gate(self):
        """SF output sits roughly Vth + overdrive below the gate."""
        c = Circuit("sf")
        c.add(VoltageSource("Vdd", "vdd", "0", 1.5))
        c.add(VoltageSource("Vg", "g", "0", 1.2))
        c.add(MOSFET("M1", drain="vdd", gate="g", source="s", w_over_l=10.0))
        c.add(Resistor("Rs", "s", "0", 100e3))
        sol = MNASolver(c).dc()
        assert 0.5 < sol["s"] < 0.8  # 1.2 - 0.45 - small overdrive

    def test_pmos_mirror_symmetry(self):
        """A PMOS with inverted rails mirrors the NMOS solution."""
        n = Circuit("nmos")
        n.add(VoltageSource("Vdd", "vdd", "0", 1.0))
        n.add(VoltageSource("Vg", "g", "0", 0.8))
        n.add(Resistor("Rd", "vdd", "d", 10e3))
        n.add(MOSFET("M1", drain="d", gate="g", source="0", polarity="nmos"))
        p = Circuit("pmos")
        p.add(VoltageSource("Vss", "vss", "0", -1.0))
        p.add(VoltageSource("Vg", "g", "0", -0.8))
        p.add(Resistor("Rd", "vss", "d", 10e3))
        p.add(MOSFET("M1", drain="d", gate="g", source="0", polarity="pmos"))
        sol_n = MNASolver(n).dc()
        sol_p = MNASolver(p).dc()
        assert sol_p["d"] == pytest.approx(-sol_n["d"], rel=1e-6)

    def test_polarity_validation(self):
        with pytest.raises(ValueError):
            MOSFET("M1", "d", "g", "s", polarity="cmos")


class TestTransient:
    def test_rc_charge_curve(self):
        """RC step response matches 1 - exp(-t/RC) within BE accuracy."""
        r, cap = 1e3, 1e-6  # tau = 1 ms
        c = Circuit("rc")
        c.add(VoltageSource("Vin", "in", "0", 1.0))
        c.add(Resistor("R1", "in", "out", r))
        c.add(Capacitor("C1", "out", "0", cap))
        result = MNASolver(c).transient(t_stop=5e-3, dt=1e-5, from_dc=False)
        tau = r * cap
        expected = 1.0 - np.exp(-result.time / tau)
        measured = result.voltage("out")
        assert np.max(np.abs(measured[1:] - expected[1:])) < 0.01

    def test_rc_discharge_from_dc(self):
        """Starting from DC with a falling source discharges the cap."""
        c = Circuit("rc-fall")
        c.add(VoltageSource("Vin", "in", "0", PWL([(0.0, 1.0), (1e-6, 0.0)])))
        c.add(Resistor("R1", "in", "out", 1e3))
        c.add(Capacitor("C1", "out", "0", 1e-6))
        result = MNASolver(c).transient(t_stop=10e-3, dt=5e-5)
        assert result.voltage("out")[0] == pytest.approx(1.0, abs=1e-6)
        assert result.voltage("out")[-1] < 0.01

    def test_ground_waveform_is_zero(self):
        result = MNASolver(divider()).transient(t_stop=1e-4, dt=1e-5)
        assert np.all(result.voltage("0") == 0.0)

    def test_sample_interpolates(self):
        c = Circuit("ramp")
        c.add(VoltageSource("Vin", "a", "0", PWL([(0.0, 0.0), (1e-3, 1.0)])))
        c.add(Resistor("R1", "a", "0", 1e3))
        result = MNASolver(c).transient(t_stop=1e-3, dt=1e-4)
        assert result.sample("a", 0.5e-3) == pytest.approx(0.5, abs=1e-6)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            MNASolver(divider()).transient(t_stop=1e-3, dt=0.0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            MNASolver(divider()).transient(t_stop=0.0, dt=1e-5)
