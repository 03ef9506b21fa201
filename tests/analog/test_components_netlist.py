"""Additional unit tests for individual components and the netlist layer."""

import numpy as np
import pytest

from repro.analog import (
    Capacitor,
    Circuit,
    MOSFET,
    MOSFETParams,
    Resistor,
    VoltageSource,
)


class TestComponentValidation:
    def test_resistor_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Resistor("R1", "a", "b", 0.0)
        with pytest.raises(ValueError):
            Resistor("R1", "a", "b", -10.0)

    def test_capacitor_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Capacitor("C1", "a", "b", 0.0)

    def test_mosfet_rejects_bad_wl(self):
        with pytest.raises(ValueError):
            MOSFET("M1", "d", "g", "s", w_over_l=0.0)

    def test_nodes_tuple_populated(self):
        r = Resistor("R1", "in", "out", 1e3)
        assert r.nodes == ("in", "out")
        m = MOSFET("M1", "d", "g", "s")
        assert m.nodes == ("d", "g", "s")


class TestMOSFETDeviceEquations:
    """Direct checks of the square-law current function."""

    def test_cutoff(self):
        m = MOSFET("M1", "d", "g", "s", params=MOSFETParams(vth=0.45, lam=0.0))
        assert m.drain_current(vd=1.0, vg=0.2, vs=0.0) == 0.0

    def test_saturation_value(self):
        p = MOSFETParams(vth=0.4, kp=100e-6, lam=0.0)
        m = MOSFET("M1", "d", "g", "s", params=p, w_over_l=1.0)
        # vgs=1.0, vov=0.6, vds=2.0 > vov -> Id = 0.5*k*vov^2
        expected = 0.5 * 100e-6 * 0.6**2
        assert m.drain_current(2.0, 1.0, 0.0) == pytest.approx(expected)

    def test_triode_value(self):
        p = MOSFETParams(vth=0.4, kp=100e-6, lam=0.0)
        m = MOSFET("M1", "d", "g", "s", params=p, w_over_l=1.0)
        # vov=0.6, vds=0.2 < vov -> Id = k*(vov*vds - vds^2/2)
        expected = 100e-6 * (0.6 * 0.2 - 0.02)
        assert m.drain_current(0.2, 1.0, 0.0) == pytest.approx(expected)

    def test_symmetry_negative_vds(self):
        """Swapping drain/source negates the current."""
        m = MOSFET("M1", "d", "g", "s")
        forward = m.drain_current(0.3, 1.0, 0.0)
        backward = m.drain_current(0.0, 1.0, 0.3)
        assert backward == pytest.approx(-forward)

    def test_current_continuous_at_pinchoff(self):
        p = MOSFETParams(vth=0.4, kp=100e-6, lam=0.0)
        m = MOSFET("M1", "d", "g", "s", params=p)
        vov = 0.6
        below = m.drain_current(vov - 1e-9, 1.0, 0.0)
        above = m.drain_current(vov + 1e-9, 1.0, 0.0)
        assert below == pytest.approx(above, rel=1e-6)

    def test_pmos_conducts_with_negative_vgs(self):
        m = MOSFET("M1", "d", "g", "s", polarity="pmos")
        # Source high, gate low: PMOS on, current flows source->drain
        # (negative into the drain terminal by our convention).
        i = m.drain_current(vd=0.0, vg=0.0, vs=1.2)
        assert i < 0.0


class TestCircuitQueries:
    def test_len_contains_getitem(self):
        c = Circuit("q")
        c.add(Resistor("R1", "a", "0", 1e3))
        c.add(VoltageSource("V1", "a", "0", 1.0))
        assert len(c) == 2
        assert "R1" in c
        assert isinstance(c["V1"], VoltageSource)

    def test_nodes_excludes_ground(self):
        c = Circuit("q")
        c.add(Resistor("R1", "a", "0", 1e3))
        assert c.nodes == {"a"}

    def test_node_index_deterministic(self):
        c = Circuit("q")
        c.add(Resistor("R1", "b", "a", 1e3))
        c.add(Resistor("R2", "c", "0", 1e3))
        idx = c.node_index()
        assert idx["b"] == 0 and idx["a"] == 1 and idx["c"] == 2
        assert idx["0"] is None

    def test_summary_lists_components(self):
        c = Circuit("sum")
        c.add(Resistor("Rx", "a", "0", 1e3))
        text = c.summary()
        assert "Rx" in text
        assert "Resistor" in text

    def test_is_nonlinear_flag(self):
        c = Circuit("lin")
        c.add(Resistor("R1", "a", "0", 1e3))
        assert not c.is_nonlinear()
        c.add(MOSFET("M1", "a", "a", "0"))
        assert c.is_nonlinear()

    def test_branch_rows_follow_the_node_rows(self):
        """Each voltage source gets one extra MNA row (its current), after
        the node rows, in netlist order; other components get none."""
        c = Circuit("q")
        c.add(VoltageSource("V1", "a", "0", 1.0))
        c.add(Resistor("R1", "a", "b", 1e3))
        c.add(VoltageSource("V2", "b", "0", 0.5))
        n_nodes = len(c.nodes)
        assert c.branch_index(n_nodes) == {"V1": n_nodes, "V2": n_nodes + 1}
        assert [comp.name for comp in c.components] == ["V1", "R1", "V2"]
