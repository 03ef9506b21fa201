"""Property-based tests for the MNA solver on randomized linear networks."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analog import (
    Circuit,
    DC,
    MNASolver,
    Resistor,
    VoltageSource,
    build_resistive_average,
    ideal_shared_node_voltage,
)


class TestLinearNetworkProperties:
    @given(
        st.lists(st.floats(0.05, 0.95), min_size=1, max_size=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_resistive_average_matches_closed_form(self, inputs):
        circuit = build_resistive_average([DC(v) for v in inputs])
        sol = MNASolver(circuit).dc()
        expected = ideal_shared_node_voltage(float(np.mean(inputs)), 1.0)
        assert abs(sol["avg"] - expected) < 1e-8

    @given(
        st.floats(0.1, 10.0),
        st.floats(100.0, 1e6),
        st.floats(100.0, 1e6),
    )
    @settings(max_examples=40, deadline=None)
    def test_divider_formula(self, vin, r1, r2):
        c = Circuit("divider")
        c.add(VoltageSource("V", "in", "0", vin))
        c.add(Resistor("R1", "in", "m", r1))
        c.add(Resistor("R2", "m", "0", r2))
        sol = MNASolver(c).dc()
        assert np.isclose(sol["m"], vin * r2 / (r1 + r2), rtol=1e-9)

    @given(
        st.lists(st.floats(100.0, 1e5), min_size=2, max_size=6),
        st.floats(0.5, 5.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_superposition(self, resistances, vin):
        """Doubling the only source doubles every node voltage."""

        def solve(scale):
            c = Circuit("ladder")
            c.add(VoltageSource("V", "n0", "0", vin * scale))
            for i, r in enumerate(resistances):
                c.add(Resistor(f"R{i}", f"n{i}", f"n{i+1}", r))
            c.add(Resistor("Rend", f"n{len(resistances)}", "0", 1e3))
            return MNASolver(c).dc()

        sol1 = solve(1.0)
        sol2 = solve(2.0)
        for node, v in sol1.items():
            assert np.isclose(sol2[node], 2 * v, rtol=1e-9, atol=1e-12)

    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_average_node_between_extremes(self, inputs):
        """The shared node maps back to a value inside the input range."""
        from repro.analog import invert_shared_node_voltage

        circuit = build_resistive_average([DC(v) for v in inputs])
        sol = MNASolver(circuit).dc()
        recovered = invert_shared_node_voltage(sol["avg"], 1.0)
        assert min(inputs) - 1e-9 <= recovered <= max(inputs) + 1e-9
