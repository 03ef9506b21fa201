"""Tests for the Fig. 4 averaging-circuit builders."""

import pytest

from repro.analog import (
    AVG_NODE,
    DC,
    MNASolver,
    PoolingCircuitSpec,
    build_pooling_circuit,
    build_resistive_average,
    ideal_shared_node_voltage,
    invert_shared_node_voltage,
    pixels_per_pool,
)
from repro.core import EnergyModel


class TestPixelsPerPool:
    def test_paper_example_2x2_rgb_is_12(self):
        assert pixels_per_pool(2) == 12

    def test_8x8_rgb_is_192(self):
        assert pixels_per_pool(8) == 192

    def test_grayscale_channel_merge_only(self):
        assert pixels_per_pool(1, channels=3) == 3

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            pixels_per_pool(0)


class TestResistiveCore:
    """The passive network has the closed form V = (mean - VDD)/2."""

    @pytest.mark.parametrize("inputs", [
        [0.5], [0.2, 0.8], [0.1, 0.5, 0.9], [0.0, 0.0, 1.0, 1.0],
    ])
    def test_matches_analytic_mean(self, inputs):
        circuit = build_resistive_average([DC(v) for v in inputs])
        sol = MNASolver(circuit).dc()
        mean = sum(inputs) / len(inputs)
        assert sol[AVG_NODE] == pytest.approx(
            ideal_shared_node_voltage(mean, 1.0), abs=1e-9
        )

    def test_inverse_recovers_mean(self):
        v = ideal_shared_node_voltage(0.37, 1.0)
        assert invert_shared_node_voltage(v, 1.0) == pytest.approx(0.37)

    def test_shared_node_below_zero(self):
        """The paper's design goal: node G stays below 0 V."""
        circuit = build_resistive_average([DC(1.0)] * 4)  # max inputs
        sol = MNASolver(circuit).dc()
        assert sol[AVG_NODE] <= 0.0

    def test_scales_to_192_inputs(self):
        inputs = [DC(1.0 if i % 2 else 0.0) for i in range(192)]
        sol = MNASolver(build_resistive_average(inputs)).dc()
        assert sol[AVG_NODE] == pytest.approx(
            ideal_shared_node_voltage(0.5, 1.0), abs=1e-6
        )

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            build_resistive_average([])


class TestTransistorCircuit:
    def test_monotone_in_mean(self):
        """More light -> higher shared-node voltage, across the range."""
        outputs = []
        for level in (0.2, 0.5, 0.8):
            circuit = build_pooling_circuit([DC(level)] * 4)
            outputs.append(MNASolver(circuit).dc()[AVG_NODE])
        assert outputs[0] < outputs[1] < outputs[2]

    def test_insensitive_to_permutation(self):
        """Averaging is symmetric: input order must not matter."""
        a = MNASolver(build_pooling_circuit([DC(0.2), DC(0.9), DC(0.5)])).dc()
        b = MNASolver(build_pooling_circuit([DC(0.5), DC(0.2), DC(0.9)])).dc()
        assert a[AVG_NODE] == pytest.approx(b[AVG_NODE], abs=1e-9)

    def test_row_select_changes_little(self):
        """The row-select switch adds only a small series drop."""
        with_rs = build_pooling_circuit(
            [DC(0.6)] * 4, PoolingCircuitSpec(row_select=True)
        )
        without_rs = build_pooling_circuit(
            [DC(0.6)] * 4, PoolingCircuitSpec(row_select=False)
        )
        va = MNASolver(with_rs).dc()[AVG_NODE]
        vb = MNASolver(without_rs).dc()[AVG_NODE]
        assert abs(va - vb) < 0.05

    def test_load_capacitance_slows_settling(self):
        spec = PoolingCircuitSpec(load_capacitance=10e-12)
        circuit = build_pooling_circuit([DC(0.8)] * 2, spec)
        solver = MNASolver(circuit)
        result = solver.transient(t_stop=1e-5, dt=1e-7, from_dc=False)
        final = result.voltage(AVG_NODE)[-1]
        early = result.voltage(AVG_NODE)[1]
        assert abs(early - final) > 1e-3  # not settled instantly


def pooling_energy(pooled_outputs):
    """The pooling circuit's price, from the one energy price list."""
    return EnergyModel().from_conversions(0, 0, pooled_outputs).pooling


class TestPoolingEnergyModel:
    def test_paper_range_lower_bound(self):
        """8x8 grayscale at 2560x1920 -> 76.8k outputs -> ~1.9 nJ."""
        energy = pooling_energy(2560 * 1920 // 64)
        assert 1e-9 < energy < 3e-9

    def test_paper_range_upper_bound(self):
        """2x2 RGB at 2560x1920 -> 3.69M outputs -> ~92 nJ."""
        energy = pooling_energy(2560 * 1920 // 4 * 3)
        assert 80e-9 < energy < 100e-9
