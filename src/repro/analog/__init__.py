"""Analog circuit simulation substrate (the project's HSPICE substitute).

Public surface:

* :class:`Circuit` plus components (:class:`Resistor`, :class:`Capacitor`,
  :class:`VoltageSource`, :class:`MOSFET`).
* :class:`MNASolver` with DC operating point and backward-Euler transient.
* Waveforms (:class:`DC`, :class:`PWL`, :class:`Pulse`).
* HiRISE pooling-circuit builders and the Fig. 5 test benches.
"""

from .components import (
    GMIN,
    GROUND,
    Capacitor,
    Component,
    MOSFET,
    MOSFETParams,
    Resistor,
    VoltageSource,
)
from .mna import ConvergenceError, MNASolver, TransientResult
from .netlist import Circuit, NetlistError
from .pooling_circuit import (
    AVG_NODE,
    PoolingCircuitSpec,
    build_pooling_circuit,
    build_resistive_average,
    ideal_shared_node_voltage,
    invert_shared_node_voltage,
    pixels_per_pool,
)
from .testbench import (
    BenchResult,
    TrackingFit,
    dc_sweep_bench,
    fit_tracking,
    four_input_bench,
    many_input_bench,
    two_input_bench,
)
from .waveforms import DC, PWL, Pulse, as_waveform

__all__ = [
    "AVG_NODE",
    "BenchResult",
    "Capacitor",
    "Circuit",
    "Component",
    "ConvergenceError",
    "DC",
    "GMIN",
    "GROUND",
    "MNASolver",
    "MOSFET",
    "MOSFETParams",
    "NetlistError",
    "PoolingCircuitSpec",
    "PWL",
    "Pulse",
    "Resistor",
    "TrackingFit",
    "TransientResult",
    "VoltageSource",
    "as_waveform",
    "build_pooling_circuit",
    "build_resistive_average",
    "dc_sweep_bench",
    "fit_tracking",
    "four_input_bench",
    "ideal_shared_node_voltage",
    "invert_shared_node_voltage",
    "many_input_bench",
    "pixels_per_pool",
    "two_input_bench",
]
