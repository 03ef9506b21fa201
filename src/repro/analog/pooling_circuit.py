"""Netlist builders for the HiRISE analog averaging circuit (paper Fig. 4).

The paper's compression idea: connect the source-follower (SF) outputs of a
group of pixels together through per-pixel resistors of value ``N * R`` (for
``N`` connected pixels) into a shared node, and tie that shared node to
``-VDD`` through a single resistor ``R``.  Kirchhoff's current law at the
shared node then gives

    sum_i (V_i - V_avg) / (N R) = (V_avg + VDD) / R
    =>  V_avg = (mean(V_i) - VDD) / 2

so the shared node tracks the *mean* of the pixel outputs with gain 1/2 and
offset ``-VDD/2``.  The negative offset keeps the node below zero, which the
paper uses to guarantee the SF/row-select transistors satisfy the
``V_DS < V_GS - V_TH`` activation condition (their Eq. 4).

Two builders are provided:

* :func:`build_resistive_average` — the passive resistor core only (inputs
  drive the resistors directly).  Its exact solution is the affine map above
  and is used to validate the MNA solver analytically.
* :func:`build_pooling_circuit` — the full Fig. 4 arrangement with a level-1
  NMOS source follower (and optional row-select switch) per pixel, which is
  what the Fig. 5 test benches simulate.

A pooling size of ``k x k`` over RGB uses ``k * k * 3`` connected pixels;
:func:`pixels_per_pool` encodes that relationship.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .components import MOSFET, MOSFETParams, Capacitor, Resistor, VoltageSource
from .netlist import Circuit

#: Shared averaging node name used by all builders.
AVG_NODE = "avg"


def pixels_per_pool(k: int, channels: int = 3) -> int:
    """Number of pixels merged by one ``k x k`` pool over ``channels``.

    The paper's example: 2x2 pooling of RGB merges ``2*2*3 = 12`` pixels.
    """
    if k < 1:
        raise ValueError("pooling size k must be >= 1")
    if channels < 1:
        raise ValueError("channels must be >= 1")
    return k * k * channels


def ideal_shared_node_voltage(mean_input: float, vdd: float) -> float:
    """Analytic shared-node voltage of the passive resistor core.

    ``V_avg = (mean - VDD) / 2``; see the module docstring derivation.
    """
    return 0.5 * (mean_input - vdd)


def invert_shared_node_voltage(v_avg: float, vdd: float) -> float:
    """Recover the mean input from the shared-node voltage (readout inverse)."""
    return 2.0 * v_avg + vdd


@dataclass(frozen=True)
class PoolingCircuitSpec:
    """Electrical parameters of the averaging circuit.

    Attributes:
        vdd: supply voltage (V); the pulldown rail sits at ``-vdd``.
        r_unit: the unit resistance ``R`` (ohms).  Each of the ``N`` input
            legs uses ``N * r_unit`` and the pulldown uses ``r_unit``.
        sf_params: level-1 parameters for the source followers.
        sf_w_over_l: SF aspect ratio; large values reduce the input-dependent
            overdrive (i.e. the compression nonlinearity) of the follower.
        row_select: insert the Fig. 4 row-select transistor (T4) in series
            with each follower, gate tied to VDD (switched on).
        load_capacitance: optional capacitance at the shared node, modeling
            the column-line parasitic; gives the RC settling visible in the
            paper's transient plots.
    """

    vdd: float = 1.0
    r_unit: float = 100e3
    sf_params: MOSFETParams = MOSFETParams(vth=0.45, kp=200e-6, lam=0.02)
    sf_w_over_l: float = 10.0
    row_select: bool = True
    load_capacitance: float | None = None


def build_resistive_average(
    inputs: Sequence[object],
    spec: PoolingCircuitSpec | None = None,
    title: str = "resistive-average",
) -> Circuit:
    """Passive averaging core: inputs drive the ``N*R`` legs directly.

    Args:
        inputs: one DC value or waveform callable per pixel.
        spec: electrical parameters (defaults to :class:`PoolingCircuitSpec`).
        title: netlist title.

    Returns:
        A circuit whose shared node is :data:`AVG_NODE`; input ``i`` is
        driven at node ``in{i}``.
    """
    spec = spec or PoolingCircuitSpec()
    n = len(inputs)
    if n < 1:
        raise ValueError("need at least one input")
    circuit = Circuit(title)
    for i, value in enumerate(inputs):
        circuit.add(VoltageSource(f"Vin{i}", f"in{i}", "0", value))
        circuit.add(Resistor(f"Rleg{i}", f"in{i}", AVG_NODE, n * spec.r_unit))
    _add_pulldown(circuit, spec)
    return circuit


def build_pooling_circuit(
    inputs: Sequence[object],
    spec: PoolingCircuitSpec | None = None,
    title: str = "hirise-pooling",
) -> Circuit:
    """Full Fig. 4 circuit: per-pixel SF (+ optional row select) into the core.

    Each pixel output voltage drives the gate of an NMOS source follower
    whose drain ties to VDD.  With row select enabled, an NMOS switch whose
    gate is at VDD sits between the follower source and the resistor leg.

    Args:
        inputs: one DC value or waveform callable per pixel (the pixel
            voltages, in ``[0, vdd]``).
        spec: electrical parameters.
        title: netlist title.

    Returns:
        Circuit with nodes ``in{i}`` (pixel voltages), ``sf{i}`` (follower
        outputs), and :data:`AVG_NODE` (the pooled output).
    """
    spec = spec or PoolingCircuitSpec()
    n = len(inputs)
    if n < 1:
        raise ValueError("need at least one input")
    circuit = Circuit(title)
    circuit.add(VoltageSource("Vdd", "vdd", "0", spec.vdd))
    for i, value in enumerate(inputs):
        circuit.add(VoltageSource(f"Vin{i}", f"in{i}", "0", value))
        circuit.add(
            MOSFET(
                f"Tsf{i}",
                drain="vdd",
                gate=f"in{i}",
                source=f"sf{i}",
                params=spec.sf_params,
                polarity="nmos",
                w_over_l=spec.sf_w_over_l,
            )
        )
        leg_from = f"sf{i}"
        if spec.row_select:
            circuit.add(
                MOSFET(
                    f"Trs{i}",
                    drain=f"sf{i}",
                    gate="vdd",
                    source=f"rs{i}",
                    params=spec.sf_params,
                    polarity="nmos",
                    w_over_l=4.0 * spec.sf_w_over_l,
                )
            )
            leg_from = f"rs{i}"
        circuit.add(Resistor(f"Rleg{i}", leg_from, AVG_NODE, n * spec.r_unit))
    _add_pulldown(circuit, spec)
    return circuit


def _add_pulldown(circuit: Circuit, spec: PoolingCircuitSpec) -> None:
    """Shared-node pulldown: ``R`` to the ``-VDD`` rail (+ optional load C)."""
    circuit.add(VoltageSource("Vneg", "vneg", "0", -spec.vdd))
    circuit.add(Resistor("Rpull", AVG_NODE, "vneg", spec.r_unit))
    if spec.load_capacitance:
        circuit.add(Capacitor("Cload", AVG_NODE, "0", spec.load_capacitance))
