"""Circuit components for the modified-nodal-analysis (MNA) simulator.

The component set is the minimum needed to simulate the HiRISE in-sensor
compression circuit (paper Fig. 4) and its test benches (Fig. 5): resistors,
capacitors, independent voltage sources, and level-1 (square-law)
MOSFETs used as source followers and row selectors.

Each component knows how to *stamp* itself into the MNA matrix ``A`` and
right-hand side ``z``.  The solver (:mod:`repro.analog.mna`) owns the node
and branch index maps and calls back into the components with a
:class:`StampContext`.  Linear components ignore the Newton iterate;
nonlinear components stamp a linearized companion model around it.

Sign conventions follow standard MNA: for every node row, currents *leaving*
the node through a device appear on the left-hand side with positive sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .waveforms import as_waveform

GROUND = "0"

#: Small conductance added in parallel with nonlinear devices to keep the
#: Jacobian well conditioned (same role as SPICE's GMIN).
GMIN = 1e-12

#: Finite-difference step used to linearize nonlinear devices.  The level-1
#: MOSFET equations are piecewise smooth, so a symmetric difference at this
#: scale gives Newton-quality derivatives for the voltage ranges (<= a few
#: volts) used in sensor circuits.
_FD_STEP = 1e-7


class Component:
    """Base class: a named device attached to a tuple of node names."""

    name: str
    nodes: tuple[str, ...]

    def branch_count(self) -> int:
        """Number of extra MNA current unknowns this device introduces."""
        return 0

    def is_nonlinear(self) -> bool:
        return False

    def stamp(self, ctx: "StampContext") -> None:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass
class StampContext:
    """Everything a component needs to write its MNA contribution.

    Attributes:
        A: dense MNA matrix being assembled, shape ``(n, n)``.
        z: right-hand side vector, shape ``(n,)``.
        node_index: node name -> row index (ground maps to ``None``).
        branch_index: component name -> extra-branch row index.
        v: current Newton iterate as a node-voltage lookup.
        t: current simulation time in seconds.
        dt: time step (``None`` during DC analysis).
        state: previous time-step node voltages (for dynamic companions).
    """

    A: np.ndarray
    z: np.ndarray
    node_index: Mapping[str, int | None]
    branch_index: Mapping[str, int]
    v: Callable[[str], float]
    t: float
    dt: float | None
    state: Mapping[str, float]

    def idx(self, node: str) -> int | None:
        return self.node_index[node]

    def add_A(self, i: int | None, j: int | None, value: float) -> None:
        if i is not None and j is not None:
            self.A[i, j] += value

    def add_z(self, i: int | None, value: float) -> None:
        if i is not None:
            self.z[i] += value

    def stamp_conductance(self, a: str, b: str, g: float) -> None:
        """Two-terminal conductance ``g`` between nodes ``a`` and ``b``."""
        ia, ib = self.idx(a), self.idx(b)
        self.add_A(ia, ia, g)
        self.add_A(ib, ib, g)
        self.add_A(ia, ib, -g)
        self.add_A(ib, ia, -g)

    def stamp_current(self, a: str, b: str, i: float) -> None:
        """Independent current ``i`` flowing from node ``a`` to node ``b``."""
        self.add_z(self.idx(a), -i)
        self.add_z(self.idx(b), +i)


@dataclass
class Resistor(Component):
    """Ideal linear resistor of ``resistance`` ohms between two nodes."""

    name: str
    a: str
    b: str
    resistance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ValueError(f"{self.name}: resistance must be positive")
        self.nodes = (self.a, self.b)

    def stamp(self, ctx: StampContext) -> None:
        ctx.stamp_conductance(self.a, self.b, 1.0 / self.resistance)


@dataclass
class Capacitor(Component):
    """Linear capacitor, simulated with a backward-Euler companion model.

    During DC analysis the capacitor is an open circuit (only ``GMIN`` is
    stamped to avoid floating nodes).
    """

    name: str
    a: str
    b: str
    capacitance: float

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise ValueError(f"{self.name}: capacitance must be positive")
        self.nodes = (self.a, self.b)

    def stamp(self, ctx: StampContext) -> None:
        if ctx.dt is None:
            ctx.stamp_conductance(self.a, self.b, GMIN)
            return
        geq = self.capacitance / ctx.dt
        v_prev = ctx.state.get(self.a, 0.0) - ctx.state.get(self.b, 0.0)
        ctx.stamp_conductance(self.a, self.b, geq)
        # Companion current source recreates the charge stored at t - dt.
        ctx.stamp_current(self.b, self.a, geq * v_prev)


@dataclass
class VoltageSource(Component):
    """Independent voltage source from ``plus`` to ``minus``.

    ``value`` may be a number (DC) or any callable of time (see
    :mod:`repro.analog.waveforms`).  Adds one branch-current unknown.
    """

    name: str
    plus: str
    minus: str
    value: object = 0.0

    def __post_init__(self) -> None:
        self.nodes = (self.plus, self.minus)
        self.waveform = as_waveform(self.value)

    def branch_count(self) -> int:
        return 1

    def stamp(self, ctx: StampContext) -> None:
        k = ctx.branch_index[self.name]
        ip, im = ctx.idx(self.plus), ctx.idx(self.minus)
        ctx.add_A(ip, k, 1.0)
        ctx.add_A(im, k, -1.0)
        ctx.add_A(k, ip, 1.0)
        ctx.add_A(k, im, -1.0)
        ctx.add_z(k, float(self.waveform(ctx.t)))


@dataclass(frozen=True)
class MOSFETParams:
    """Level-1 square-law parameters (45 nm-flavored defaults).

    Attributes:
        vth: threshold voltage magnitude in volts.
        kp: process transconductance ``mu * Cox`` in A/V^2.
        lam: channel-length modulation in 1/V.
    """

    vth: float = 0.45
    kp: float = 200e-6
    lam: float = 0.02


@dataclass
class MOSFET(Component):
    """Level-1 MOSFET with terminals (drain, gate, source); body tied to source.

    The device is symmetric: when the applied drain-source voltage is
    negative the terminals are swapped for evaluation and the current is
    negated, which keeps the model physical and Newton iterations stable.

    The MNA stamp linearizes the drain current around the current Newton
    iterate using symmetric finite differences on :meth:`drain_current`,
    producing the full 3-terminal Jacobian (the gate draws no DC current, so
    its column only appears through the transconductance terms of the drain
    and source rows).
    """

    name: str
    drain: str
    gate: str
    source: str
    params: MOSFETParams = field(default_factory=MOSFETParams)
    polarity: str = "nmos"
    w_over_l: float = 2.0

    def __post_init__(self) -> None:
        if self.polarity not in ("nmos", "pmos"):
            raise ValueError(f"{self.name}: polarity must be 'nmos' or 'pmos'")
        if self.w_over_l <= 0:
            raise ValueError(f"{self.name}: W/L must be positive")
        self.nodes = (self.drain, self.gate, self.source)

    def is_nonlinear(self) -> bool:
        return True

    def _ids_forward(self, vgs: float, vds: float) -> float:
        """Square-law drain current for the NMOS orientation, ``vds >= 0``."""
        p = self.params
        k = p.kp * self.w_over_l
        vov = vgs - p.vth
        if vov <= 0.0:
            return 0.0
        if vds < vov:  # triode
            return k * (vov * vds - 0.5 * vds * vds)
        return 0.5 * k * vov * vov * (1.0 + p.lam * vds)

    def drain_current(self, vd: float, vg: float, vs: float) -> float:
        """Current entering the drain terminal at the given node voltages."""
        if self.polarity == "pmos":
            # A PMOS is an NMOS with every terminal voltage negated and the
            # resulting current direction reversed.
            return -self._nmos_current(-vd, -vg, -vs)
        return self._nmos_current(vd, vg, vs)

    def _nmos_current(self, vd: float, vg: float, vs: float) -> float:
        if vd >= vs:
            return self._ids_forward(vg - vs, vd - vs)
        # Symmetric operation: the physical source is the drain terminal.
        return -self._ids_forward(vg - vd, vs - vd)

    def stamp(self, ctx: StampContext) -> None:
        vd, vg, vs = ctx.v(self.drain), ctx.v(self.gate), ctx.v(self.source)
        i0 = self.drain_current(vd, vg, vs)
        h = _FD_STEP
        g_d = (self.drain_current(vd + h, vg, vs) - self.drain_current(vd - h, vg, vs)) / (2 * h)
        g_g = (self.drain_current(vd, vg + h, vs) - self.drain_current(vd, vg - h, vs)) / (2 * h)
        g_s = (self.drain_current(vd, vg, vs + h) - self.drain_current(vd, vg, vs - h)) / (2 * h)

        i_d, i_g, i_s = ctx.idx(self.drain), ctx.idx(self.gate), ctx.idx(self.source)
        # Current i0 leaves the drain node and enters the source node.
        # Linearized: i = i0 + g_d*dVd + g_g*dVg + g_s*dVs.
        const = i0 - g_d * vd - g_g * vg - g_s * vs
        for col, g in ((i_d, g_d), (i_g, g_g), (i_s, g_s)):
            ctx.add_A(i_d, col, +g)
            ctx.add_A(i_s, col, -g)
        ctx.add_z(i_d, -const)
        ctx.add_z(i_s, +const)
        # GMIN keeps isolated drain/source nodes solvable in cutoff.
        ctx.stamp_conductance(self.drain, self.source, GMIN)
