"""Modified nodal analysis: DC operating point and backward-Euler transient.

This is the numerical core of the project's HSPICE substitute.  It solves

* **DC**: ``f(v) = 0`` by damped Newton-Raphson, where each iteration
  assembles the linearized MNA system from the component stamps.
* **Transient**: backward Euler — at each time step the dynamic components
  (capacitors) stamp their companion models around the previous solution
  and the resulting (possibly nonlinear) system is solved by the same
  Newton loop, warm-started from the previous time point.

Dense ``numpy.linalg.solve`` is used: HiRISE circuits are at most a few
hundred nodes (the 192-input pooling bench), far below the point where
sparse methods pay off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import StampContext
from .netlist import Circuit


class ConvergenceError(RuntimeError):
    """Newton-Raphson failed to converge within the iteration budget."""


@dataclass
class TransientResult:
    """Waveforms from a transient run.

    Attributes:
        time: 1-D array of time points, including t=0.
        voltages: node name -> 1-D array aligned with ``time``.
    """

    time: np.ndarray
    voltages: dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of one node (ground returns zeros)."""
        if node == "0":
            return np.zeros_like(self.time)
        return self.voltages[node]

    def sample(self, node: str, t: float) -> float:
        """Linear interpolation of a node waveform at time ``t``."""
        return float(np.interp(t, self.time, self.voltage(node)))


@dataclass
class MNASolver:
    """Solver bound to one circuit.

    Attributes:
        circuit: the netlist to simulate (validated on construction).
        max_newton_iter: Newton iteration budget per solve.
        abstol: absolute voltage convergence tolerance (V).
        reltol: relative convergence tolerance.
        damping: maximum per-iteration voltage change (V); updates larger
            than this are scaled down, which tames the square-law devices.
    """

    circuit: Circuit
    max_newton_iter: int = 200
    abstol: float = 1e-9
    reltol: float = 1e-6
    damping: float = 0.5

    def __post_init__(self) -> None:
        self.circuit.validate()
        self._node_index = self.circuit.node_index()
        self._n_nodes = sum(1 for v in self._node_index.values() if v is not None)
        self._branch_index = self.circuit.branch_index(self._n_nodes)
        self._n_unknowns = self._n_nodes + sum(
            comp.branch_count() for comp in self.circuit
        )

    # -- assembly ------------------------------------------------------------

    def _assemble(
        self,
        x: np.ndarray,
        t: float,
        dt: float | None,
        state: dict[str, float],
    ) -> tuple[np.ndarray, np.ndarray]:
        A = np.zeros((self._n_unknowns, self._n_unknowns))
        z = np.zeros(self._n_unknowns)

        def lookup(node: str) -> float:
            idx = self._node_index[node]
            return 0.0 if idx is None else float(x[idx])

        ctx = StampContext(
            A=A,
            z=z,
            node_index=self._node_index,
            branch_index=self._branch_index,
            v=lookup,
            t=t,
            dt=dt,
            state=state,
        )
        for comp in self.circuit:
            comp.stamp(ctx)
        return A, z

    def _solution_dict(self, x: np.ndarray) -> dict[str, float]:
        out: dict[str, float] = {}
        for node, idx in self._node_index.items():
            if idx is not None:
                out[node] = float(x[idx])
        return out

    # -- Newton loop -----------------------------------------------------------

    def _solve_point(
        self,
        t: float,
        dt: float | None,
        state: dict[str, float],
        x0: np.ndarray | None,
    ) -> np.ndarray:
        x = np.zeros(self._n_unknowns) if x0 is None else x0.copy()
        if not self.circuit.is_nonlinear():
            A, z = self._assemble(x, t, dt, state)
            return np.linalg.solve(A, z)

        for _ in range(self.max_newton_iter):
            A, z = self._assemble(x, t, dt, state)
            x_new = np.linalg.solve(A, z)
            delta = x_new - x
            max_step = float(np.max(np.abs(delta))) if delta.size else 0.0
            if max_step > self.damping:
                x_new = x + delta * (self.damping / max_step)
            if max_step <= self.abstol + self.reltol * float(np.max(np.abs(x_new))):
                return x_new
            x = x_new
        raise ConvergenceError(
            f"{self.circuit.title}: Newton did not converge at t={t:g}s "
            f"after {self.max_newton_iter} iterations"
        )

    # -- public API ------------------------------------------------------------

    def dc(self, t: float = 0.0, x0: np.ndarray | None = None) -> dict[str, float]:
        """DC operating point with sources evaluated at time ``t``.

        Returns:
            Node name -> voltage mapping (ground omitted).
        """
        x = self._solve_point(t, dt=None, state={}, x0=x0)
        return self._solution_dict(x)

    def transient(
        self,
        t_stop: float,
        dt: float,
        t_start: float = 0.0,
        from_dc: bool = True,
    ) -> TransientResult:
        """Fixed-step backward-Euler transient from ``t_start`` to ``t_stop``.

        Args:
            t_stop: end time (seconds), exclusive of rounding slop.
            dt: time step (seconds); must be positive.
            t_start: initial time; the first output sample.
            from_dc: if True, initialize from the DC operating point at
                ``t_start``; otherwise start from all-zeros.

        Returns:
            :class:`TransientResult` with every node waveform.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        if t_stop <= t_start:
            raise ValueError("t_stop must exceed t_start")

        n_steps = int(round((t_stop - t_start) / dt))
        times = t_start + dt * np.arange(n_steps + 1)

        x = np.zeros(self._n_unknowns)
        if from_dc:
            x = self._solve_point(t_start, dt=None, state={}, x0=None)
        state = self._solution_dict(x)

        history = np.zeros((n_steps + 1, self._n_nodes))
        history[0] = x[: self._n_nodes]

        for step in range(1, n_steps + 1):
            t = float(times[step])
            x = self._solve_point(t, dt=dt, state=state, x0=x)
            state = self._solution_dict(x)
            history[step] = x[: self._n_nodes]

        voltages = {
            node: history[:, idx]
            for node, idx in self._node_index.items()
            if idx is not None
        }
        return TransientResult(time=times, voltages=voltages)
