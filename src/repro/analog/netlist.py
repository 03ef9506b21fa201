"""Circuit container: a named bag of components plus node bookkeeping.

A :class:`Circuit` is a purely structural object — it validates connectivity
and assigns MNA indices, while the numerical work lives in
:mod:`repro.analog.mna`.  The API mirrors a minimal SPICE netlist:

>>> from repro.analog import Circuit, Resistor, VoltageSource
>>> c = Circuit("divider")
>>> _ = c.add(VoltageSource("Vin", "in", "0", 1.0))
>>> _ = c.add(Resistor("R1", "in", "mid", 1e3))
>>> _ = c.add(Resistor("R2", "mid", "0", 1e3))
>>> sorted(c.nodes)
['in', 'mid']
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .components import GROUND, Component


class NetlistError(ValueError):
    """Raised for structural problems: duplicate names, missing ground, ..."""


@dataclass
class Circuit:
    """An ordered collection of components sharing a node namespace.

    Node names are arbitrary strings; ``"0"`` is ground.  Component names
    must be unique within the circuit (SPICE convention).
    """

    title: str = "circuit"
    _components: dict[str, Component] = field(default_factory=dict)

    def add(self, component: Component) -> Component:
        """Add a component; returns it so construction can be chained."""
        if component.name in self._components:
            raise NetlistError(f"duplicate component name: {component.name!r}")
        self._components[component.name] = component
        return component

    def __iter__(self) -> Iterator[Component]:
        return iter(self._components.values())

    def __len__(self) -> int:
        return len(self._components)

    def __getitem__(self, name: str) -> Component:
        return self._components[name]

    def __contains__(self, name: str) -> bool:
        return name in self._components

    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(self._components.values())

    @property
    def nodes(self) -> set[str]:
        """All non-ground node names referenced by any component."""
        found: set[str] = set()
        for comp in self:
            found.update(comp.nodes)
        found.discard(GROUND)
        return found

    def node_index(self) -> dict[str, int | None]:
        """Deterministic node -> MNA row mapping; ground maps to ``None``.

        Nodes are indexed in first-appearance order, which makes solver
        results reproducible regardless of dict/set iteration details.
        """
        index: dict[str, int | None] = {GROUND: None}
        counter = 0
        for comp in self:
            for node in comp.nodes:
                if node not in index:
                    index[node] = counter
                    counter += 1
        return index

    def branch_index(self, first_row: int) -> dict[str, int]:
        """Extra-branch (source current) rows starting at ``first_row``."""
        index: dict[str, int] = {}
        row = first_row
        for comp in self:
            if comp.branch_count():
                index[comp.name] = row
                row += comp.branch_count()
        return index

    def validate(self) -> None:
        """Check basic well-formedness before simulation.

        Raises:
            NetlistError: if the circuit is empty or no component touches
                ground (an all-floating circuit has a singular MNA matrix).
        """
        if not self._components:
            raise NetlistError(f"{self.title}: circuit has no components")
        touches_ground = any(GROUND in comp.nodes for comp in self)
        if not touches_ground:
            raise NetlistError(f"{self.title}: no component is connected to ground ('0')")

    def is_nonlinear(self) -> bool:
        return any(comp.is_nonlinear() for comp in self)

    def summary(self) -> str:
        """One-line-per-component human-readable netlist."""
        lines = [f"* {self.title}: {len(self)} components, {len(self.nodes)} nodes"]
        for comp in self:
            lines.append(f"{comp.name} {' '.join(comp.nodes)} [{type(comp).__name__}]")
        return "\n".join(lines)
