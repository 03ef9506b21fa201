"""Model graphs: ordered operator DAGs with named tensors.

A :class:`ModelGraph` is a thin container: nodes execute in list order (the
single-threaded interpreter order TFLite-Micro uses), each consuming named
tensors and producing one named output tensor.  Shapes are inferred once at
construction, so analysis is O(nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ops import OpSpec, TensorShape

#: Reserved tensor name for the graph input.
INPUT = "input"


@dataclass
class Node:
    """One executed operator.

    Attributes:
        name: unique node name.
        op: operator spec.
        inputs: names of consumed tensors.
        output: name of the produced tensor (defaults to ``name``).
    """

    name: str
    op: OpSpec
    inputs: list[str]
    output: str = ""

    def __post_init__(self) -> None:
        if not self.output:
            self.output = self.name


class GraphError(ValueError):
    """Structural problem in a model graph."""


class ModelGraph:
    """An ordered operator graph with shape inference.

    Args:
        name: model name (reported in tables).
        input_shape: the single input tensor's shape.

    Usage::

        g = ModelGraph("tiny", TensorShape(96, 96, 3))
        t = g.add("stem", Conv(16, 3, 2))          # consumes INPUT by default
        t = g.add("dw1", DepthwiseConv(3, 1), [t])
        ...
    """

    def __init__(self, name: str, input_shape: TensorShape):
        self.name = name
        self.input_shape = input_shape
        self.nodes: list[Node] = []
        self._shapes: dict[str, TensorShape] = {INPUT: input_shape}

    def add(self, name: str, op: OpSpec, inputs: list[str] | None = None) -> str:
        """Append a node; returns its output tensor name.

        Args:
            name: unique node name (also the output tensor name).
            op: operator spec.
            inputs: consumed tensor names; defaults to the previous node's
                output (or the graph input for the first node).
        """
        if any(n.name == name for n in self.nodes):
            raise GraphError(f"duplicate node name {name!r}")
        if inputs is None:
            inputs = [self.nodes[-1].output if self.nodes else INPUT]
        for t in inputs:
            if t not in self._shapes:
                raise GraphError(f"node {name!r} consumes unknown tensor {t!r}")
        node = Node(name=name, op=op, inputs=list(inputs))
        out_shape = op.output_shape([self._shapes[t] for t in inputs])
        if node.output in self._shapes:
            raise GraphError(f"tensor {node.output!r} produced twice")
        self._shapes[node.output] = out_shape
        self.nodes.append(node)
        return node.output

    # -- queries -----------------------------------------------------------------

    def shape(self, tensor: str) -> TensorShape:
        return self._shapes[tensor]

    @property
    def output(self) -> str:
        if not self.nodes:
            raise GraphError("empty graph has no output")
        return self.nodes[-1].output

    @property
    def output_shape(self) -> TensorShape:
        return self._shapes[self.output]

    def total_params(self) -> int:
        """Total trainable parameters across the graph."""
        return sum(
            node.op.weight_params([self._shapes[t] for t in node.inputs])
            for node in self.nodes
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def summary(self) -> str:
        """Tabular description: name, op, output shape, params."""
        lines = [f"{self.name} (input {self.input_shape})"]
        for node in self.nodes:
            shapes = [self._shapes[t] for t in node.inputs]
            lines.append(
                f"  {node.name:<28} {type(node.op).__name__:<14} "
                f"-> {self._shapes[node.output]!s:<12} "
                f"params={node.op.weight_params(shapes):,}"
            )
        lines.append(f"  total params: {self.total_params():,}")
        return "\n".join(lines)
