"""Peak-SRAM and flash analysis of model graphs (TFLite-Micro style).

The paper (Sec. 4.2) analyzes peak SRAM "by looking at the execution order
of operations ... and finding the point where the most memory is required",
with TFLite-Micro as the interpreter.  That is exactly the tensor-lifetime
model implemented here:

* a tensor is *live* from the step that produces it through the last step
  that consumes it;
* executing node ``i`` requires all its input tensors plus its output
  tensor to be resident simultaneously (plus any other still-live tensor —
  e.g. a residual skip held across a block);
* fused activations (``Activation`` ops) operate in place and do not
  allocate a second buffer;
* peak SRAM is the maximum over steps of the live-byte total.

Flash is the total weight storage.  Both use 1 byte/element by default
(int8 quantization, the paper's deployment dtype).

:func:`analyze_patched` models MCUNetV2's *patch-based inference* (ref [7]):
the first ``n_patch_ops`` operators run per spatial patch (with a receptive
-field halo), so their activations are a patch-sized fraction of the full
tensors; the remaining ops run on the full (already small) feature maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import INPUT, ModelGraph
from .ops import Activation, TensorShape


@dataclass
class MemoryReport:
    """Result of a memory analysis.

    Attributes:
        model: model name.
        peak_sram_bytes: activation-arena peak (includes the live input).
        flash_bytes: total weight bytes.
        peak_node: node name at which the peak occurs.
        per_node_bytes: live bytes at each execution step, in order.
        dtype_bytes: bytes per activation/weight element used.
    """

    model: str
    peak_sram_bytes: int
    flash_bytes: int
    peak_node: str
    per_node_bytes: list[tuple[str, int]] = field(default_factory=list)
    dtype_bytes: int = 1


def _lifetimes(graph: ModelGraph) -> tuple[dict[str, int], dict[str, int]]:
    """Tensor -> (production step, last consumption step)."""
    produced: dict[str, int] = {INPUT: -1}
    last_use: dict[str, int] = {INPUT: -1}
    for i, node in enumerate(graph.nodes):
        produced[node.output] = i
        last_use.setdefault(node.output, i)
        for t in node.inputs:
            last_use[t] = max(last_use.get(t, i), i)
    # The graph output must survive past the last step.
    last_use[graph.output] = len(graph.nodes) - 1
    return produced, last_use


def analyze(
    graph: ModelGraph,
    dtype_bytes: int = 1,
    include_input: bool = True,
) -> MemoryReport:
    """Tensor-lifetime peak-SRAM and flash analysis.

    Args:
        graph: the model graph (execution order = node order).
        dtype_bytes: bytes per element (1 for int8, 4 for float32).
        include_input: count the input tensor while it is still live
            (TFLite-Micro keeps it in the arena; the paper's numbers for
            stage-2 models include the ROI crop).

    Returns:
        :class:`MemoryReport`.
    """
    produced, last_use = _lifetimes(graph)
    sizes = {t: graph.shape(t).bytes(dtype_bytes) for t in produced}
    if not include_input:
        sizes[INPUT] = 0

    # In-place activations share their input buffer: zero-size output,
    # and the input inherits the activation output's lifetime.
    alias: dict[str, str] = {}
    for i, node in enumerate(graph.nodes):
        if isinstance(node.op, Activation):
            src = node.inputs[0]
            root = alias.get(src, src)
            alias[node.output] = root
            last_use[root] = max(last_use[root], last_use[node.output])
            sizes[node.output] = 0

    per_node: list[tuple[str, int]] = []
    peak, peak_node = 0, ""
    for i, node in enumerate(graph.nodes):
        live = 0
        for t, p in produced.items():
            if p <= i <= last_use[t]:
                live += sizes[t]
        per_node.append((node.name, live))
        if live > peak:
            peak, peak_node = live, node.name
    return MemoryReport(
        model=graph.name,
        peak_sram_bytes=peak,
        flash_bytes=graph.total_params() * dtype_bytes,
        peak_node=peak_node,
        per_node_bytes=per_node,
        dtype_bytes=dtype_bytes,
    )


def analyze_patched(
    graph: ModelGraph,
    n_patch_ops: int,
    patch_grid: int = 4,
    halo: int = 2,
    dtype_bytes: int = 1,
) -> MemoryReport:
    """Peak SRAM under MCUNetV2-style patch-based inference.

    The first ``n_patch_ops`` nodes execute once per patch on a
    ``1/patch_grid``-scaled spatial extent (plus ``halo`` pixels of
    receptive-field margin per side); only one patch's activations are live
    at a time, together with the (full) output of the patched stage being
    assembled.  Subsequent nodes run on full tensors as usual.

    Args:
        graph: the model graph.
        n_patch_ops: how many leading ops run patch-wise.
        patch_grid: patches per side (4 -> 16 patches).
        halo: per-side overlap in pixels at the *input* of the patch stage.
        dtype_bytes: bytes per element.

    Returns:
        :class:`MemoryReport`; ``peak_node`` reports the stage
        (``"patch-stage"`` or a full-stage node name) where the peak lies.
    """
    if not 0 < n_patch_ops <= len(graph.nodes):
        raise ValueError("n_patch_ops must be in [1, len(graph)]")

    def patched(shape: TensorShape) -> TensorShape:
        return TensorShape(
            max(shape.h // patch_grid + halo, 1),
            max(shape.w // patch_grid + halo, 1),
            shape.c,
        )

    # Peak within the patch stage: run the lifetime analysis on the prefix
    # with patch-scaled tensor sizes, plus the accumulating full output of
    # the patch stage.
    produced, last_use = _lifetimes(graph)
    boundary_tensor = graph.nodes[n_patch_ops - 1].output
    boundary_bytes = graph.shape(boundary_tensor).bytes(dtype_bytes)

    patch_peak = 0
    for i in range(n_patch_ops):
        live = 0
        for t, p in produced.items():
            if p <= i <= last_use[t] and p < n_patch_ops:
                live += patched(graph.shape(t)).bytes(dtype_bytes)
        patch_peak = max(patch_peak, live + boundary_bytes)

    # Peak in the full-resolution remainder.
    full_peak, full_node = 0, ""
    for i in range(n_patch_ops, len(graph.nodes)):
        live = 0
        for t, p in produced.items():
            if p <= i <= last_use[t]:
                size = graph.shape(t).bytes(dtype_bytes)
                live += size
        if live > full_peak:
            full_peak, full_node = live, graph.nodes[i].name

    if patch_peak >= full_peak:
        peak, peak_node = patch_peak, "patch-stage"
    else:
        peak, peak_node = full_peak, full_node
    return MemoryReport(
        model=f"{graph.name} (patched x{patch_grid * patch_grid})",
        peak_sram_bytes=peak,
        flash_bytes=graph.total_params() * dtype_bytes,
        peak_node=peak_node,
        dtype_bytes=dtype_bytes,
    )
