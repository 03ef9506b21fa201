"""Memory-analysis substrate: op graphs, peak-SRAM/flash analyzer, model zoo."""

from .analyzer import MemoryReport, analyze, analyze_patched
from .graph import INPUT, GraphError, ModelGraph, Node
from .mcu import ALL_MCUS, MCUProfile, NRF52840, STM32F411, STM32F746, STM32H743
from .ops import (
    Activation,
    Add,
    Conv,
    Dense,
    DepthwiseConv,
    GlobalPool,
    OpSpec,
    TensorShape,
)
from .zoo import (
    MCUNETV2_PATCH_OPS,
    MCUNETV2_SETTINGS,
    MOBILENETV2_SETTINGS,
    mcunetv2_classifier,
    mcunetv2_detector,
    mobilenetv2,
)

__all__ = [
    "ALL_MCUS",
    "Activation",
    "Add",
    "Conv",
    "Dense",
    "DepthwiseConv",
    "GlobalPool",
    "GraphError",
    "INPUT",
    "MCUNETV2_PATCH_OPS",
    "MCUNETV2_SETTINGS",
    "MCUProfile",
    "MOBILENETV2_SETTINGS",
    "MemoryReport",
    "ModelGraph",
    "NRF52840",
    "Node",
    "OpSpec",
    "STM32F411",
    "STM32F746",
    "STM32H743",
    "TensorShape",
    "analyze",
    "analyze_patched",
    "mcunetv2_classifier",
    "mcunetv2_detector",
    "mobilenetv2",
]
