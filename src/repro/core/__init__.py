"""HiRISE core: ROI algebra, analytical cost model, energy model, pipelines."""

from .config import HiRISEConfig
from .costs import (
    CostBreakdown,
    StageCosts,
    conventional_costs,
    hirise_costs,
    hirise_stage1_costs,
    hirise_stage2_costs,
    roi_feedback_bits,
)
from .energy import (
    ADC_ENERGY_PER_CONVERSION,
    EnergyBreakdown,
    EnergyModel,
    POOLING_ENERGY_PER_OUTPUT,
)
from .pipeline import (
    ConventionalPipeline,
    HiRISEPipeline,
    PipelineOutcome,
    classify_crops,
)
from .profiling import PhaseProfile, PhaseProfiler, PhaseStats, profiled
from .tracking import ROITracker, Track
from .report import Comparison, compare, comparison_report, format_bytes, format_energy
from .roi import (
    ROI,
    dedup_contained,
    merge_overlapping,
    prepare_rois,
    total_area,
    union_area,
)

__all__ = [
    "ADC_ENERGY_PER_CONVERSION",
    "Comparison",
    "ConventionalPipeline",
    "CostBreakdown",
    "EnergyBreakdown",
    "EnergyModel",
    "HiRISEConfig",
    "HiRISEPipeline",
    "POOLING_ENERGY_PER_OUTPUT",
    "PhaseProfile",
    "PhaseProfiler",
    "PhaseStats",
    "PipelineOutcome",
    "ROI",
    "ROITracker",
    "Track",
    "StageCosts",
    "classify_crops",
    "compare",
    "comparison_report",
    "conventional_costs",
    "dedup_contained",
    "format_bytes",
    "format_energy",
    "hirise_costs",
    "hirise_stage1_costs",
    "hirise_stage2_costs",
    "merge_overlapping",
    "prepare_rois",
    "profiled",
    "roi_feedback_bits",
    "total_area",
    "union_area",
]
