"""Sensor energy model (paper Sec. 4.4, Fig. 8, Table 3).

The paper's energy accounting has two components:

* **ADC conversions** at 125 pJ each (45 nm 8-bit ADC, ref [3]) — the
  dominant term.  The 2560x1920 RGB baseline is 14.75 M conversions
  -> 1.843 mJ, matching the paper's stated baseline.
* **Analog pooling circuitry** — 1.71-91.4 nJ per frame, "several orders of
  magnitude smaller than ADC conversion"; modeled as 25 fJ per pooled
  output (back-solved from the paper's range).

The link carries no energy term of its own: the paper folds it into the
conversions.  The frame prices below take their counts from Table 1
(:mod:`repro.core.costs`), so the analytical and measured energies share
one formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .costs import conventional_costs, hirise_stage1_costs, hirise_stage2_costs
from .roi import ROI

#: Paper ref [3]: 250 mW at 2 GS/s -> 125 pJ per conversion.
ADC_ENERGY_PER_CONVERSION = 125e-12

#: Back-solved from the paper's 1.71-91.4 nJ pooling-circuit range.
POOLING_ENERGY_PER_OUTPUT = 25e-15


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-frame sensor energy in joules.

    Attributes:
        stage1_adc: conversions of the pooled frame (0 for the baseline).
        stage2_adc: conversions of the ROI pixels (or the full frame for
            the baseline, stored here).
        pooling: analog pooling circuitry.
    """

    stage1_adc: float
    stage2_adc: float
    pooling: float = 0.0

    @property
    def total(self) -> float:
        return self.stage1_adc + self.stage2_adc + self.pooling

    @property
    def total_mj(self) -> float:
        return self.total * 1e3

    def share(self, component: str) -> float:
        """Fraction of total energy in one component (by attribute name)."""
        value = getattr(self, component)
        return value / self.total if self.total > 0 else 0.0


@dataclass(frozen=True)
class EnergyModel:
    """Energy coefficients of the sensing front end: the one price list.
    Sensor reads and the transfer ledger only count; this turns the counts
    into joules.

    Attributes:
        adc_energy_per_conversion: joules per ADC sample.
        pooling_energy_per_output: joules per analog pooled output.
    """

    adc_energy_per_conversion: float = ADC_ENERGY_PER_CONVERSION
    pooling_energy_per_output: float = POOLING_ENERGY_PER_OUTPUT

    def conventional_frame(self, n: int, m: int) -> EnergyBreakdown:
        """Baseline: convert and ship the entire RGB frame.

        Args:
            n, m: pixel-array width/height.
        """
        return self.from_conversions(0, conventional_costs(n, m).adc_conversions)

    def hirise_frame(
        self,
        n: int,
        m: int,
        k: int,
        rois: Sequence[ROI] | Sequence[tuple[int, int]],
        grayscale: bool = False,
    ) -> EnergyBreakdown:
        """HiRISE: pooled stage-1 frame plus full-resolution ROIs.

        Args:
            n, m: pixel-array width/height.
            k: pooling size.
            rois: stage-2 ROI set (objects or ``(W, H)`` tuples).
            grayscale: stage-1 channels merged in the analog domain.
        """
        pooled = hirise_stage1_costs(n, m, k, grayscale=grayscale).adc_conversions
        return self.from_conversions(
            pooled, hirise_stage2_costs(rois).adc_conversions, pooled_outputs=pooled
        )

    def from_conversions(
        self, stage1_conversions: int, stage2_conversions: int, pooled_outputs: int = 0
    ) -> EnergyBreakdown:
        """Breakdown from measured conversion counts (pipeline accounting)."""
        return EnergyBreakdown(
            stage1_adc=stage1_conversions * self.adc_energy_per_conversion,
            stage2_adc=stage2_conversions * self.adc_energy_per_conversion,
            pooling=pooled_outputs * self.pooling_energy_per_output,
        )
