"""The paper's Table 1: analytical data-transfer / memory / ADC relations.

All quantities are derived from five parameters: the pixel array ``n x m``
(width x height), the ADC precision ``P_ADC``, the pooling size ``k``, the
ROI set ``{(W_i, H_i)}``, and the stage-1 colorspace.  The three governing
conditions (paper Eqs. 1-3) fall out as properties of
:class:`CostBreakdown`:

* ``D_new = D1(S->P) + D1(P->S) + D2(S->P)  <<  D_old``
* ``Mem_new = max(M1(S->P), M2(S->P))       <<  Mem_old``
* ``C_new = C1(S->P) + C2(S->P)             <<  C_old``

A note on the stage-1 colorspace: Table 1 writes the stage-1 row as
``(n x m)/k^2`` (grayscale — the 3x channel merge is folded into the analog
compression), while the Fig. 7/8 measurements use RGB pooled frames
(``3(n x m)/k^2``); back-solving their reported reduction factors confirms
it.  The ``grayscale`` flag selects between the two conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..transfer import roi_descriptor_bytes
from .roi import ROI, total_area, union_area


def _check_frame(n: int, m: int, p_adc: int) -> None:
    if n < 1 or m < 1:
        raise ValueError(f"invalid pixel array {n}x{m}")
    if not 1 <= p_adc <= 16:
        raise ValueError("P_ADC must be in [1, 16]")


@dataclass(frozen=True)
class StageCosts:
    """One row of Table 1.

    Attributes:
        data_transfer_bits: bits moved over the link.
        memory_bits: bits that must be resident in processor memory.
        adc_conversions: analog-to-digital conversions performed.
    """

    data_transfer_bits: int
    memory_bits: int
    adc_conversions: int

    @property
    def data_transfer_bytes(self) -> float:
        return self.data_transfer_bits / 8.0

    @property
    def memory_bytes(self) -> float:
        return self.memory_bits / 8.0


def conventional_costs(n: int, m: int, p_adc: int = 8) -> StageCosts:
    """Table 1, "Conventional" row: ship the full RGB frame.

    Args:
        n: array width in pixels.
        m: array height in pixels.
        p_adc: ADC precision in bits.
    """
    _check_frame(n, m, p_adc)
    sites = n * m * 3
    return StageCosts(
        data_transfer_bits=sites * p_adc,
        memory_bits=sites * p_adc,
        adc_conversions=sites,
    )


def hirise_stage1_costs(
    n: int,
    m: int,
    k: int,
    p_adc: int = 8,
    grayscale: bool = True,
) -> StageCosts:
    """Table 1, "HiRISE Stage-1" S->P row: the pooled frame.

    Args:
        n, m: array width/height.
        k: pooling size.
        p_adc: ADC precision in bits.
        grayscale: merge channels in the analog domain (Table 1's
            convention); False gives the RGB pooled frame of Figs. 7/8.
    """
    _check_frame(n, m, p_adc)
    if k < 1 or k > min(n, m):
        raise ValueError(f"pooling size {k} invalid for {n}x{m}")
    channels = 1 if grayscale else 3
    pixels = (n // k) * (m // k) * channels
    return StageCosts(
        data_transfer_bits=pixels * p_adc,
        memory_bits=pixels * p_adc,
        adc_conversions=pixels,
    )


def roi_feedback_bits(n_rois: int) -> int:
    """Table 1's ``D1(P->S) = j * (4 * Words)`` in bits."""
    return 8 * roi_descriptor_bytes(n_rois)

def hirise_stage2_costs(
    rois: Sequence[ROI] | Sequence[tuple[int, int]],
    p_adc: int = 8,
    dedup_overlaps: bool = False,
) -> StageCosts:
    """Table 1, "HiRISE Stage-2" row: full-resolution ROI pixels.

    Args:
        rois: ROI objects, or bare ``(W, H)`` tuples.
        p_adc: ADC precision in bits.
        dedup_overlaps: if True and full ROIs are given, count the *union*
            of the boxes (overlapping pixels converted once); otherwise the
            paper's ΣWᵢHᵢ.
    """
    if not 1 <= p_adc <= 16:
        raise ValueError("P_ADC must be in [1, 16]")
    roi_list = [r if isinstance(r, ROI) else ROI(0, 0, int(r[0]), int(r[1])) for r in rois]
    if dedup_overlaps:
        if not all(isinstance(r, ROI) for r in rois):
            raise ValueError("dedup_overlaps requires positioned ROI objects")
        area = union_area(list(rois))
    else:
        area = total_area(roi_list)
    sites = 3 * area
    return StageCosts(
        data_transfer_bits=sites * p_adc,
        memory_bits=sites * p_adc,
        adc_conversions=sites,
    )


@dataclass(frozen=True)
class CostBreakdown:
    """Full Table 1 evaluation for one configuration.

    Attributes:
        conventional: the baseline row.
        stage1: HiRISE stage-1 S->P row.
        feedback_bits: D1(P->S) descriptor bits.
        stage2: HiRISE stage-2 row.
    """

    conventional: StageCosts
    stage1: StageCosts
    feedback_bits: int
    stage2: StageCosts

    # -- Eq. 1: data transfer ------------------------------------------------------

    @property
    def hirise_transfer_bits(self) -> int:
        return (
            self.stage1.data_transfer_bits
            + self.feedback_bits
            + self.stage2.data_transfer_bits
        )

    @property
    def transfer_reduction(self) -> float:
        """``D_old / D_new`` — how many times less data HiRISE moves."""
        new = self.hirise_transfer_bits
        return self.conventional.data_transfer_bits / new if new else float("inf")

    # -- Eq. 2: memory ------------------------------------------------------------

    @property
    def hirise_peak_memory_bits(self) -> int:
        """``max(M1, M2)`` — stage-1 frame is dropped before stage 2."""
        return max(self.stage1.memory_bits, self.stage2.memory_bits)

    @property
    def memory_reduction(self) -> float:
        new = self.hirise_peak_memory_bits
        return self.conventional.memory_bits / new if new else float("inf")

    # -- Eq. 3: conversions ----------------------------------------------------------

    @property
    def hirise_conversions(self) -> int:
        return self.stage1.adc_conversions + self.stage2.adc_conversions

    @property
    def conversion_reduction(self) -> float:
        new = self.hirise_conversions
        return self.conventional.adc_conversions / new if new else float("inf")

    def satisfies_paper_conditions(self) -> bool:
        """All three << conditions hold (interpreted as strictly better)."""
        return (
            self.transfer_reduction > 1.0
            and self.memory_reduction > 1.0
            and self.conversion_reduction > 1.0
        )


def hirise_costs(
    n: int,
    m: int,
    k: int,
    rois: Sequence[ROI] | Sequence[tuple[int, int]],
    p_adc: int = 8,
    grayscale: bool = True,
    dedup_overlaps: bool = False,
) -> CostBreakdown:
    """Evaluate all of Table 1 for one configuration.

    Args:
        n, m: pixel-array width/height.
        k: pooling size.
        rois: stage-2 ROI set.
        p_adc: ADC precision.
        grayscale: stage-1 colorspace convention (see module docstring).
        dedup_overlaps: count overlapping ROI pixels once in stage 2.

    Returns:
        :class:`CostBreakdown`.
    """
    roi_count = len(list(rois))
    return CostBreakdown(
        conventional=conventional_costs(n, m, p_adc),
        stage1=hirise_stage1_costs(n, m, k, p_adc, grayscale),
        feedback_bits=roi_feedback_bits(roi_count),
        stage2=hirise_stage2_costs(rois, p_adc, dedup_overlaps),
    )
