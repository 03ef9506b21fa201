"""HiRISE system configuration."""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..codec import serializable


@serializable("HiRISEConfig")
@dataclass(frozen=True)
class HiRISEConfig:
    """Knobs of the end-to-end HiRISE system.

    Attributes:
        pool_k: analog pooling size for the stage-1 frame (the paper sweeps
            2, 4, 8; for Table 3 it picks k so the pooled frame is 320x240).
        grayscale_stage1: merge color channels in the analog domain for the
            stage-1 frame (the optional 3x compression circuit).
        adc_bits: ADC precision (paper: 8).
        roi_pad_fraction: context margin added to each ROI before readout.
        min_roi_px: discard conditioned ROIs smaller than this per side.
        max_rois: cap on ROIs sent back to the sensor (None = unlimited).
        dedup_contained: drop ROIs fully inside another before readout.
        merge_roi_iou: if set, merge ROI pairs overlapping above this IoU
            into a single readout window.
        score_threshold: minimum stage-1 confidence for an ROI to be used.
    """

    pool_k: int = 8
    grayscale_stage1: bool = False
    adc_bits: int = 8
    roi_pad_fraction: float = 0.0
    min_roi_px: int = 2
    max_rois: int | None = None
    dedup_contained: bool = True
    merge_roi_iou: float | None = None
    score_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.pool_k < 1:
            raise ValueError("pool_k must be >= 1")
        if not 1 <= self.adc_bits <= 16:
            raise ValueError("adc_bits must be in [1, 16]")
        if self.roi_pad_fraction < 0:
            raise ValueError("roi_pad_fraction must be non-negative")
        if self.min_roi_px < 1:
            raise ValueError("min_roi_px must be >= 1")
        if self.max_rois is not None and self.max_rois < 1:
            raise ValueError("max_rois must be >= 1 when set")

    @classmethod
    def for_stage1_resolution(
        cls,
        array_resolution: tuple[int, int],
        stage1_resolution: tuple[int, int] = (320, 240),
        **kwargs,
    ) -> "HiRISEConfig":
        """Pick ``pool_k`` so the pooled frame hits a target resolution.

        This is the paper's Table 3 setting: "we use pooling such that the
        output resolution for the stage-1 model is 320x240".

        Args:
            array_resolution: ``(width, height)`` of the pixel array.
            stage1_resolution: desired pooled ``(width, height)``.
            **kwargs: forwarded to the constructor (any field but ``pool_k``,
                which this method derives).

        Raises:
            TypeError: on ``pool_k`` or unknown config fields in ``kwargs``,
                naming the offending keys.
            ValueError: when the array is not the same integer multiple of
                the stage-1 resolution on both axes, naming the values.
        """
        if "pool_k" in kwargs:
            raise TypeError(
                "for_stage1_resolution() derives pool_k from the resolutions; "
                f"got explicit pool_k={kwargs['pool_k']!r}"
            )
        valid = {f.name for f in fields(cls)} - {"pool_k"}
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            raise TypeError(
                f"for_stage1_resolution() got unknown config field(s) {unknown}; "
                f"valid fields: {sorted(valid)}"
            )
        aw, ah = array_resolution
        sw, sh = stage1_resolution
        if aw % sw or ah % sh:
            raise ValueError(
                f"array {aw}x{ah} is not an integer multiple of stage-1 "
                f"{sw}x{sh} (width remainder {aw % sw}, height remainder {ah % sh})"
            )
        if aw // sw != ah // sh:
            raise ValueError(
                f"array {aw}x{ah} needs one pooling factor for both axes to "
                f"reach stage-1 {sw}x{sh}: width gives k={aw // sw} but height "
                f"gives k={ah // sh}"
            )
        return cls(pool_k=aw // sw, **kwargs)
