"""ROI algebra: the region-of-interest type and its geometric operations.

An :class:`ROI` is what flows backwards over the link in HiRISE: the stage-1
model's box, expressed in *pixel-array* coordinates, that the sensor's
selection encoder will read out at full resolution.  The operations here are
the ones the end-to-end system needs:

* scaling between the pooled stage-1 frame and the full-resolution array;
* clipping to the array and padding (context margins for stage 2);
* containment dedup and IoU-based merging (what the encoder does to avoid
  converting the same pixels twice);
* exact union area of a set of ROIs — the paper's "intersection over the
  union of all the ROI boxes" quantity governing stage-2 transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class ROI:
    """An axis-aligned region of interest in integer pixel coordinates.

    Attributes:
        x, y: top-left corner.
        w, h: width and height (must be positive).
        score: optional stage-1 confidence.
        label: optional stage-1 class.
    """

    x: int
    y: int
    w: int
    h: int
    score: float | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"ROI must have positive size, got {self.w}x{self.h}")

    # -- conversions ------------------------------------------------------------

    @classmethod
    def from_detection(cls, det, scale: float = 1.0) -> "ROI":
        """Build from a detection-like object (``x/y/w/h/score/label``).

        Args:
            det: object with box attributes (e.g. ``repro.ml.Detection``).
            scale: multiply coordinates by this (stage-1 frames are pooled
                by ``k``, so boxes scale by ``k`` back to array space).
        """
        x = int(np.floor(det.x * scale))
        y = int(np.floor(det.y * scale))
        w = max(int(np.ceil(det.w * scale)), 1)
        h = max(int(np.ceil(det.h * scale)), 1)
        return cls(x, y, w, h, getattr(det, "score", None), getattr(det, "label", None))

    @property
    def xywh(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.w, self.h)

    @property
    def area(self) -> int:
        return self.w * self.h

    @property
    def x2(self) -> int:
        return self.x + self.w

    @property
    def y2(self) -> int:
        return self.y + self.h

    # -- geometry ---------------------------------------------------------------

    def clip(self, width: int, height: int) -> "ROI | None":
        """Clip to a ``width x height`` array; ``None`` if nothing remains."""
        x0, y0 = max(self.x, 0), max(self.y, 0)
        x1, y1 = min(self.x2, width), min(self.y2, height)
        if x1 <= x0 or y1 <= y0:
            return None
        return replace(self, x=x0, y=y0, w=x1 - x0, h=y1 - y0)

    def pad(self, fraction: float) -> "ROI":
        """Grow symmetrically by ``fraction`` of each side (context margin)."""
        if fraction < 0:
            raise ValueError("pad fraction must be non-negative")
        dx = int(round(self.w * fraction))
        dy = int(round(self.h * fraction))
        return replace(self, x=self.x - dx, y=self.y - dy, w=self.w + 2 * dx, h=self.h + 2 * dy)

    def scaled(self, factor: float) -> "ROI":
        """Scale the box by ``factor`` (pooled frame -> array coordinates)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return ROI(
            int(np.floor(self.x * factor)),
            int(np.floor(self.y * factor)),
            max(int(np.ceil(self.w * factor)), 1),
            max(int(np.ceil(self.h * factor)), 1),
            self.score,
            self.label,
        )

    def iou(self, other: "ROI") -> float:
        """Intersection over union with another ROI."""
        ix = max(0, min(self.x2, other.x2) - max(self.x, other.x))
        iy = max(0, min(self.y2, other.y2) - max(self.y, other.y))
        inter = ix * iy
        union = self.area + other.area - inter
        return inter / union if union > 0 else 0.0

    def contains(self, other: "ROI") -> bool:
        """True when ``other`` lies entirely inside this ROI."""
        return (
            self.x <= other.x
            and self.y <= other.y
            and self.x2 >= other.x2
            and self.y2 >= other.y2
        )

    def union_with(self, other: "ROI") -> "ROI":
        """Smallest ROI covering both (label/score from the higher score)."""
        x0, y0 = min(self.x, other.x), min(self.y, other.y)
        x1, y1 = max(self.x2, other.x2), max(self.y2, other.y2)
        a, b = (self, other)
        if (b.score or 0.0) > (a.score or 0.0):
            a = other
        return ROI(x0, y0, x1 - x0, y1 - y0, a.score, a.label)


def total_area(rois: Sequence[ROI]) -> int:
    """Sum of ROI areas (double-counts overlaps): the paper's ΣWᵢHᵢ."""
    return int(sum(r.area for r in rois))


def union_area(rois: Sequence[ROI]) -> int:
    """Exact area of the union of the ROIs (no double counting).

    Sweep over compressed x-intervals, unioning y-intervals in each strip —
    O(n^2 log n), plenty for per-frame box counts.
    """
    if not rois:
        return 0
    xs = sorted({r.x for r in rois} | {r.x2 for r in rois})
    area = 0
    for x0, x1 in zip(xs, xs[1:]):
        strip_w = x1 - x0
        if strip_w <= 0:
            continue
        intervals = sorted(
            (r.y, r.y2) for r in rois if r.x <= x0 and r.x2 >= x1
        )
        covered = 0
        cur_start: int | None = None
        cur_end = 0
        for y0, y1 in intervals:
            if cur_start is None:
                cur_start, cur_end = y0, y1
            elif y0 <= cur_end:
                cur_end = max(cur_end, y1)
            else:
                covered += cur_end - cur_start
                cur_start, cur_end = y0, y1
        if cur_start is not None:
            covered += cur_end - cur_start
        area += strip_w * covered
    return int(area)


def dedup_contained(rois: Sequence[ROI]) -> list[ROI]:
    """Drop ROIs fully contained in another (largest-first scan)."""
    kept: list[ROI] = []
    for roi in sorted(rois, key=lambda r: r.area, reverse=True):
        if not any(k.contains(roi) for k in kept):
            kept.append(roi)
    return kept


def merge_overlapping(rois: Sequence[ROI], iou_threshold: float = 0.5) -> list[ROI]:
    """Iteratively merge ROI pairs with IoU above the threshold.

    Used by the selection encoder to coalesce heavily-overlapping boxes
    into a single readout window (trading a little extra area for fewer
    windows).
    """
    if iou_threshold <= 0:
        raise ValueError("iou_threshold must be positive")
    pool = list(rois)
    merged = True
    while merged:
        merged = False
        out: list[ROI] = []
        while pool:
            roi = pool.pop()
            for i, other in enumerate(out):
                if roi.iou(other) >= iou_threshold:
                    out[i] = roi.union_with(other)
                    merged = True
                    break
            else:
                out.append(roi)
        pool = out
    return pool


def prepare_rois(
    rois: Iterable[ROI],
    array_width: int,
    array_height: int,
    pad_fraction: float = 0.0,
    min_side_px: int = 2,
    max_rois: int | None = None,
    drop_contained: bool = True,
    merge_iou: float | None = None,
) -> list[ROI]:
    """The selection encoder's full ROI conditioning pipeline.

    Order: pad -> clip -> size filter -> (score sort + cap) -> containment
    dedup -> optional IoU merge.

    Args:
        rois: raw stage-1 ROIs in array coordinates.
        array_width, array_height: sensor dimensions.
        pad_fraction: context margin added before clipping.
        min_side_px: discard ROIs smaller than this on either side.
        max_rois: keep only the top-scoring boxes (None = no cap).
        drop_contained: remove fully-contained duplicates.
        merge_iou: if set, merge pairs overlapping above this IoU.

    Returns:
        Conditioned ROI list, ready for :meth:`SensorReadout.read_rois`.
    """
    conditioned: list[ROI] = []
    for roi in rois:
        if pad_fraction > 0:
            roi = roi.pad(pad_fraction)
        clipped = roi.clip(array_width, array_height)
        if clipped is None:
            continue
        if clipped.w < min_side_px or clipped.h < min_side_px:
            continue
        conditioned.append(clipped)
    conditioned.sort(key=lambda r: -(r.score or 0.0))
    if max_rois is not None:
        conditioned = conditioned[:max_rois]
    if drop_contained:
        conditioned = dedup_contained(conditioned)
    if merge_iou is not None:
        conditioned = merge_overlapping(conditioned, merge_iou)
    return conditioned
