"""Detection metrics: per-class average precision and mAP.

Implements the standard VOC-style protocol the paper's YOLOv8 evaluation
reports (mAP at IoU 0.5): per class, predictions across the whole split are
sorted by confidence, greedily matched to unmatched ground truth at
IoU >= threshold, and AP is the area under the precision envelope of the
resulting PR curve ("all-points" interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boxes import iou_matrix


@dataclass(frozen=True)
class Detection:
    """One predicted box.

    Attributes:
        label: class name.
        score: confidence in [0, 1] (any monotone score works).
        x, y, w, h: box in pixels.
    """

    label: str
    score: float
    x: float
    y: float
    w: float
    h: float

    @property
    def xywh(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)


def _gt_label(gt) -> str:
    return gt.label if hasattr(gt, "label") else gt[0]


def _gt_box(gt) -> tuple[float, float, float, float]:
    if hasattr(gt, "xywh"):
        return tuple(gt.xywh)
    return tuple(gt[1])


@dataclass
class MAPResult:
    """Evaluation outcome.

    Attributes:
        per_class_ap: class name -> AP in [0, 1] (classes absent from the
            ground truth are skipped entirely).
        iou_threshold: matching threshold used.
        n_images: number of evaluated images.
    """

    per_class_ap: dict[str, float]
    iou_threshold: float
    n_images: int

    @property
    def map(self) -> float:
        """Mean AP over classes present in the ground truth."""
        if not self.per_class_ap:
            return 0.0
        return float(np.mean(list(self.per_class_ap.values())))


def average_precision(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """Area under the precision envelope (all-points interpolation).

    Args:
        recalls: monotonically non-decreasing recall values.
        precisions: precision at each recall point.

    Returns:
        AP in [0, 1].
    """
    if recalls.size == 0:
        return 0.0
    r = np.concatenate([[0.0], recalls, [recalls[-1]]])
    p = np.concatenate([[0.0], precisions, [0.0]])
    # Precision envelope: make precision monotonically non-increasing.
    for i in range(p.size - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
    changes = np.where(r[1:] != r[:-1])[0]
    return float(np.sum((r[changes + 1] - r[changes]) * p[changes + 1]))


def class_average_precision(
    predictions: Sequence[Sequence[Detection]],
    ground_truths: Sequence[Sequence],
    label: str,
    iou_threshold: float = 0.5,
) -> float | None:
    """AP of one class over a split.

    Args:
        predictions: per-image lists of :class:`Detection`.
        ground_truths: per-image lists of GT objects (anything with
            ``label`` and ``xywh`` attributes, or ``(label, (x,y,w,h))``).
        label: class to score.
        iou_threshold: match threshold.

    Returns:
        AP, or ``None`` when the class never appears in the ground truth.
    """
    if len(predictions) != len(ground_truths):
        raise ValueError("predictions and ground_truths must align per image")

    # Flatten class predictions with their image index.
    flat: list[tuple[float, int, tuple[float, float, float, float]]] = []
    for img_idx, dets in enumerate(predictions):
        for det in dets:
            if det.label == label:
                flat.append((float(det.score), img_idx, det.xywh))
    flat.sort(key=lambda item: -item[0])

    gt_boxes_per_image: list[np.ndarray] = []
    n_gt = 0
    for gts in ground_truths:
        boxes = [_gt_box(g) for g in gts if _gt_label(g) == label]
        n_gt += len(boxes)
        gt_boxes_per_image.append(np.asarray(boxes, dtype=np.float64).reshape(-1, 4))
    if n_gt == 0:
        return None
    if not flat:
        return 0.0

    matched = [np.zeros(b.shape[0], dtype=bool) for b in gt_boxes_per_image]
    tp = np.zeros(len(flat))
    fp = np.zeros(len(flat))
    for rank, (_, img_idx, box) in enumerate(flat):
        gt_boxes = gt_boxes_per_image[img_idx]
        if gt_boxes.shape[0] == 0:
            fp[rank] = 1.0
            continue
        ious = iou_matrix(np.asarray(box)[None, :], gt_boxes)[0]
        best = int(np.argmax(ious))
        if ious[best] >= iou_threshold and not matched[img_idx][best]:
            matched[img_idx][best] = True
            tp[rank] = 1.0
        else:
            fp[rank] = 1.0

    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(fp)
    recalls = cum_tp / n_gt
    precisions = cum_tp / np.maximum(cum_tp + cum_fp, 1e-12)
    return average_precision(recalls, precisions)


def evaluate_detections(
    predictions: Sequence[Sequence[Detection]],
    ground_truths: Sequence[Sequence],
    classes: Sequence[str],
    iou_threshold: float = 0.5,
) -> MAPResult:
    """mAP@IoU over a split.

    Args:
        predictions: per-image lists of :class:`Detection`.
        ground_truths: per-image GT lists (see
            :func:`class_average_precision` for accepted forms).
        classes: classes to evaluate; classes with no GT instances are
            skipped (not counted as zero), matching common practice.
        iou_threshold: match threshold (paper: 0.5).

    Returns:
        :class:`MAPResult`.
    """
    per_class: dict[str, float] = {}
    for label in classes:
        ap = class_average_precision(predictions, ground_truths, label, iou_threshold)
        if ap is not None:
            per_class[label] = ap
    return MAPResult(
        per_class_ap=per_class,
        iou_threshold=iou_threshold,
        n_images=len(predictions),
    )
