"""Bounding-box geometry: IoU, conversions, and non-maximum suppression.

Boxes are ``(x, y, w, h)`` with the origin at the top-left, matching the
paper's ROI convention (the stage-1 model returns location (x, y) and
dimensions (W, H)).
"""

from __future__ import annotations

import numpy as np


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two xywh box sets.

    Args:
        boxes_a: ``(N, 4)`` array.
        boxes_b: ``(M, 4)`` array.

    Returns:
        ``(N, M)`` IoU matrix (zeros for degenerate boxes).
    """
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    ax1, ay1 = a[:, 0], a[:, 1]
    ax2, ay2 = a[:, 0] + a[:, 2], a[:, 1] + a[:, 3]
    bx1, by1 = b[:, 0], b[:, 1]
    bx2, by2 = b[:, 0] + b[:, 2], b[:, 1] + b[:, 3]

    ix1 = np.maximum(ax1[:, None], bx1[None, :])
    iy1 = np.maximum(ay1[:, None], by1[None, :])
    ix2 = np.minimum(ax2[:, None], bx2[None, :])
    iy2 = np.minimum(ay2[:, None], by2[None, :])
    iw = np.clip(ix2 - ix1, 0.0, None)
    ih = np.clip(iy2 - iy1, 0.0, None)
    inter = iw * ih

    area_a = np.clip(a[:, 2], 0, None) * np.clip(a[:, 3], 0, None)
    area_b = np.clip(b[:, 2], 0, None) * np.clip(b[:, 3], 0, None)
    union = area_a[:, None] + area_b[None, :] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, inter / union, 0.0)
    return iou


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.45) -> list[int]:
    """Greedy non-maximum suppression.

    Args:
        boxes: ``(N, 4)`` xywh array.
        scores: ``(N,)`` confidence scores.
        iou_threshold: boxes overlapping a kept box above this are dropped.

    Returns:
        Indices of kept boxes, sorted by descending score.
    """
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if boxes.shape[0] != scores.shape[0]:
        raise ValueError("boxes and scores must have matching lengths")
    if boxes.shape[0] == 0:
        return []
    order = np.argsort(-scores)
    keep: list[int] = []
    ious = iou_matrix(boxes, boxes)
    suppressed = np.zeros(boxes.shape[0], dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        suppressed |= ious[idx] > iou_threshold
        suppressed[idx] = True
    return keep
