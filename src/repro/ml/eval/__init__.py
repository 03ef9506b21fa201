"""Evaluation utilities: box geometry, NMS, AP/mAP, accuracy."""

from .boxes import iou_matrix, nms
from .metrics import (
    Detection,
    MAPResult,
    average_precision,
    class_average_precision,
    evaluate_detections,
)

__all__ = [
    "Detection",
    "MAPResult",
    "average_precision",
    "class_average_precision",
    "evaluate_detections",
    "iou_matrix",
    "nms",
]
