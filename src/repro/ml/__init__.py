"""NumPy ML substrate: layers/training, detectors, classifiers, evaluation."""

from .classifier.cnn import tiny_cnn
from .classifier.crop import CropClassifier, CropPrediction
from .classifier.features import (
    CLASSIFIER_PRESETS,
    HOGClassifier,
    SoftmaxRegression,
    hog_features,
)
from .detector.classical import ClassTemplate, CorrelationDetector
from .detector.grid import GridDetector, GridDetectorConfig
from .eval import (
    Detection,
    MAPResult,
    average_precision,
    evaluate_detections,
    iou_matrix,
    nms,
)
from .image import ensure_channels, resize_bilinear, to_gray
from .model import Sequential

__all__ = [
    "CLASSIFIER_PRESETS",
    "ClassTemplate",
    "CorrelationDetector",
    "CropClassifier",
    "CropPrediction",
    "Detection",
    "GridDetector",
    "GridDetectorConfig",
    "HOGClassifier",
    "MAPResult",
    "Sequential",
    "SoftmaxRegression",
    "average_precision",
    "ensure_channels",
    "evaluate_detections",
    "hog_features",
    "iou_matrix",
    "nms",
    "resize_bilinear",
    "tiny_cnn",
    "to_gray",
]
