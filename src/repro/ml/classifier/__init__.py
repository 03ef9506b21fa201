"""Stage-2 classifiers: HOG + linear (fast), tiny CNNs, batched crop heads."""

from .cnn import tiny_cnn
from .crop import CropClassifier, CropPrediction
from .features import CLASSIFIER_PRESETS, HOGClassifier, SoftmaxRegression, hog_features

__all__ = [
    "CLASSIFIER_PRESETS",
    "CropClassifier",
    "CropPrediction",
    "HOGClassifier",
    "SoftmaxRegression",
    "hog_features",
    "tiny_cnn",
]
