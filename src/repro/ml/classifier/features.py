"""HOG-style features + linear softmax: the fast stage-2 classifier family.

The paper's Table 3 trains MCUNetV2 and MobileNetV2 expression classifiers
at every ROI resolution (14x14 ... 112x112) and shows accuracy rising with
resolution, with MobileNetV2 (the larger model) ahead of MCUNetV2.  Training
two CNNs per resolution is possible with :mod:`repro.ml.layers` but slow in
NumPy; the benchmark harness therefore uses this classical pipeline, which
preserves both effects:

* **resolution sensitivity** — gradient-orientation histograms sharpen as
  the underlying image resolves fine structure (brows, mouth curvature);
* **capacity ordering** — cell grid, orientation count, and the color
  channel are capacity knobs; the "mobilenetv2-like" configuration strictly
  dominates the "mcunetv2-like" one.

The CNN classifiers in :mod:`repro.ml.classifier.cnn` remain available for
users who want end-to-end gradient training.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..image import to_gray


def hog_features(
    images: np.ndarray,
    n_cells: int = 6,
    n_orientations: int = 6,
    include_color: bool = True,
    color_cells: int = 4,
) -> np.ndarray:
    """Histogram-of-oriented-gradients features for a batch of images.

    Args:
        images: ``(N, H, W, C)`` or ``(N, H, W)`` float batch in [0, 1].
        n_cells: cells per side (capped at ``H // 2`` for tiny inputs).
        n_orientations: unsigned orientation bins over [0, pi).
        include_color: append a ``color_cells x color_cells`` block-mean RGB
            thumbnail (zeros for grayscale input).
        color_cells: thumbnail side length.

    Returns:
        ``(N, D)`` float feature matrix, L2-normalized per image.
    """
    if images.ndim == 3:
        images = images[:, :, :, None]
    n, h, w, c = images.shape
    cells = max(2, min(n_cells, h // 2, w // 2))

    feats: list[np.ndarray] = []
    cell_y = (np.arange(h) * cells // h).astype(np.int64)
    cell_x = (np.arange(w) * cells // w).astype(np.int64)
    cell_idx = cell_y[:, None] * cells + cell_x[None, :]

    for i in range(n):
        gray = to_gray(images[i]) if c == 3 else images[i, :, :, 0]
        gy, gx = np.gradient(gray)
        mag = np.sqrt(gx**2 + gy**2)
        ang = np.mod(np.arctan2(gy, gx), np.pi)
        bins = np.minimum((ang / np.pi * n_orientations).astype(np.int64), n_orientations - 1)
        flat_idx = cell_idx * n_orientations + bins
        hist = np.bincount(
            flat_idx.ravel(), weights=mag.ravel(), minlength=cells * cells * n_orientations
        )
        parts = [hist]
        if include_color:
            thumb = np.zeros((color_cells, color_cells, 3))
            if c == 3:
                ty = (np.arange(h) * color_cells // h).astype(np.int64)
                tx = (np.arange(w) * color_cells // w).astype(np.int64)
                for ch in range(3):
                    sums = np.zeros(color_cells * color_cells)
                    np.add.at(
                        sums, (ty[:, None] * color_cells + tx[None, :]).ravel(),
                        images[i, :, :, ch].ravel(),
                    )
                    counts = np.zeros(color_cells * color_cells)
                    np.add.at(
                        counts, (ty[:, None] * color_cells + tx[None, :]).ravel(), 1.0
                    )
                    thumb[:, :, ch] = (sums / np.maximum(counts, 1)).reshape(
                        color_cells, color_cells
                    )
            parts.append(thumb.ravel())
        feat = np.concatenate(parts)
        norm = np.linalg.norm(feat)
        feats.append(feat / norm if norm > 0 else feat)
    return np.stack(feats)


@dataclass
class SoftmaxRegression:
    """Multinomial logistic regression trained with full-batch Adam.

    Attributes:
        n_classes: output classes.
        lr: Adam learning rate.
        epochs: gradient steps (full-batch).
        l2: weight decay strength.
        seed: initializer seed.
    """

    n_classes: int
    lr: float = 0.05
    epochs: int = 300
    l2: float = 1e-4
    seed: int = 0
    _w: np.ndarray | None = field(default=None, repr=False)
    _b: np.ndarray | None = field(default=None, repr=False)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "SoftmaxRegression":
        n, d = features.shape
        rng = np.random.default_rng(self.seed)
        w = rng.standard_normal((d, self.n_classes)) * 0.01
        b = np.zeros(self.n_classes)
        m_w = np.zeros_like(w)
        v_w = np.zeros_like(w)
        m_b = np.zeros_like(b)
        v_b = np.zeros_like(b)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        y_onehot = np.zeros((n, self.n_classes))
        y_onehot[np.arange(n), labels] = 1.0
        for t in range(1, self.epochs + 1):
            logits = features @ w + b
            logits -= logits.max(axis=1, keepdims=True)
            probs = np.exp(logits)
            probs /= probs.sum(axis=1, keepdims=True)
            grad_logits = (probs - y_onehot) / n
            g_w = features.T @ grad_logits + self.l2 * w
            g_b = grad_logits.sum(axis=0)
            for g, m, v, param in ((g_w, m_w, v_w, w), (g_b, m_b, v_b, b)):
                m *= beta1
                m += (1 - beta1) * g
                v *= beta2
                v += (1 - beta2) * g**2
                param -= self.lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
        self._w, self._b = w, b
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._w is None or self._b is None:
            raise RuntimeError("model not fitted")
        return np.argmax(features @ self._w + self._b, axis=1)


#: Capacity presets standing in for the paper's two stage-2 models.
CLASSIFIER_PRESETS = {
    # Small model: coarse cells, few orientations, no color thumbnail.
    "mcunetv2-like": dict(n_cells=5, n_orientations=6, include_color=False, color_cells=3),
    # Large model: fine cells, more orientations, color thumbnail.
    "mobilenetv2-like": dict(n_cells=8, n_orientations=9, include_color=True, color_cells=5),
}


@dataclass
class HOGClassifier:
    """HOG features + softmax regression with a named capacity preset.

    Args:
        preset: one of :data:`CLASSIFIER_PRESETS`.
        n_classes: number of classes.
        epochs: training steps for the linear head.
        seed: reproducibility seed.
    """

    preset: str
    n_classes: int
    epochs: int = 300
    seed: int = 0
    _head: SoftmaxRegression | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.preset not in CLASSIFIER_PRESETS:
            raise ValueError(
                f"unknown preset {self.preset!r}; choose from {sorted(CLASSIFIER_PRESETS)}"
            )

    def _features(self, images: np.ndarray) -> np.ndarray:
        return hog_features(images, **CLASSIFIER_PRESETS[self.preset])

    def fit(self, images: np.ndarray, labels: np.ndarray) -> "HOGClassifier":
        feats = self._features(images)
        self._head = SoftmaxRegression(
            n_classes=self.n_classes, epochs=self.epochs, seed=self.seed
        ).fit(feats, labels)
        return self

    def predict(self, images: np.ndarray) -> np.ndarray:
        if self._head is None:
            raise RuntimeError("classifier not fitted")
        return self._head.predict(self._features(images))

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(images) == np.asarray(labels)))
