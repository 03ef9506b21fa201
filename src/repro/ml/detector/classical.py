"""Multi-scale normalized-cross-correlation detector (stage-1 stand-in).

This deterministic detector replaces YOLOv8-nano in the Table 2 experiment.
Its job is identical to the paper's stage-1 model: given a (possibly pooled,
possibly grayscale) frame, emit class-labelled boxes with confidences.  Like
any detector it degrades when objects shrink below a few pixels and when its
discriminative cue (color) is removed — which is precisely the behavior the
paper's accuracy study measures.

Method
------
* **featurize** — frames are lifted to ``C+1`` channels: the raw color (or
  gray) channels plus a gradient-magnitude channel computed across *all*
  input channels.  In RGB mode the gradient keeps iso-luminant (chroma)
  edges; in gray mode those edges vanish — the mechanism behind the paper's
  RGB-vs-gray accuracy gap.  Crucially, features are always computed *at
  matching scale*: detection downscales the raw frame first (anti-aliased)
  and featurizes the pyramid level, and templates are built from raw crops
  resized to the same canonical heights — so template and frame features
  describe the same spatial frequency band.
* **fit** — per class, raw ground-truth crops are resized to a small bank
  of canonical heights and averaged into per-size templates (per
  colorspace, mirroring the paper's per-mode retraining); the class's
  median box size is recorded.
* **detect** — per class and scale, normalized cross-correlation (NCC) is
  computed via FFT convolution.  Objects larger than the canonical
  template are matched by downscaling the *image* (pyramid search); smaller
  objects use the nearest smaller template from the bank.  The template is
  zero-meaned per channel so local window means cancel exactly.  Local
  maxima above threshold become detections; greedy NMS dedups per class,
  then an optional cross-class NMS resolves nested-class confusion (e.g.
  the person inside every cyclist).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.ndimage import maximum_filter
from scipy.signal import fftconvolve

from ..eval.boxes import nms
from ..eval.metrics import Detection
from ..image import downscale_antialiased, ensure_channels, resize_bilinear, to_gray


def featurize(
    image: np.ndarray, colorspace: str = "rgb", edge_weight: float = 1.5
) -> np.ndarray:
    """Lift a frame to detection feature space (color + gradient magnitude).

    Args:
        image: ``(H, W, 3)`` RGB, or ``(H, W[, 1])`` gray.
        colorspace: "rgb" keeps three color channels; "gray" collapses RGB
            input to luma first (2-D input passes through as-is, matching
            a sensor that merged channels in the analog domain).
        edge_weight: scale of the gradient-magnitude channel.

    Returns:
        ``(H, W, C+1)`` float64 feature stack.
    """
    img = np.asarray(image, dtype=np.float64)
    if colorspace == "gray":
        img = ensure_channels(to_gray(img))
    elif img.ndim == 2:
        raise ValueError("rgb detector received a 2-D (grayscale) image")
    else:
        img = ensure_channels(img)
    grad_sq = np.zeros(img.shape[:2])
    for c in range(img.shape[2]):
        gy, gx = np.gradient(img[:, :, c])
        grad_sq += gx**2 + gy**2
    gradmag = np.sqrt(grad_sq)
    return np.concatenate([img, edge_weight * gradmag[:, :, None]], axis=2)


def _center(template: np.ndarray) -> np.ndarray:
    """Zero-mean per channel, unit Frobenius norm overall."""
    out = template - template.mean(axis=(0, 1), keepdims=True)
    norm = float(np.sqrt(np.sum(out**2)))
    return out / norm if norm > 1e-9 else out


@dataclass
class ClassTemplate:
    """Learned appearance model of one class.

    Attributes:
        label: class name.
        bank: canonical height -> per-channel zero-mean feature template
            (each built from crops resized to that height *before*
            featurization, so its spatial-frequency content is native).
        median_size: ``(height, width)`` of the class's GT boxes at fit
            resolution; detection sweeps scales around it.
    """

    label: str
    bank: dict[int, np.ndarray]
    median_size: tuple[float, float]

    def nearest(self, height: float) -> tuple[int, np.ndarray]:
        """Bank entry whose canonical height is closest (in log scale)."""
        best = min(self.bank, key=lambda s: abs(np.log(s / max(height, 1e-6))))
        return best, self.bank[best]


@dataclass
class CorrelationDetector:
    """Stage-1 detector based on multi-scale template correlation.

    Attributes:
        classes: classes to detect.
        colorspace: "rgb" or "gray"; gray inputs may be 2-D images.
        template_height: canonical (largest) template height in pixels.
        scales: relative scales (of the class median size) swept at
            detection time.
        score_threshold: minimum NCC to emit a detection.
        nms_iou: per-class NMS threshold.
        cross_class_nms_iou: if not ``None``, a second NMS across classes
            (classes compete for the same pixels; resolves nested classes).
        max_detections: cap on detections per image per class.
        min_template_px: skip scales where the expected object side falls
            below this — unresolvable objects are simply not detected.
        edge_weight: weight of the gradient-magnitude feature channel.
    """

    classes: tuple[str, ...]
    colorspace: str = "rgb"
    template_height: int = 28
    scales: tuple[float, ...] = (0.62, 0.8, 1.0, 1.3, 1.7)
    score_threshold: float = 0.25
    nms_iou: float = 0.4
    cross_class_nms_iou: float | None = 0.35
    max_detections: int = 80
    min_template_px: int = 4
    edge_weight: float = 1.5
    _templates: dict[str, ClassTemplate] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.colorspace not in ("rgb", "gray"):
            raise ValueError("colorspace must be 'rgb' or 'gray'")
        if not self.classes:
            raise ValueError("classes must be non-empty")

    def _featurize(self, image: np.ndarray) -> np.ndarray:
        return featurize(image, self.colorspace, self.edge_weight)

    def _bank_sizes(self) -> tuple[int, ...]:
        th = self.template_height
        return (th, max(th // 2, 4), max(th // 4, 4))

    # -- training --------------------------------------------------------------------

    def fit(
        self,
        images: Sequence[np.ndarray],
        annotations: Sequence[Sequence],
    ) -> "CorrelationDetector":
        """Learn per-class template banks from annotated frames.

        Args:
            images: training frames (RGB ``(H, W, 3)``, or gray ``(H, W)``
                for a gray detector), at the detector's working resolution.
            annotations: per-image GT lists; entries need ``label`` and
                ``xywh`` attributes (e.g. ``GroundTruthBox``).

        Returns:
            self, for chaining.
        """
        if len(images) != len(annotations):
            raise ValueError("images and annotations must align")
        raw_crops: dict[str, list[np.ndarray]] = {c: [] for c in self.classes}
        sizes: dict[str, list[tuple[float, float]]] = {c: [] for c in self.classes}
        for image, gts in zip(images, annotations):
            img = np.asarray(image, dtype=np.float64)
            h_img, w_img = img.shape[:2]
            for gt in gts:
                if gt.label not in raw_crops:
                    continue
                x, y, w, h = (int(round(v)) for v in gt.xywh)
                x0, y0 = max(x, 0), max(y, 0)
                x1, y1 = min(x + w, w_img), min(y + h, h_img)
                if x1 - x0 < 2 or y1 - y0 < 2:
                    continue
                raw_crops[gt.label].append(img[y0:y1, x0:x1])
                sizes[gt.label].append((float(y1 - y0), float(x1 - x0)))

        self._templates.clear()
        for label in self.classes:
            crops = raw_crops[label]
            if not crops:
                continue
            aspect = float(
                np.median([c.shape[1] / c.shape[0] for c in crops])
            )
            bank: dict[int, np.ndarray] = {}
            for s in self._bank_sizes():
                tw = max(int(round(s * aspect)), 2)
                feats = [
                    self._featurize(resize_bilinear(c, (s, tw))) for c in crops
                ]
                template = _center(np.mean(feats, axis=0))
                if float(np.sum(template**2)) > 1e-12:
                    bank[s] = template
            if not bank:
                continue
            heights = [sz[0] for sz in sizes[label]]
            widths = [sz[1] for sz in sizes[label]]
            self._templates[label] = ClassTemplate(
                label=label,
                bank=bank,
                median_size=(float(np.median(heights)), float(np.median(widths))),
            )
        return self

    # -- inference -------------------------------------------------------------------

    def detect(self, image: np.ndarray) -> list[Detection]:
        """Detect all classes in one frame via pyramid NCC matching.

        Args:
            image: frame in the detector's colorspace (RGB array, or 2-D /
                3-D gray for a gray detector).

        Returns:
            List of :class:`~repro.ml.eval.metrics.Detection`, NMS-dedupped,
            sorted by descending score, in input-frame coordinates.
        """
        if not self._templates:
            raise RuntimeError("detector not fitted; call fit() first")
        raw = np.asarray(image, dtype=np.float64)
        frame_h, frame_w = raw.shape[:2]

        # Featurized pyramid levels and their local stats, shared across
        # classes and cached per downscale factor / window size.
        level_cache: dict[float, np.ndarray] = {}
        stats_cache: dict[tuple[float, int, int], np.ndarray] = {}

        def level(factor: float) -> np.ndarray:
            key = round(factor, 4)
            if key not in level_cache:
                scaled = raw if key == 1.0 else downscale_antialiased(raw, factor)
                level_cache[key] = self._featurize(scaled)
            return level_cache[key]

        def local_variance(factor: float, th: int, tw: int) -> np.ndarray:
            key = (round(factor, 4), th, tw)
            if key not in stats_cache:
                img = level(factor)
                kernel = np.ones((th, tw))
                n_pix = th * tw
                total = np.zeros((img.shape[0] - th + 1, img.shape[1] - tw + 1))
                for c in range(img.shape[2]):
                    s = fftconvolve(img[:, :, c], kernel, mode="valid")
                    sq = fftconvolve(img[:, :, c] ** 2, kernel, mode="valid")
                    total += sq - s**2 / n_pix
                stats_cache[key] = np.clip(total, 1e-9, None)
            return stats_cache[key]

        detections: list[Detection] = []
        for label, model in self._templates.items():
            boxes: list[tuple[float, float, float, float]] = []
            scores: list[float] = []
            med_h, med_w = model.median_size
            for scale in self.scales:
                obj_h = med_h * scale
                obj_w = med_w * scale
                if obj_h < self.min_template_px or obj_w < self.min_template_px:
                    continue
                if obj_h > frame_h or obj_w > frame_w:
                    continue
                size, template = model.nearest(obj_h)
                # Downscale the image so the object meets its template.
                factor = min(size / obj_h, 1.0)
                if factor < 1.0:
                    img = level(factor)
                    th, tw = template.shape[0], template.shape[1]
                else:
                    # Object smaller than the smallest bank entry: shrink
                    # the template the rest of the way.
                    img = level(1.0)
                    th = max(int(round(obj_h)), 2)
                    tw = max(int(round(obj_w)), 2)
                    if (th, tw) != template.shape[:2]:
                        template = _center(resize_bilinear(template, (th, tw)))
                if float(np.sum(template**2)) < 1e-12:
                    continue
                if th > img.shape[0] or tw > img.shape[1]:
                    continue

                num = np.zeros((img.shape[0] - th + 1, img.shape[1] - tw + 1))
                for c in range(img.shape[2]):
                    num += fftconvolve(
                        img[:, :, c], template[::-1, ::-1, c], mode="valid"
                    )
                ncc = num / np.sqrt(local_variance(factor, th, tw))

                neighborhood = (max(th // 2, 3), max(tw // 2, 3))
                peaks = (ncc == maximum_filter(ncc, size=neighborhood)) & (
                    ncc >= self.score_threshold
                )
                ys, xs = np.nonzero(peaks)
                for y, x in zip(ys, xs):
                    boxes.append((x / factor, y / factor, tw / factor, th / factor))
                    scores.append(float(ncc[y, x]))

            if not boxes:
                continue
            keep = nms(np.asarray(boxes), np.asarray(scores), self.nms_iou)
            keep = keep[: self.max_detections]
            for idx in keep:
                x, y, w, h = boxes[idx]
                detections.append(Detection(label, scores[idx], x, y, w, h))

        if self.cross_class_nms_iou is not None and detections:
            all_boxes = np.asarray([d.xywh for d in detections])
            all_scores = np.asarray([d.score for d in detections])
            keep = nms(all_boxes, all_scores, self.cross_class_nms_iou)
            detections = [detections[i] for i in keep]

        detections.sort(key=lambda d: -d.score)
        return detections

    def detect_batch(self, images: Sequence[np.ndarray]) -> list[list[Detection]]:
        """Detect over a list of frames (convenience for evaluation)."""
        return [self.detect(img) for img in images]
