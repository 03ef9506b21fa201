"""Tests for the correlation detector and the trainable grid detector."""

import numpy as np
import pytest

from repro.datasets import GroundTruthBox
from repro.ml import CorrelationDetector, evaluate_detections
from repro.ml.detector.classical import ClassTemplate, featurize
from repro.ml.detector.grid import GridDetector, GridDetectorConfig


class TestFeaturize:
    def test_rgb_adds_edge_channel(self):
        img = np.random.default_rng(0).random((8, 8, 3))
        feat = featurize(img, "rgb")
        assert feat.shape == (8, 8, 4)

    def test_gray_collapses_channels(self):
        img = np.random.default_rng(0).random((8, 8, 3))
        feat = featurize(img, "gray")
        assert feat.shape == (8, 8, 2)

    def test_gray_accepts_2d(self):
        feat = featurize(np.zeros((8, 8)), "gray")
        assert feat.shape == (8, 8, 2)

    def test_rgb_rejects_2d(self):
        with pytest.raises(ValueError):
            featurize(np.zeros((8, 8)), "rgb")

    def test_chroma_edges_survive_rgb_vanish_in_gray(self):
        """An iso-luminant boundary is visible to RGB, invisible to gray.

        This is the mechanism behind the paper's RGB->gray accuracy drop.
        """
        img = np.zeros((8, 8, 3))
        # Left: pure red at luma L; right: pure blue scaled to the same luma.
        img[:, :4, 0] = 0.5
        img[:, 4:, 2] = 0.5 * 0.299 / 0.114
        img = np.clip(img, 0, 1)
        rgb_edge = featurize(img, "rgb")[:, 3:5, 3].max()
        gray_edge = featurize(img, "gray")[:, 3:5, 1].max()
        assert rgb_edge > 5 * gray_edge


class TestCorrelationDetector:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelationDetector(classes=())
        with pytest.raises(ValueError):
            CorrelationDetector(classes=("a",), colorspace="hsv")

    def test_template_bank_is_chosen_in_log_scale(self):
        bank = {8: np.zeros((8, 4, 1)), 16: np.ones((16, 8, 1))}
        template = ClassTemplate("person", bank, median_size=(12.0, 6.0))
        # 11.5 px is linearly nearer 8, but a smaller ratio away from 16
        assert template.nearest(11.5)[0] == 16
        assert template.nearest(11.0)[0] == 8
        size, entry = template.nearest(0.0)  # degenerate height: smallest entry
        assert size == 8 and entry is bank[8]

    def test_detect_before_fit_raises(self):
        det = CorrelationDetector(classes=("person",))
        with pytest.raises(RuntimeError):
            det.detect(np.zeros((32, 32, 3)))

    def test_fit_records_templates(self, train_scenes):
        det = CorrelationDetector(classes=("person", "head"))
        det.fit([s.image for s in train_scenes], [s.boxes for s in train_scenes])
        assert set(det._templates) == {"person", "head"}

    def test_recovers_planted_square(self):
        """A high-contrast synthetic square is found near-perfectly."""
        rng = np.random.default_rng(0)
        def make(n):
            imgs, gts = [], []
            for i in range(n):
                img = np.full((96, 96, 3), 0.4) + 0.02 * rng.standard_normal((96, 96, 3))
                x, y = rng.integers(10, 60, size=2)
                img[y : y + 20, x : x + 20, 0] = 0.95
                img = np.clip(img, 0, 1)
                imgs.append(img)
                gts.append([GroundTruthBox("blob", x, y, 20, 20)])
            return imgs, gts

        train_x, train_y = make(4)
        test_x, test_y = make(3)
        det = CorrelationDetector(classes=("blob",), scales=(0.9, 1.0, 1.15))
        det.fit(train_x, train_y)
        preds = det.detect_batch(test_x)
        result = evaluate_detections(preds, test_y, ["blob"])
        assert result.map > 0.9

    def test_crowdhuman_heads_detectable(self, train_scenes, test_scenes):
        det = CorrelationDetector(classes=("head",))
        det.fit([s.image for s in train_scenes], [s.boxes for s in train_scenes])
        preds = det.detect_batch([s.image for s in test_scenes])
        result = evaluate_detections(preds, [s.boxes for s in test_scenes], ["head"])
        assert result.map > 0.2

    def test_gray_mode_on_analog_gray_frame(self, train_scenes):
        """A gray detector consumes 2-D frames (in-sensor merged)."""
        det = CorrelationDetector(classes=("person",), colorspace="gray")
        gray_imgs = [s.image.mean(axis=2) for s in train_scenes]
        det.fit(gray_imgs, [s.boxes for s in train_scenes])
        dets = det.detect(gray_imgs[0])
        assert isinstance(dets, list)

    def test_detections_sorted_by_score(self, train_scenes, test_scenes):
        det = CorrelationDetector(classes=("person", "head"))
        det.fit([s.image for s in train_scenes], [s.boxes for s in train_scenes])
        dets = det.detect(test_scenes[0].image)
        scores = [d.score for d in dets]
        assert scores == sorted(scores, reverse=True)

    def test_max_detections_cap(self, train_scenes, test_scenes):
        det = CorrelationDetector(classes=("person",), max_detections=3,
                                  cross_class_nms_iou=None)
        det.fit([s.image for s in train_scenes], [s.boxes for s in train_scenes])
        dets = det.detect(test_scenes[0].image)
        assert len(dets) <= 3


class TestGridDetector:
    @pytest.fixture(scope="class")
    def simple_data(self):
        """Bright squares on dark backgrounds, one class."""
        rng = np.random.default_rng(7)
        images, annotations = [], []
        for _ in range(24):
            img = 0.1 + 0.02 * rng.standard_normal((48, 48, 3))
            x, y = rng.integers(4, 30, size=2)
            img[y : y + 14, x : x + 14, :] = 0.9
            images.append(np.clip(img, 0, 1))
            annotations.append([GroundTruthBox("blob", x, y, 14, 14)])
        return np.stack(images), annotations

    def test_input_dims_must_divide_stride(self):
        with pytest.raises(ValueError):
            GridDetector(GridDetectorConfig(input_hw=(50, 48), classes=("a",)))

    def test_encode_targets_places_center(self, simple_data):
        _, annotations = simple_data
        det = GridDetector(GridDetectorConfig(input_hw=(48, 48), classes=("blob",)))
        target = det.encode_targets(annotations[0])
        assert target.shape == (6, 6, 6)
        assert target[..., 0].sum() == 1.0

    def test_training_reduces_loss(self, simple_data):
        images, annotations = simple_data
        det = GridDetector(GridDetectorConfig(input_hw=(48, 48), classes=("blob",)), seed=1)
        losses = det.fit(images, annotations, epochs=8, batch_size=8, lr=2e-3, seed=0)
        assert losses[-1] < losses[0]

    def test_trained_detector_finds_blobs(self, simple_data):
        images, annotations = simple_data
        config = GridDetectorConfig(
            input_hw=(48, 48), classes=("blob",), score_threshold=0.3
        )
        det = GridDetector(config, seed=1)
        det.fit(images, annotations, epochs=30, batch_size=8, lr=2e-3, seed=0)
        preds = [det.detect(img) for img in images[:8]]
        result = evaluate_detections(
            preds, annotations[:8], ["blob"], iou_threshold=0.3
        )
        assert result.map > 0.5

    def test_loss_gradient_matches_finite_differences(self):
        """``loss_and_grad``'s analytic gradient is the one training
        follows: check it entry by entry on a positive and an empty cell."""
        det = GridDetector(GridDetectorConfig(input_hw=(48, 48), classes=("a", "b")))
        targets = np.stack([
            det.encode_targets([GroundTruthBox("a", 3, 5, 10, 14)]),
            det.encode_targets([GroundTruthBox("b", 20, 26, 12, 8)]),
        ])
        preds = np.random.default_rng(3).standard_normal(targets.shape)
        _, grad = det.loss_and_grad(preds, targets)
        positive = tuple(np.argwhere(targets[1, ..., 0] == 1.0)[0])
        eps = 1e-6
        for cell in (positive, (0, 5)):
            for channel in range(targets.shape[-1]):
                index = (1, *cell, channel)
                old = preds[index]
                preds[index] = old + eps
                hi, _ = det.loss_and_grad(preds, targets)
                preds[index] = old - eps
                lo, _ = det.loss_and_grad(preds, targets)
                preds[index] = old
                assert grad[index] == pytest.approx((hi - lo) / (2 * eps), abs=1e-7), index


class TestGridDecodeVectorized:
    """The vectorized decode must match the original per-cell loop exactly."""

    @staticmethod
    def _reference_decode(det, preds):
        """The pre-vectorization per-cell decode, kept as the oracle."""
        from repro.ml.detector.grid import nms, sigmoid, softmax
        from repro.ml.eval.metrics import Detection

        obj = sigmoid(preds[..., 0])
        offs = sigmoid(preds[..., 1:3])
        sizes = np.exp(np.clip(preds[..., 3:5], -2.0, 8.0))
        cls_probs = softmax(preds[..., 5:], axis=-1)
        boxes, scores, labels = [], [], []
        ys, xs = np.nonzero(obj >= det.config.score_threshold)
        for gy, gx in zip(ys, xs):
            cx = (gx + offs[gy, gx, 0]) * det.STRIDE
            cy = (gy + offs[gy, gx, 1]) * det.STRIDE
            w, h = sizes[gy, gx]
            cls = int(np.argmax(cls_probs[gy, gx]))
            boxes.append((cx - w / 2.0, cy - h / 2.0, float(w), float(h)))
            scores.append(float(obj[gy, gx] * cls_probs[gy, gx, cls]))
            labels.append(det.config.classes[cls])
        if not boxes:
            return []
        keep = nms(np.asarray(boxes), np.asarray(scores), det.config.nms_iou)
        return [Detection(labels[i], scores[i], *boxes[i]) for i in keep]

    @pytest.fixture(scope="class")
    def detector(self):
        return GridDetector(
            GridDetectorConfig(
                input_hw=(48, 48), classes=("blob", "spot"), score_threshold=0.35
            ),
            seed=3,
        )

    def test_identical_on_random_heads(self, detector):
        rng = np.random.default_rng(21)
        for _ in range(5):
            preds = rng.standard_normal((6, 6, 7)) * 2.0
            got = detector.decode(preds)
            expected = self._reference_decode(detector, preds)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert a.label == b.label
                assert a.score == b.score
                assert (a.x, a.y, a.w, a.h) == (b.x, b.y, b.w, b.h)

    def test_identical_on_fixed_clip(self, detector):
        # detect() on real frames goes through decode(): same result as
        # the reference loop on the same head output.
        from repro.stream.source import pedestrian_clip

        clip = pedestrian_clip(n_frames=2, resolution=(48, 48), seed=9)
        for frame in clip.frames:
            preds = detector.net.forward(frame[None], training=False)[0]
            got = detector.detect(frame)
            expected = self._reference_decode(detector, preds)
            assert len(got) == len(expected)
            for a, b in zip(got, expected):
                assert (a.label, a.score, a.x, a.y, a.w, a.h) == (
                    b.label, b.score, b.x, b.y, b.w, b.h
                )

    def test_empty_when_nothing_clears_threshold(self, detector):
        preds = np.full((6, 6, 7), -10.0)  # objectness sigmoid ~ 0
        assert detector.decode(preds) == []

    def test_detection_fields_are_plain_floats(self, detector):
        rng = np.random.default_rng(2)
        preds = rng.standard_normal((6, 6, 7)) * 2.0
        for d in detector.decode(preds):
            assert isinstance(d.score, float)
            assert isinstance(d.x, float) and isinstance(d.w, float)
