"""Tests for box geometry, NMS, AP and mAP."""

import numpy as np
import pytest

from repro.ml import Detection, evaluate_detections, iou_matrix, nms
from repro.ml.eval.metrics import average_precision


class TestIoU:
    def test_identical_boxes(self):
        assert iou_matrix((0, 0, 10, 10), (0, 0, 10, 10))[0, 0] == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert iou_matrix((0, 0, 5, 5), (10, 10, 5, 5))[0, 0] == 0.0

    def test_half_overlap(self):
        # Two 10x10 boxes sharing a 5x10 strip: IoU = 50/150.
        assert iou_matrix((0, 0, 10, 10), (5, 0, 10, 10))[0, 0] == pytest.approx(1 / 3)

    def test_contained_box(self):
        assert iou_matrix((0, 0, 10, 10), (2, 2, 5, 5))[0, 0] == pytest.approx(25 / 100)

    def test_matrix_shape(self):
        a = np.array([[0, 0, 5, 5], [10, 10, 5, 5]])
        b = np.array([[0, 0, 5, 5], [2, 2, 5, 5], [20, 20, 1, 1]])
        m = iou_matrix(a, b)
        assert m.shape == (2, 3)
        assert m[0, 0] == pytest.approx(1.0)
        assert m[1, 2] == 0.0

    def test_empty_inputs(self):
        assert iou_matrix(np.zeros((0, 4)), np.zeros((3, 4))).shape == (0, 3)

    def test_degenerate_box_zero_iou(self):
        assert iou_matrix((0, 0, 0, 10), (0, 0, 5, 5))[0, 0] == 0.0


class TestNMS:
    def test_keeps_highest_scoring(self):
        boxes = np.array([[0, 0, 10, 10], [1, 1, 10, 10]])
        keep = nms(boxes, np.array([0.5, 0.9]), iou_threshold=0.5)
        assert keep == [1]

    def test_keeps_disjoint(self):
        boxes = np.array([[0, 0, 10, 10], [50, 50, 10, 10]])
        keep = nms(boxes, np.array([0.5, 0.9]), iou_threshold=0.5)
        assert sorted(keep) == [0, 1]

    def test_order_by_score(self):
        boxes = np.array([[0, 0, 5, 5], [20, 0, 5, 5], [40, 0, 5, 5]])
        keep = nms(boxes, np.array([0.1, 0.9, 0.5]), iou_threshold=0.5)
        assert keep == [1, 2, 0]

    def test_empty(self):
        assert nms(np.zeros((0, 4)), np.zeros(0)) == []

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            nms(np.zeros((2, 4)), np.zeros(3))


class TestAveragePrecision:
    def test_perfect_detector(self):
        recalls = np.array([0.5, 1.0])
        precisions = np.array([1.0, 1.0])
        assert average_precision(recalls, precisions) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert average_precision(np.array([]), np.array([])) == 0.0

    def test_monotone_envelope(self):
        """A precision dip is filled in by the envelope."""
        recalls = np.array([0.25, 0.5, 0.75, 1.0])
        precisions = np.array([1.0, 0.5, 1.0, 0.8])
        ap = average_precision(recalls, precisions)
        # Envelope: [1.0, 1.0, 1.0, 0.8] -> 0.75*1.0 + 0.25*0.8
        assert ap == pytest.approx(0.95)


def make_gt(label, box):
    return (label, box)


class TestEvaluateDetections:
    def test_perfect_predictions(self):
        gts = [[make_gt("person", (0, 0, 10, 10)), make_gt("person", (50, 50, 8, 8))]]
        preds = [[
            Detection("person", 0.9, 0, 0, 10, 10),
            Detection("person", 0.8, 50, 50, 8, 8),
        ]]
        result = evaluate_detections(preds, gts, ["person"])
        assert result.map == pytest.approx(1.0)

    def test_missed_gt_halves_recall(self):
        gts = [[make_gt("person", (0, 0, 10, 10)), make_gt("person", (50, 50, 8, 8))]]
        preds = [[Detection("person", 0.9, 0, 0, 10, 10)]]
        result = evaluate_detections(preds, gts, ["person"])
        assert result.map == pytest.approx(0.5)

    def test_false_positive_lowers_precision(self):
        gts = [[make_gt("person", (0, 0, 10, 10))]]
        preds = [[
            Detection("person", 0.9, 100, 100, 10, 10),  # FP scored higher
            Detection("person", 0.5, 0, 0, 10, 10),
        ]]
        result = evaluate_detections(preds, gts, ["person"])
        assert 0.0 < result.map < 1.0

    def test_duplicate_detection_counts_once(self):
        gts = [[make_gt("person", (0, 0, 10, 10))]]
        preds = [[
            Detection("person", 0.9, 0, 0, 10, 10),
            Detection("person", 0.8, 1, 0, 10, 10),  # duplicate -> FP
        ]]
        result = evaluate_detections(preds, gts, ["person"])
        assert result.map == pytest.approx(1.0)  # AP unaffected by tail FP

    def test_iou_threshold_matters(self):
        gts = [[make_gt("person", (0, 0, 10, 10))]]
        preds = [[Detection("person", 0.9, 4, 0, 10, 10)]]  # IoU ~ 0.43
        loose = evaluate_detections(preds, gts, ["person"], iou_threshold=0.4)
        strict = evaluate_detections(preds, gts, ["person"], iou_threshold=0.5)
        assert loose.map == pytest.approx(1.0)
        assert strict.map == 0.0

    def test_absent_class_skipped(self):
        gts = [[make_gt("person", (0, 0, 10, 10))]]
        preds = [[Detection("person", 0.9, 0, 0, 10, 10)]]
        result = evaluate_detections(preds, gts, ["person", "unicorn"])
        assert set(result.per_class_ap) == {"person"}

    def test_wrong_class_is_fp(self):
        gts = [[make_gt("person", (0, 0, 10, 10)), make_gt("head", (2, 2, 3, 3))]]
        preds = [[Detection("head", 0.9, 0, 0, 10, 10)]]
        result = evaluate_detections(preds, gts, ["person", "head"])
        assert result.per_class_ap["person"] == 0.0
        assert result.per_class_ap["head"] == 0.0

    def test_accepts_gt_objects_with_attrs(self, small_scene):
        preds = [[]]
        result = evaluate_detections(preds, [small_scene.boxes], ["person"])
        assert result.per_class_ap["person"] == 0.0

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            evaluate_detections([[], []], [[]], ["person"])
