"""Tests for scene generation and ground truth."""

import numpy as np
import pytest

from repro.datasets import (
    CROWDHUMAN_LIKE,
    DHDCAMPUS_LIKE,
    GroundTruthBox,
    Scene,
    SceneGenerator,
    VISDRONE_LIKE,
)


class TestGroundTruthBox:
    def test_area(self):
        assert GroundTruthBox("person", 0, 0, 4, 5).area == 20

    def test_scaled(self):
        box = GroundTruthBox("person", 10, 20, 30, 40).scaled(0.5, 0.25)
        assert box.xywh == (5.0, 5.0, 15.0, 10.0)
        assert box.label == "person"

    def test_xywh_tuple(self):
        assert GroundTruthBox("head", 1, 2, 3, 4).xywh == (1, 2, 3, 4)


class TestSceneGenerator:
    def test_deterministic_given_seed(self):
        a = SceneGenerator(CROWDHUMAN_LIKE, (320, 240), seed=9).scene(0)
        b = SceneGenerator(CROWDHUMAN_LIKE, (320, 240), seed=9).scene(0)
        assert np.array_equal(a.image, b.image)
        assert a.boxes == b.boxes

    def test_different_indices_differ(self):
        gen = SceneGenerator(CROWDHUMAN_LIKE, (320, 240), seed=9)
        assert not np.array_equal(gen.scene(0).image, gen.scene(1).image)

    def test_image_in_unit_range(self, small_scene):
        assert small_scene.image.min() >= 0.0
        assert small_scene.image.max() <= 1.0

    def test_resolution_property(self, small_scene):
        assert small_scene.resolution == (640, 480)
        assert small_scene.image.shape == (480, 640, 3)

    def test_crowdhuman_emits_person_and_head(self, small_scene):
        labels = {b.label for b in small_scene.boxes}
        assert "person" in labels
        assert "head" in labels

    def test_head_boxes_inside_person_boxes(self, small_scene):
        """Every head belongs to some person box."""
        persons = small_scene.boxes_for("person")
        for head in small_scene.boxes_for("head"):
            hx, hy = head.x + head.w / 2, head.y + head.h / 2
            assert any(
                p.x <= hx <= p.x + p.w and p.y <= hy <= p.y + p.h for p in persons
            )

    def test_object_count_in_profile_range(self, small_scene):
        lo, hi = CROWDHUMAN_LIKE.objects_per_image
        n_persons = len(small_scene.boxes_for("person"))
        assert lo - 2 <= n_persons <= hi  # a couple may fail placement

    def test_object_scale_in_profile_range(self, small_scene):
        lo, hi = CROWDHUMAN_LIKE.object_scale
        heights = [b.h for b in small_scene.boxes_for("person")]
        assert min(heights) >= lo * 480 * 0.9
        assert max(heights) <= hi * 480 * 1.1

    def test_dhd_classes(self):
        scene = SceneGenerator(DHDCAMPUS_LIKE, (320, 240), seed=3).scene(0)
        assert {b.label for b in scene.boxes} <= {"person", "cyclist"}

    def test_visdrone_objects_are_tiny(self):
        scene = SceneGenerator(VISDRONE_LIKE, (640, 480), seed=3).scene(0)
        assert scene.boxes, "visdrone scene should contain objects"
        median_h = np.median([b.h for b in scene.boxes])
        assert median_h < 0.08 * 480

    def test_rejects_tiny_resolution(self):
        with pytest.raises(ValueError):
            SceneGenerator(CROWDHUMAN_LIKE, (16, 16), seed=0)

    def test_total_box_area_filter(self, small_scene):
        total = sum(b.area for b in small_scene.boxes)
        persons_only = sum(b.area for b in small_scene.boxes_for("person"))
        assert 0 < persons_only < total


class TestSceneResolutionIndependence:
    def test_profile_scales_with_resolution(self):
        """The same profile at 2x resolution -> ~2x object heights."""
        lo_scene = SceneGenerator(CROWDHUMAN_LIKE, (320, 240), seed=5).scene(0)
        hi_scene = SceneGenerator(CROWDHUMAN_LIKE, (640, 480), seed=5).scene(0)
        lo_med = np.median([b.h for b in lo_scene.boxes_for("person")])
        hi_med = np.median([b.h for b in hi_scene.boxes_for("person")])
        assert hi_med == pytest.approx(2 * lo_med, rel=0.35)
