"""Tests for the dataset wrappers and their calibrated statistics."""

import numpy as np

from repro.datasets import crowdhuman_like, dhdcampus_like, visdrone_like


class TestCrowdhumanStatistics:
    """The Table 3 / Fig. 7 calibration constants (see DESIGN.md)."""

    def test_median_head_count_near_16(self):
        scenes = crowdhuman_like(8, resolution=(640, 480), seed=21)
        assert 12 <= np.median([len(s.boxes_for("head")) for s in scenes]) <= 20

    def test_body_area_fraction_near_27_percent(self):
        scenes = crowdhuman_like(8, resolution=(640, 480), seed=21)
        fractions = [
            sum(b.area for b in s.boxes_for("person")) / s.image[..., 0].size
            for s in scenes
        ]
        assert 0.18 <= np.median(fractions) <= 0.36

    def test_head_size_scales_with_array_width(self):
        """Paper Table 3: ROI side ~ 14 px per 320 px of array width."""
        scenes = crowdhuman_like(6, resolution=(640, 480), seed=4)
        heads = [b.h for s in scenes for b in s.boxes_for("head")]
        median = np.median(heads)
        # 640-wide array -> expect ~28 px heads (2x the 320 reference).
        assert 17 <= median <= 39


class TestWrapperBasics:
    def test_counts(self):
        assert len(crowdhuman_like(3, (320, 240), seed=0)) == 3
        assert len(dhdcampus_like(2, (320, 240), seed=0)) == 2
        assert len(visdrone_like(2, (320, 240), seed=0)) == 2

    def test_names_carry_profile(self):
        scene = dhdcampus_like(1, (320, 240), seed=0)[0]
        assert "dhdcampus" in scene.name

    def test_visdrone_has_ten_classes_available(self):
        from repro.datasets import VISDRONE_LIKE

        assert len(VISDRONE_LIKE.classes) == 10
        scenes = visdrone_like(4, (640, 480), seed=1)
        seen = {b.label for s in scenes for b in s.boxes}
        assert len(seen) >= 5  # several of the 10 appear in a few frames

    def test_seeds_give_different_data(self):
        a = crowdhuman_like(1, (320, 240), seed=1)[0]
        b = crowdhuman_like(1, (320, 240), seed=2)[0]
        assert not np.array_equal(a.image, b.image)
