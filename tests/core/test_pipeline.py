"""Tests for the end-to-end pipelines (config, HiRISE, conventional)."""

import numpy as np
import pytest

from repro.core import (
    ConventionalPipeline,
    HiRISEConfig,
    HiRISEPipeline,
    ROI,
    compare,
    comparison_report,
    format_bytes,
    format_energy,
)


@pytest.fixture(scope="module")
def scene_image(small_scene):
    return small_scene.image


@pytest.fixture(scope="module")
def head_rois(small_scene):
    return [
        ROI(int(b.x), int(b.y), max(int(b.w), 2), max(int(b.h), 2), 0.9, "head")
        for b in small_scene.boxes_for("head")
    ]


@pytest.fixture(scope="module")
def nested_rois(head_rois):
    """Head windows plus three more: ``(3, 3, 3, 3)`` nests in
    ``(2, 2, 6, 6)``, which comes before the larger ``(40, 10, 20, 30)``
    (out of area order)."""
    extra = [(2, 2, 6, 6), (40, 10, 20, 30), (3, 3, 3, 3)]
    return head_rois + [ROI(*box, 0.9, "head") for box in extra]


def run_both_ways(image, rois):
    """``(entry, outcome)`` for a stage-1 frame given ``rois`` and for a
    reused frame reading them as predicted windows."""
    pipeline = HiRISEPipeline(config=HiRISEConfig(pool_k=4))
    yield "run", pipeline.run(image, rois=rois)
    yield "run_stage2_only", pipeline.run_stage2_only(image, rois)


class TestHiRISEConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HiRISEConfig(pool_k=0)
        with pytest.raises(ValueError):
            HiRISEConfig(adc_bits=0)
        with pytest.raises(ValueError):
            HiRISEConfig(roi_pad_fraction=-1)
        with pytest.raises(ValueError):
            HiRISEConfig(max_rois=0)

    def test_for_stage1_resolution(self):
        cfg = HiRISEConfig.for_stage1_resolution((2560, 1920), (320, 240))
        assert cfg.pool_k == 8

    def test_for_stage1_resolution_forwards_known_kwargs(self):
        cfg = HiRISEConfig.for_stage1_resolution(
            (2560, 1920), (320, 240), grayscale_stage1=True, max_rois=4
        )
        assert cfg.pool_k == 8
        assert cfg.grayscale_stage1 is True
        assert cfg.max_rois == 4

    def test_for_stage1_resolution_rejects_nonmultiple(self):
        with pytest.raises(ValueError):
            HiRISEConfig.for_stage1_resolution((2560, 1920), (300, 200))

    def test_for_stage1_resolution_names_remainders(self):
        with pytest.raises(ValueError, match=r"2560x1920.*300x200.*remainder"):
            HiRISEConfig.for_stage1_resolution((2560, 1920), (300, 200))

    def test_for_stage1_resolution_names_mismatched_factors(self):
        # both axes divide, but by different factors: w/320=4, h/240=2
        with pytest.raises(ValueError, match=r"width gives k=4.*height gives k=2"):
            HiRISEConfig.for_stage1_resolution((1280, 480), (320, 240))

    def test_for_stage1_resolution_rejects_unknown_kwargs_by_name(self):
        with pytest.raises(TypeError, match=r"\['fov'\].*valid fields"):
            HiRISEConfig.for_stage1_resolution((2560, 1920), fov=90)

    def test_for_stage1_resolution_rejects_explicit_pool_k(self):
        with pytest.raises(TypeError, match=r"pool_k=3"):
            HiRISEConfig.for_stage1_resolution((2560, 1920), pool_k=3)

    def test_config_dict_round_trip(self):
        cfg = HiRISEConfig(pool_k=2, merge_roi_iou=0.4, max_rois=7)
        assert HiRISEConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_from_dict_names_unknown_fields(self):
        with pytest.raises(ValueError, match=r"\['pool_q'\].*known fields"):
            HiRISEConfig.from_dict({"pool_q": 8})

    def test_score_threshold_gates_explicit_rois(self, scene_image, head_rois):
        # explicit ROIs pass the same confidence gate as detector outputs
        gated = HiRISEPipeline(
            config=HiRISEConfig(pool_k=4, score_threshold=0.95)
        ).run(scene_image, rois=head_rois)
        assert gated.rois == []
        unscored = [ROI(8, 8, 16, 16)]  # score=None is never filtered
        kept = HiRISEPipeline(
            config=HiRISEConfig(pool_k=4, score_threshold=0.95)
        ).run(scene_image, rois=unscored)
        assert len(kept.rois) == 1


class TestHiRISEPipeline:
    def test_requires_detector_or_rois(self, scene_image):
        with pytest.raises(ValueError):
            HiRISEPipeline(config=HiRISEConfig(pool_k=2)).run(scene_image)

    def test_stage1_frame_is_pooled(self, scene_image, head_rois):
        out = HiRISEPipeline(config=HiRISEConfig(pool_k=4)).run(
            scene_image, rois=head_rois
        )
        assert out.stage1_image.shape == (120, 160, 3)

    def test_grayscale_stage1(self, scene_image, head_rois):
        cfg = HiRISEConfig(pool_k=4, grayscale_stage1=True)
        out = HiRISEPipeline(config=cfg).run(scene_image, rois=head_rois)
        assert out.stage1_image.ndim == 2
        assert out.stage1_conversions == 120 * 160

    def test_roi_crops_full_resolution(self, scene_image, nested_rois):
        for entry, out in run_both_ways(scene_image, nested_rois):
            assert len(out.roi_crops) == len(out.rois), entry
            for roi, crop in zip(out.rois, out.roi_crops):
                assert crop.shape == (roi.h, roi.w, 3), entry

    def test_crop_content_matches_scene(self, scene_image, head_rois):
        out = HiRISEPipeline(config=HiRISEConfig(pool_k=4)).run(
            scene_image, rois=head_rois[:1]
        )
        roi = out.rois[0]
        expected = scene_image[roi.y : roi.y2, roi.x : roi.x2, :]
        assert np.max(np.abs(out.roi_crops[0] - expected)) < 1 / 255.0

    def test_ledger_consistency(self, scene_image, nested_rois):
        for entry, out in run_both_ways(scene_image, nested_rois):
            assert out.ledger.stage1_s2p == out.stage1_conversions, entry  # 8-bit
            assert out.ledger.stage2_s2p == out.stage2_conversions, entry
            # One descriptor per window the sensor reads, no more.
            assert out.ledger.stage1_p2s == len(out.roi_crops) * 8, entry
            assert out.ledger.stage1_p2s == len(out.rois) * 8, entry

    def test_energy_accounting(self, scene_image, head_rois):
        out = HiRISEPipeline(config=HiRISEConfig(pool_k=4)).run(
            scene_image, rois=head_rois
        )
        expected = (out.stage1_conversions + out.stage2_conversions) * 125e-12
        assert out.energy.stage1_adc + out.energy.stage2_adc == pytest.approx(expected)
        assert out.energy.pooling > 0

    def test_classifier_applied_per_crop(self, scene_image, head_rois):
        calls = []

        def fake_classifier(crop):
            calls.append(crop.shape)
            return "neutral"

        out = HiRISEPipeline(
            classifier=fake_classifier, config=HiRISEConfig(pool_k=4)
        ).run(scene_image, rois=head_rois)
        assert len(out.predictions) == len(out.rois)
        assert all(p == "neutral" for p in out.predictions)

    def test_detector_driven_run(self, scene_image):
        """A trivial detector emitting one centered box drives stage 2."""

        class OneBox:
            def __call__(self, frame):
                from repro.ml import Detection

                h, w = frame.shape[:2]
                return [Detection("obj", 0.9, w // 4, h // 4, w // 4, h // 4)]

        out = HiRISEPipeline(detector=OneBox(), config=HiRISEConfig(pool_k=4)).run(
            scene_image
        )
        assert len(out.rois) == 1
        # Detector coordinates were scaled back by k=4.
        assert out.rois[0].w == pytest.approx(160, abs=4)

    def test_score_threshold_filters(self, scene_image):
        from repro.ml import Detection

        def detector(frame):
            return [
                Detection("a", 0.9, 1, 1, 10, 10),
                Detection("b", 0.1, 20, 20, 10, 10),
            ]

        cfg = HiRISEConfig(pool_k=4, score_threshold=0.5)
        out = HiRISEPipeline(detector=detector, config=cfg).run(scene_image)
        assert len(out.rois) == 1

    def test_max_rois_enforced(self, scene_image, head_rois):
        cfg = HiRISEConfig(pool_k=4, max_rois=3)
        out = HiRISEPipeline(config=cfg).run(scene_image, rois=head_rois)
        assert len(out.rois) <= 3

    def test_peak_memory_is_max_of_stages(self, scene_image, head_rois):
        out = HiRISEPipeline(config=HiRISEConfig(pool_k=4)).run(
            scene_image, rois=head_rois
        )
        largest = max(c.size for c in out.roi_crops)
        assert out.peak_image_memory_bytes == max(out.ledger.stage1_s2p, largest)

    def test_report_is_text(self, scene_image, head_rois):
        out = HiRISEPipeline(config=HiRISEConfig(pool_k=4)).run(
            scene_image, rois=head_rois
        )
        text = out.report()
        assert "hirise" in text
        assert "ROIs" in text


class TestConventionalPipeline:
    def test_full_frame_converted(self, scene_image):
        out = ConventionalPipeline().run(scene_image)
        assert out.stage1_image.shape == scene_image.shape
        assert out.stage2_conversions == scene_image.size

    def test_digital_crops(self, scene_image, head_rois):
        out = ConventionalPipeline().run(scene_image, rois=head_rois)
        assert len(out.roi_crops) == len(out.rois)

    def test_baseline_energy_constant_wrt_rois(self, scene_image, head_rois):
        a = ConventionalPipeline().run(scene_image)
        b = ConventionalPipeline().run(scene_image, rois=head_rois)
        assert a.energy.total == pytest.approx(b.energy.total)


class TestComparison:
    def test_hirise_wins_all_metrics(self, scene_image, head_rois):
        hirise = HiRISEPipeline(config=HiRISEConfig(pool_k=4)).run(
            scene_image, rois=head_rois
        )
        base = ConventionalPipeline().run(scene_image, rois=head_rois)
        cmp = compare(hirise, base)
        assert cmp.transfer_reduction > 1
        assert cmp.energy_reduction > 1
        assert cmp.memory_reduction > 1
        assert cmp.conversion_reduction > 1

    def test_compare_validates_order(self, scene_image, head_rois):
        hirise = HiRISEPipeline(config=HiRISEConfig(pool_k=4)).run(
            scene_image, rois=head_rois
        )
        base = ConventionalPipeline().run(scene_image, rois=head_rois)
        with pytest.raises(ValueError):
            compare(base, hirise)

    def test_report_text(self, scene_image, head_rois):
        hirise = HiRISEPipeline(config=HiRISEConfig(pool_k=4)).run(
            scene_image, rois=head_rois
        )
        base = ConventionalPipeline().run(scene_image, rois=head_rois)
        text = comparison_report(hirise, base)
        assert "reduction" in text
        assert "x" in text


class TestFormatters:
    def test_format_bytes_decimal(self):
        assert format_bytes(14_745_600) == "14.75 MB"
        assert format_bytes(230_400) == "230.4 kB"
        assert format_bytes(12) == "12 B"

    def test_format_energy(self):
        assert format_energy(1.843e-3) == "1.843 mJ"
        assert format_energy(40e-6) == "40.00 uJ"
        assert format_energy(91.4e-9) == "91.40 nJ"
