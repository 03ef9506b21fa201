"""Tests for the component registries and their introspection surface."""

import pytest

from repro.service import (
    CLASSIFIERS,
    DETECTORS,
    POLICIES,
    SOURCES,
    Registry,
    UnknownComponentError,
    list_components,
)
from repro.service.registry import registry_epoch


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("widget")

        @reg.register("a")
        def build_a():
            return "A"

        assert reg.get("a") is build_a
        assert "a" in reg
        assert reg.names() == ["a"]
        assert len(reg) == 1

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.register("a")(lambda: None)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a")(lambda: None)

    def test_unregister_then_reregister(self):
        reg = Registry("widget")
        reg.register("a")(lambda: 1)
        del reg["a"]
        assert "a" not in reg
        reg.register("a")(lambda: 2)
        assert reg.get("a")() == 2

    def test_only_a_deletion_bumps_the_override_epoch(self):
        """Engine caches fold the epoch into their keys: an added name
        cannot retarget an existing spec, a deleted one can."""
        reg = Registry("widget")
        before = registry_epoch()
        reg.register("a")(lambda: 1)
        assert registry_epoch() == before
        del reg["a"]
        assert registry_epoch() == before + 1

    def test_unknown_name_error_lists_known(self):
        reg = Registry("widget")
        reg.register("alpha")(lambda: None)
        reg.register("beta")(lambda: None)
        with pytest.raises(UnknownComponentError) as exc:
            reg.get("gamma")
        message = str(exc.value)
        assert "gamma" in message and "alpha" in message and "beta" in message
        assert "widget" in message

    def test_unknown_component_error_is_key_error(self):
        with pytest.raises(KeyError):
            Registry("widget").get("missing")

    def test_invalid_names_rejected(self):
        reg = Registry("widget")
        with pytest.raises(ValueError):
            reg.register("")
        with pytest.raises(ValueError):
            reg.register(3)

    def test_iteration_is_sorted(self):
        reg = Registry("widget")
        for name in ("zeta", "alpha", "mid"):
            reg.register(name)(lambda: None)
        assert list(reg) == ["alpha", "mid", "zeta"]


class TestBuiltins:
    def test_builtin_components_registered(self):
        assert "ground-truth" in DETECTORS and "grid" in DETECTORS
        assert "none" in CLASSIFIERS and "mean-luma" in CLASSIFIERS
        assert "pedestrian" in SOURCES and "drone" in SOURCES
        for name in ("crowdhuman-scenes", "dhdcampus-scenes", "visdrone-scenes"):
            assert name in SOURCES
        assert "none" in POLICIES and "temporal-reuse" in POLICIES
        assert "keyframe" in POLICIES

    def test_list_components_shape(self):
        listing = list_components()
        assert sorted(listing) == [
            "classifiers", "detectors", "policies", "sources"
        ]
        for names in listing.values():
            assert names == sorted(names)
            assert names  # every slot ships at least one builtin

    def test_listing_matches_registries(self):
        listing = list_components()
        assert listing["detectors"] == DETECTORS.names()
        assert listing["classifiers"] == CLASSIFIERS.names()
        assert listing["sources"] == SOURCES.names()
        assert listing["policies"] == POLICIES.names()

    def test_source_factories_build_clips(self):
        for name in ("pedestrian", "drone"):
            clip = SOURCES.get(name)(4, 0, resolution=(64, 48))
            assert len(clip.frames) == 4
            assert clip.resolution == (64, 48)

    def test_scene_sweep_sources(self):
        clip = SOURCES.get("crowdhuman-scenes")(
            3, 7, resolution=(96, 64), label="head"
        )
        assert len(clip.frames) == 3
        assert clip.resolution == (96, 64)
        # independent scenes: every frame has its own ground truth boxes
        assert all(clip.ground_truth)
        # deterministic given the seed
        again = SOURCES.get("crowdhuman-scenes")(
            3, 7, resolution=(96, 64), label="head"
        )
        import numpy as np

        assert all(np.array_equal(a, b) for a, b in zip(clip.frames, again.frames))

    def test_scene_sweep_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="wobble"):
            SOURCES.get("visdrone-scenes")(2, 0, wobble=True)

    def test_policy_factory_forwards_params(self):
        policy = POLICIES.get("temporal-reuse")(max_reuse=5, stability_iou=0.7)
        assert policy.max_reuse == 5
        assert policy.stability_iou == 0.7
        assert POLICIES.get("none")() is None
        keyframe = POLICIES.get("keyframe")(interval=3, warmup=4)
        assert (keyframe.interval, keyframe.warmup) == (3, 4)

    def test_mean_luma_classifier(self):
        import numpy as np

        classify = CLASSIFIERS.get("mean-luma")()
        assert classify(np.ones((4, 4, 3))) == pytest.approx(1.0)
        assert classify(np.zeros((4, 4, 3))) == pytest.approx(0.0)

    def test_mean_luma_batch_bit_identical_to_loop(self):
        import numpy as np

        from repro.core import classify_crops

        classify = CLASSIFIERS.get("mean-luma")()
        rng = np.random.default_rng(0)
        # Mixed shapes (several buckets), RGB and grayscale layouts.
        rgb = [rng.random((13, 17, 3)) for _ in range(4)] + [rng.random((8, 9, 3))]
        assert classify_crops(classify, rgb) == [classify(c) for c in rgb]
        gray = [rng.random((6, 7)) for _ in range(3)]
        assert classify_crops(classify, gray) == [classify(c) for c in gray]
        single = [rng.random((5, 5, 1)) for _ in range(2)]
        assert classify_crops(classify, single) == [classify(c) for c in single]

    def test_none_factories_reject_params(self):
        with pytest.raises(ValueError, match="takes no params"):
            CLASSIFIERS.get("none")(bogus=1)
        with pytest.raises(ValueError, match="takes no params"):
            POLICIES.get("none")(bogus=1)
