"""Tests for the Engine façade: spec loading, serving, and batch identity."""

import json

import numpy as np
import pytest

from repro.core import HiRISEConfig, HiRISEPipeline
from repro.service import (
    ComponentRef,
    Engine,
    ScenarioSpec,
    ServiceSpec,
    SpecError,
    SystemSpec,
    register_detector,
)
from repro.service.registry import DETECTORS
from repro.stream import StreamRunner, ground_truth_detector, pedestrian_clip

SYSTEM = SystemSpec(
    config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05, max_rois=8),
    detector=ComponentRef("ground-truth", {"label": "person"}),
)


def scenario(**kwargs) -> ScenarioSpec:
    defaults = dict(
        source=ComponentRef("pedestrian", {"resolution": [128, 96]}),
        n_frames=6,
        seed=4,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestConstruction:
    def test_from_spec_dict_and_objects(self):
        for spec in (
            SYSTEM,
            SYSTEM.to_dict(),
            ServiceSpec(system=SYSTEM),
            {"system": SYSTEM.to_dict(), "scenarios": [], "workers": 2},
        ):
            engine = Engine.from_spec(spec)
            assert engine.spec == SYSTEM

    def test_from_spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        service = ServiceSpec(system=SYSTEM, scenarios=(scenario(),), workers=2)
        path.write_text(service.to_json())
        engine = Engine.from_spec(path)
        assert engine.spec == SYSTEM
        assert engine.scenarios == service.scenarios
        assert engine.workers == 2
        # str paths work too
        assert Engine.from_spec(str(path)).spec == SYSTEM

    def test_from_spec_bad_json_names_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="broken.json"):
            Engine.from_spec(path)

    def test_from_spec_non_utf8_names_file(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(SpecError, match="binary.json"):
            Engine.from_spec(path)

    def test_unknown_detector_fails_at_construction(self):
        spec = SystemSpec(detector=ComponentRef("resnet-900"))
        with pytest.raises(SpecError, match=r"system\.detector.*resnet-900"):
            Engine(spec)

    def test_unknown_source_fails_with_field_name(self):
        engine = Engine(SYSTEM)
        with pytest.raises(SpecError, match=r"scenario\.source.*webcam"):
            engine.run(scenario(source=ComponentRef("webcam")))

    def test_bad_source_params_name_the_source(self):
        engine = Engine(SYSTEM)
        bad = scenario(source=ComponentRef("pedestrian", {"wlakers": 3}))
        with pytest.raises(SpecError, match="pedestrian"):
            engine.run(bad)

    # A bad param is a SpecError naming it when the request builds the
    # component, before any frame runs: never a bare error mid-run, and
    # never a silent reinterpretation (32.9 as 32, "ab" as two classes).
    @pytest.mark.parametrize(
        "name, params, field",
        [
            ("ground-truth", {"labl": "x"}, "labl"),
            ("ground-truth", {"score": "x"}, "score"),
            ("ground-truth", {"score": True}, "score"),
            ("ground-truth", {"label": 5}, "label"),
            ("grid", {"score_threshold": "x"}, "score_threshold"),
            ("grid", {"nms_iou": True}, "nms_iou"),
            ("grid", {"classes": "ab"}, "classes"),
            ("grid", {"classes": []}, "classes"),
            ("grid", {"seed": 1.5}, "seed"),
        ],
    )
    def test_bad_detector_params_raise_spec_error(self, name, params, field):
        engine = Engine(SystemSpec(detector=ComponentRef(name, params)))
        with pytest.raises(SpecError, match=rf"system\.detector '{name}'.*{field}"):
            engine.run(scenario())

    @pytest.mark.parametrize(
        "name, params, field",
        [
            ("mean-luma", {"gamma": 2.0}, "gamma"),
            ("tiny-cnn", {"width": 0}, "width"),
            ("tiny-cnn", {"width": True}, "width"),
            ("tiny-cnn", {"input_size": 32.9}, "input_size"),
            ("tiny-cnn", {"input_size": "32"}, "input_size"),
            ("tiny-cnn", {"seed": 1.5}, "seed"),
            ("tiny-cnn", {"seed": -1}, "seed"),
            ("tiny-cnn", {"classes": "ab"}, "classes"),
            ("tiny-cnn", {"classes": ["a", 2]}, "classes"),
        ],
    )
    def test_bad_classifier_params_raise_spec_error(self, name, params, field):
        engine = Engine(
            SystemSpec(detector=SYSTEM.detector, classifier=ComponentRef(name, params))
        )
        with pytest.raises(SpecError, match=rf"system\.classifier '{name}'.*{field}"):
            engine.run(scenario())


class TestServing:
    def test_run_matches_hand_wired_runner(self):
        clip = pedestrian_clip(n_frames=6, resolution=(128, 96), seed=4)
        detect, on_frame = ground_truth_detector(clip, label="person")
        pipeline = HiRISEPipeline(
            detector=detect,
            config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05, max_rois=8),
        )
        manual = StreamRunner(pipeline).run(clip.frames, on_frame=on_frame)

        result = Engine(SYSTEM).run(scenario())
        assert result.outcome.frames == manual.frames

    def test_run_accepts_request_dicts(self):
        engine = Engine(SYSTEM)
        from_spec = engine.run(scenario())
        from_dict = engine.run(json.loads(scenario().to_json()))
        assert from_dict.outcome.frames == from_spec.outcome.frames

    def test_repeated_runs_identical(self):
        engine = Engine(SYSTEM)
        a = engine.run(scenario(policy=ComponentRef("temporal-reuse")))
        b = engine.run(scenario(policy=ComponentRef("temporal-reuse")))
        assert a.outcome.frames == b.outcome.frames

    def test_frame_seeds_drive_temporal_noise(self):
        from repro.sensor import NoiseModel

        noisy = SystemSpec(
            config=SYSTEM.config, detector=SYSTEM.detector, noise=NoiseModel()
        )
        engine = Engine(noisy)
        default = engine.run(scenario(keep_outcomes=True))
        seeded = engine.run(
            scenario(keep_outcomes=True, frame_seeds=(9, 8, 7, 6, 5, 4))
        )
        repeat = engine.run(
            scenario(keep_outcomes=True, frame_seeds=(9, 8, 7, 6, 5, 4))
        )
        images = lambda r: [o.stage1_image for o in r.outcome.outcomes]
        # different seeds, different exposures; same seeds, identical ones
        assert not all(
            np.array_equal(a, b) for a, b in zip(images(default), images(seeded))
        )
        assert all(
            np.array_equal(a, b) for a, b in zip(images(seeded), images(repeat))
        )

    def test_conventional_system(self):
        engine = Engine(
            SystemSpec(
                system="conventional",
                detector=ComponentRef("ground-truth", {"label": "person"}),
            )
        )
        outcome = engine.run(scenario()).outcome
        assert outcome.system == "conventional"
        assert outcome.n_frames == 6

    def test_classifier_slot_runs(self):
        engine = Engine(
            SystemSpec(
                config=SYSTEM.config,
                detector=SYSTEM.detector,
                classifier=ComponentRef("mean-luma"),
            )
        )
        result = engine.run(scenario(keep_outcomes=True))
        predictions = [
            p for o in result.outcome.outcomes for p in o.predictions
        ]
        assert predictions
        assert all(0.0 <= p <= 1.0 for p in predictions)

    def test_keep_outcomes_round_trip(self):
        result = Engine(SYSTEM).run(scenario(keep_outcomes=True))
        assert len(result.outcome.outcomes) == 6

    def test_custom_registered_detector(self):
        @register_detector("test-null")
        def _null(clip, **params):
            return (lambda frame: []), None

        try:
            engine = Engine(SystemSpec(detector=ComponentRef("test-null")))
            outcome = engine.run(scenario()).outcome
            assert all(f.n_rois == 0 for f in outcome.frames)
        finally:
            del DETECTORS["test-null"]

    def test_label_and_report(self):
        result = Engine(SYSTEM).run(scenario(name="smoke"))
        assert result.label == "smoke"
        assert "smoke" in result.report()
        unnamed = Engine(SYSTEM).run(scenario())
        assert unnamed.label == "pedestrian/none"


class TestBatch:
    def requests(self):
        return [
            scenario(name="a/frame"),
            scenario(name="a/batch", window=3),
            scenario(name="a/reuse", policy=ComponentRef("temporal-reuse")),
            scenario(name="b/other-seed", seed=9),
        ]

    def test_batch_bit_identical_to_sequential(self):
        engine = Engine(SYSTEM)
        requests = self.requests()
        sequential = [engine.run(r) for r in requests]
        batch = engine.run_batch(requests, workers=4)
        assert len(batch) == len(sequential)
        for seq, par in zip(sequential, batch):
            assert par.scenario == seq.scenario
            assert par.outcome.frames == seq.outcome.frames

    def test_batch_preserves_request_order(self):
        engine = Engine(SYSTEM)
        requests = self.requests()
        batch = engine.run_batch(requests, workers=3)
        assert [r.scenario.name for r in batch] == [r.name for r in requests]

    def test_batch_aggregates_sum(self):
        engine = Engine(SYSTEM)
        batch = engine.run_batch(self.requests(), workers=2)
        outcomes = batch.outcomes
        assert batch.total_bytes == sum(o.total_bytes for o in outcomes)
        assert batch.total_frames == sum(o.n_frames for o in outcomes)
        assert batch.total_energy_j == pytest.approx(
            sum(o.total_energy_j for o in outcomes)
        )
        assert batch.reused_frames == sum(o.reused_frames for o in outcomes)
        assert batch.peak_image_memory_bytes == max(
            o.peak_image_memory_bytes for o in outcomes
        )
        assert batch.wall_time_s > 0
        assert batch.frames_per_second > 0
        assert "scenario(s)" in batch.report()

    def test_batch_default_workload_from_spec(self):
        engine = Engine.from_spec(
            ServiceSpec(system=SYSTEM, scenarios=(scenario(), scenario(seed=5)))
        )
        batch = engine.run_batch()
        assert len(batch) == 2

    def test_batch_keep_outcomes_images_identical(self):
        engine = Engine(SYSTEM)
        requests = [scenario(keep_outcomes=True), scenario(keep_outcomes=True, seed=9)]
        sequential = [engine.run(r) for r in requests]
        batch = engine.run_batch(requests, workers=2)
        for seq, par in zip(sequential, batch):
            for a, b in zip(seq.outcome.outcomes, par.outcome.outcomes):
                assert np.array_equal(a.stage1_image, b.stage1_image)
                for ca, cb in zip(a.roi_crops, b.roi_crops):
                    assert np.array_equal(ca, cb)

    def test_batch_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            Engine(SYSTEM).run_batch([scenario()], workers=0)

    def test_batch_propagates_request_errors(self):
        engine = Engine(SYSTEM)
        requests = [scenario(), scenario(source=ComponentRef("webcam"))]
        with pytest.raises(SpecError, match="webcam"):
            engine.run_batch(requests, workers=2)

    def test_batch_accepts_unserializable_source_params(self):
        # numpy scalars defeat the clip cache's JSON key; the request must
        # still run (uncached) and match the sequential path
        engine = Engine(SYSTEM)
        request = scenario(
            source=ComponentRef(
                "pedestrian", {"resolution": [128, 96], "n_walkers": np.int64(2)}
            )
        )
        sequential = engine.run(request)
        batch = engine.run_batch([request, request], workers=2)
        for result in batch:
            assert result.outcome.frames == sequential.outcome.frames

    def test_batch_source_cache_shares_identical_sources_only(self):
        engine = Engine(SYSTEM)
        # same clip spec, different policies -> shareable; different seed -> not
        requests = [
            scenario(),
            scenario(policy=ComponentRef("temporal-reuse")),
            scenario(seed=9),
        ]
        batch = engine.run_batch(requests, workers=1)
        same_a, _, different = batch
        assert same_a.outcome.frames != different.outcome.frames


class TestBatchedStage2Serving:
    SPEC = SystemSpec(
        config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05, max_rois=8),
        detector=ComponentRef("ground-truth", {"label": "person"}),
        classifier=ComponentRef("tiny-cnn", {"input_size": 16}),
    )

    @staticmethod
    def _predictions(result):
        return [
            p for o in result.outcome.outcomes for p in o.predictions
        ]

    def test_served_predictions_match_per_crop_reference(self):
        from repro.ml import CropClassifier, tiny_cnn

        engine = Engine(self.SPEC)
        result = engine.run(scenario(keep_outcomes=True))
        reference = CropClassifier(
            tiny_cnn(16, 2, seed=0), (16, 16), ("object", "background")
        )
        served = self._predictions(result)
        assert served
        for outcome in result.outcome.outcomes:
            for crop, prediction in zip(outcome.roi_crops, outcome.predictions):
                expected = reference(crop)
                assert prediction.label == expected.label
                assert np.array_equal(prediction.logits, expected.logits)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_executors_bit_identical_predictions(self, executor):
        from repro.service import EngineCache

        requests = [scenario(keep_outcomes=True, n_frames=2),
                    scenario(keep_outcomes=True, n_frames=2, seed=9)]
        reference = Engine(self.SPEC, cache=EngineCache.disabled())
        sequential = [reference.run(r) for r in requests]

        engine = Engine(self.SPEC, cache=EngineCache.disabled())
        batch = engine.run_batch(requests, workers=2, executor=executor)
        for seq, got in zip(sequential, batch):
            a, b = self._predictions(seq), self._predictions(got)
            assert len(a) == len(b) and a
            for x, y in zip(a, b):
                assert x.label == y.label
                assert np.array_equal(x.logits, y.logits)

    def test_stream_reuse_path_matches_per_crop_reference(self):
        from repro.ml import CropClassifier, tiny_cnn

        engine = Engine(self.SPEC)
        result = engine.run(
            scenario(
                keep_outcomes=True,
                policy=ComponentRef("temporal-reuse", {"max_reuse": 3}),
            )
        )
        assert result.outcome.reused_frames > 0
        reference = CropClassifier(
            tiny_cnn(16, 2, seed=0), (16, 16), ("object", "background")
        )
        for outcome in result.outcome.outcomes:
            for crop, prediction in zip(outcome.roi_crops, outcome.predictions):
                expected = reference(crop)
                assert prediction.label == expected.label
                assert np.array_equal(prediction.logits, expected.logits)

    def test_float32_mode_argmax_parity(self):
        f64 = Engine(self.SPEC)
        f32 = Engine(
            SystemSpec(
                config=self.SPEC.config,
                detector=self.SPEC.detector,
                classifier=self.SPEC.classifier,
                compute_dtype="float32",
            )
        )
        request = scenario(keep_outcomes=True)
        a = self._predictions(f64.run(request))
        b = self._predictions(f32.run(request))
        assert a and len(a) == len(b)
        from repro.ml.classifier.crop import FLOAT32_LOGIT_ATOL, FLOAT32_LOGIT_RTOL

        for x, y in zip(a, b):
            assert y.logits.dtype == np.float32
            assert x.index == y.index
            assert np.allclose(
                y.logits, x.logits,
                atol=FLOAT32_LOGIT_ATOL, rtol=FLOAT32_LOGIT_RTOL,
            )


class TestEngineProfiling:
    PHASES = ("expose", "stage1.read", "detect", "condition",
              "stage2.read", "stage2.classify")

    def test_run_attaches_profile(self):
        engine = Engine(SYSTEM, profile=True)
        result = engine.run(scenario())
        assert result.profile is not None
        for path in self.PHASES:
            assert result.profile.get(path) is not None, path
        assert "phase breakdown" in result.report()

    def test_profile_off_by_default(self):
        result = Engine(SYSTEM).run(scenario())
        assert result.profile is None

    def test_clip_build_records_source_phase(self):
        result = Engine(SYSTEM, profile=True).run(scenario())
        source = result.profile.get("source")
        assert source is not None and source.calls == 1
        assert result.profile.phases[0].path == "source"  # renders first
        assert result.profile.total_s >= source.total_s

    def test_clip_tier_hit_records_no_source_phase(self):
        engine = Engine(SYSTEM, profile=True)
        engine.run(scenario())
        # Same (source, n_frames, seed): the clip tier answers, nothing renders.
        result = engine.run(scenario(policy=ComponentRef("temporal-reuse")))
        assert engine.cache.stats().clips.hits == 1
        assert result.profile.get("source") is None
        assert result.profile.get("expose") is not None

    def test_passed_clip_records_no_source_phase(self):
        clip = pedestrian_clip(n_frames=6, resolution=(128, 96), seed=4)
        result = Engine(SYSTEM, profile=True).run(scenario(), clip=clip)
        assert result.profile.get("source") is None
        assert result.profile.get("expose") is not None

    def test_profiled_requests_bypass_result_cache(self):
        engine = Engine(SYSTEM, profile=True)
        engine.run(scenario())
        stats = engine.cache.stats()
        assert stats.results.lookups == 0
        # And nothing was memoized: a second engine with profiling off
        # still misses.
        engine.profile = False
        engine.run(scenario())
        assert engine.cache.stats().results.misses == 1

    def test_batch_merges_profiles(self):
        engine = Engine(SYSTEM, profile=True)
        batch = engine.run_batch(
            [scenario(n_frames=2), scenario(n_frames=2, seed=9)], workers=2
        )
        assert batch.profile is not None
        assert batch.profile.get("detect").calls == 4  # 2 requests x 2 frames
        assert "phase breakdown" in batch.report()

    def test_process_executor_returns_profiles(self):
        engine = Engine(SYSTEM, profile=True)
        batch = engine.run_batch(
            [scenario(n_frames=2), scenario(n_frames=2, seed=9)],
            workers=2, executor="process",
        )
        assert all(r.profile is not None for r in batch)
        assert batch.profile.get("stage1.read") is not None
        # Same contract as serial/thread: profiled requests leave the
        # result tier untouched — no phantom lookups in the batch delta.
        assert batch.cache.results.lookups == 0

    def test_batched_stage1_mode_profiles_chunked_phases(self):
        engine = Engine(SYSTEM, profile=True)
        result = engine.run(scenario(n_frames=4, window=2))
        profile = result.profile
        assert profile.get("expose").calls == 2       # one pass per flush
        assert profile.get("stage1.read").calls == 4  # one per pooled frame
        assert profile.get("detect").calls == 4       # still per frame

    def test_only_frames_running_stage1_are_pooled(self):
        engine = Engine(SYSTEM, profile=True)
        for policy in ("temporal-reuse", "keyframe"):
            result = engine.run(
                scenario(n_frames=12, window=4, policy=ComponentRef(policy))
            )
            outcome = result.outcome
            assert 0 < outcome.stage1_frames < outcome.n_frames, policy
            assert result.profile.get("stage1.read").calls == outcome.stage1_frames
            assert result.profile.get("expose").calls == 3
