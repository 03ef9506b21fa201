"""The animated sources: parameter checks and the frame-batched render."""

import math

import numpy as np
import pytest

from repro.service import ComponentRef, Engine, ScenarioSpec, SpecError, SystemSpec
from repro.stream.source import drone_traffic_clip, pedestrian_clip

SOURCES = [
    pytest.param("pedestrian", pedestrian_clip, "n_walkers", id="pedestrian"),
    pytest.param("drone", drone_traffic_clip, "n_vehicles", id="drone"),
]

BAD_MOTION = [
    ("speed", math.nan, "speed must be finite"),
    ("speed", math.inf, "speed must be finite"),
    ("speed", -math.inf, "speed must be finite"),
    ("jitter", math.nan, "jitter must be finite"),
    ("jitter", math.inf, "jitter must be finite"),
    ("jitter", -0.5, "jitter must be >= 0"),
]


class TestSourceParameters:
    @pytest.mark.parametrize("name, make, count", SOURCES)
    @pytest.mark.parametrize("param, value, message", BAD_MOTION)
    def test_bad_motion_is_rejected_by_name(self, name, make, count, param, value, message):
        with pytest.raises(ValueError, match=message):
            make(n_frames=2, resolution=(32, 24), seed=1, **{param: value})

    @pytest.mark.parametrize("name, make, count", SOURCES)
    def test_negative_count_is_rejected_by_name(self, name, make, count):
        with pytest.raises(ValueError, match=f"{count} must be >= 0"):
            make(n_frames=2, resolution=(32, 24), seed=1, **{count: -2})

    @pytest.mark.parametrize("name, make, count", SOURCES)
    def test_no_actors_renders_the_backdrop_only(self, name, make, count):
        clip = make(n_frames=3, resolution=(32, 24), seed=1, **{count: 0})
        assert clip.ground_truth == [[], [], []]
        assert all(np.array_equal(frame, clip.frames[0]) for frame in clip.frames)

    @pytest.mark.parametrize("name, make, count", SOURCES)
    def test_zero_and_positive_jitter_are_accepted(self, name, make, count):
        still = make(n_frames=4, resolution=(48, 32), seed=2, jitter=0.0)
        shaky = make(n_frames=4, resolution=(48, 32), seed=2, jitter=0.7)
        assert still.ground_truth[0] != shaky.ground_truth[0]
        for frame in shaky.frames:
            assert 0.0 <= frame.min() and frame.max() <= 1.0

    @pytest.mark.parametrize("name, make, count", SOURCES)
    @pytest.mark.parametrize("param, value, message", BAD_MOTION)
    def test_engine_reports_a_spec_error(self, name, make, count, param, value, message):
        engine = Engine(SystemSpec(detector=ComponentRef("ground-truth")))
        request = ScenarioSpec(
            source=ComponentRef(name, {"resolution": [32, 24], param: value}),
            n_frames=2,
            seed=1,
        )
        with pytest.raises(SpecError, match=f"scenario.source '{name}': {message}"):
            engine.run(request)

    @pytest.mark.parametrize("name, make, count", SOURCES)
    def test_engine_reports_a_negative_count(self, name, make, count):
        engine = Engine(SystemSpec(detector=ComponentRef("ground-truth")))
        request = ScenarioSpec(
            source=ComponentRef(name, {"resolution": [32, 24], count: -1}),
            n_frames=2,
            seed=1,
        )
        with pytest.raises(SpecError, match=f"scenario.source '{name}': {count} must be >= 0"):
            engine.run(request)


class TestFrameBatchedRender:
    @pytest.mark.parametrize("name, make, count", SOURCES)
    def test_frames_do_not_depend_on_clip_length(self, name, make, count):
        # Frame t is drawn with the operations it would get alone, so a
        # longer clip starts with the shorter clip's frames, bit for bit.
        short = make(n_frames=3, resolution=(97, 53), seed=5, jitter=0.7)
        long = make(n_frames=9, resolution=(97, 53), seed=5, jitter=0.7)
        for a, b in zip(short.frames, long.frames):
            assert np.array_equal(a, b)
        assert long.ground_truth[:3] == short.ground_truth

    @pytest.mark.parametrize("name, make, count", SOURCES)
    def test_frames_are_separate_arrays_and_boxes_python_floats(self, name, make, count):
        clip = make(n_frames=4, resolution=(64, 48), seed=3, **{count: 3})
        assert len({id(frame) for frame in clip.frames}) == 4
        for frame in clip.frames:
            assert frame.shape == (48, 64, 3) and frame.dtype == np.float64
            assert frame.base is None and frame.flags.c_contiguous
        for boxes in clip.ground_truth:
            assert len(boxes) == 3
            for box in boxes:
                assert type(box) is tuple and all(type(v) is float for v in box)

    def test_empty_clip(self):
        clip = pedestrian_clip(n_frames=0, resolution=(32, 24), seed=1)
        assert clip.frames == [] and clip.ground_truth == []
