"""The animated sources: parameter checks and the frame-batched render."""

import math
import re

import numpy as np
import pytest

from repro.service import SOURCES as SOURCE_REGISTRY
from repro.service import ComponentRef, Engine, ScenarioSpec, SpecError, SystemSpec
from repro.stream.source import (
    drone_traffic_clip,
    pedestrian_clip,
    require_int,
    require_real,
)

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
    # One spelling per value: a bool is not a number, a string is not one.
    ("speed", True, "speed must be a real number, got True"),
    ("speed", "2", "speed must be a real number, got '2'"),
    ("jitter", False, "jitter must be a real number, got False"),
]

#: Counts follow the codec's int rule: never a bool, never a float.
BAD_COUNTS = [True, False, 2.0, "3", None]

#: ``resolution`` is a pair of positive ints and nothing else.
BAD_RESOLUTIONS = [
    [64.5, 48],
    [64.0, 48.0],
    [True, True],
    [64, 0],
    [64, -48],
    [64, 48, 3],
    64,
    "ab",
    None,
]
RESOLUTION_MESSAGE = r"resolution must be a \(width, height\) pair of positive ints"


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
    @pytest.mark.parametrize("value", BAD_COUNTS)
    def test_a_count_must_be_an_int(self, name, make, count, value):
        with pytest.raises(ValueError, match=f"{count} must be an int, got {value!r}"):
            make(n_frames=2, resolution=(32, 24), seed=1, **{count: value})

    @pytest.mark.parametrize("source", ["pedestrian", "drone", "crowdhuman-scenes"])
    @pytest.mark.parametrize("value", BAD_RESOLUTIONS)
    def test_a_resolution_must_be_a_pair_of_positive_ints(self, source, value):
        with pytest.raises(ValueError, match=RESOLUTION_MESSAGE):
            SOURCE_REGISTRY.get(source)(2, 1, resolution=value)

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
    @pytest.mark.parametrize("value", [True, 2.0])
    def test_engine_reports_a_count_that_is_not_an_int(self, name, make, count, value):
        engine = Engine(SystemSpec(detector=ComponentRef("ground-truth")))
        request = ScenarioSpec(
            source=ComponentRef(name, {"resolution": [32, 24], count: value}),
            n_frames=2,
            seed=1,
        )
        message = f"scenario.source '{name}': {count} must be an int, got {value!r}"
        with pytest.raises(SpecError, match=message):
            engine.run(request)

    @pytest.mark.parametrize("source", ["pedestrian", "drone", "visdrone-scenes"])
    @pytest.mark.parametrize("value", [[64.5, 48], [True, True], 64])
    def test_engine_reports_a_bad_resolution(self, source, value):
        engine = Engine(SystemSpec(detector=ComponentRef("ground-truth")))
        request = ScenarioSpec(
            source=ComponentRef(source, {"resolution": value}), n_frames=2, seed=1
        )
        with pytest.raises(SpecError, match=f"scenario.source '{source}': {RESOLUTION_MESSAGE}"):
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


class TestParamRules:
    """The int and real rules every built-in factory checks its params
    with, on spellings the source tests above do not reach: NumPy scalars
    from a Python caller, a JSON null, a complex number."""

    @pytest.mark.parametrize(
        "check, value",
        [
            (require_int, np.int64(7)),
            (require_int, np.uint8(0)),
            (require_real, np.float32(0.5)),
            (require_real, np.int16(3)),
        ],
        ids=["int64-int", "uint8-int", "float32-real", "int16-real"],
    )
    def test_numpy_scalars_count_as_their_kind(self, check, value):
        check("param", value)

    @pytest.mark.parametrize(
        "check, value, kind",
        [
            (require_int, np.float64(7.0), "an int"),
            (require_int, np.bool_(True), "an int"),
            (require_real, np.bool_(False), "a real number"),
            (require_real, None, "a real number"),
            (require_real, 1j, "a real number"),
        ],
        ids=["float64-int", "numpy-bool-int", "numpy-bool-real", "none-real", "complex-real"],
    )
    def test_other_spellings_are_refused_by_name(self, check, value, kind):
        with pytest.raises(ValueError, match=re.escape(f"param must be {kind}, got {value!r}")):
            check("param", value)


class TestSceneSweepLabel:
    """A scene sweep's ``label`` names one of its profile's eval classes."""

    LABEL_MESSAGE = r"label must be one of \['person', 'head'\] or omitted, got "

    @pytest.mark.parametrize("label", [5, "", "nonexistent", "cyclist"])
    def test_rejects_a_label_outside_the_eval_classes(self, label):
        make = SOURCE_REGISTRY.get("crowdhuman-scenes")
        with pytest.raises(ValueError, match=self.LABEL_MESSAGE + re.escape(repr(label))):
            make(2, 7, resolution=(96, 64), label=label)

    @pytest.mark.parametrize("label", [5, ""])
    def test_engine_reports_a_bad_label(self, label):
        engine = Engine(SystemSpec(detector=ComponentRef("ground-truth")))
        request = ScenarioSpec(
            source=ComponentRef(
                "crowdhuman-scenes", {"resolution": [96, 64], "label": label}
            ),
            n_frames=2,
            seed=7,
        )
        message = "scenario.source 'crowdhuman-scenes': " + self.LABEL_MESSAGE
        with pytest.raises(SpecError, match=message):
            engine.run(request)

    def test_a_label_keeps_only_its_boxes(self):
        make = SOURCE_REGISTRY.get("crowdhuman-scenes")
        every = make(2, 7, resolution=(96, 64))
        people = make(2, 7, resolution=(96, 64), label="person")
        heads = make(2, 7, resolution=(96, 64), label="head")
        for all_boxes, person, head in zip(
            every.ground_truth, people.ground_truth, heads.ground_truth
        ):
            assert person and head
            assert sorted(person + head) == sorted(all_boxes)


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
        assert list(clip.frames) == [] and clip.ground_truth == []
