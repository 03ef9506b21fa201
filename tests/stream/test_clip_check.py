"""A clip checks its frames once: when it is built or enters a process.

Building a :class:`~repro.sensor.CheckedFrames` is the range check, and
it freezes every frame read-only; the stream runner binds such frames
without checking them again.  So a clip served many times, pickled,
loaded from the disk tier or attached from shared memory costs one
check per frame, and a bad clip fails when it is built.
"""

import pickle

import numpy as np
import pytest

from repro.core import ConventionalPipeline, HiRISEConfig
from repro.sensor import CheckedFrames, pixel_array
from repro.service import (
    SOURCES,
    ComponentRef,
    Engine,
    EngineCache,
    ScenarioSpec,
    SpecError,
    SystemSpec,
)
from repro.store import ArtifactStore, attach_clip, share_clip
from repro.stream import StreamRunner, pedestrian_clip
from repro.stream.source import SyntheticClip

N_FRAMES = 4


@pytest.fixture
def checked(monkeypatch):
    """Every frame ``_check_scene`` sees, in call order."""
    seen = []
    check = pixel_array._check_scene

    def spy(image):
        seen.append(image)
        return check(image)

    monkeypatch.setattr(pixel_array, "_check_scene", spy)
    return seen


def clip() -> SyntheticClip:
    return pedestrian_clip(n_frames=N_FRAMES, resolution=(64, 48), seed=4)


def bad_frame(kind: str, shape=(8, 8, 3)) -> np.ndarray:
    frame = np.full(shape, 0.5)
    if kind == "nan":
        frame[3, 4, 1] = np.nan
    elif kind == "above one":
        frame[3, 4, 1] = 1.5
    else:
        frame = frame.astype(complex)
    return frame


BAD_KINDS = ["nan", "above one", "complex"]


def assert_checked_once(copy: SyntheticClip, seen: list) -> None:
    assert isinstance(copy.frames, CheckedFrames)
    assert [id(frame) for frame in seen] == [id(frame) for frame in copy.frames]
    assert not any(frame.flags.writeable for frame in copy.frames)


class TestServedClip:
    def test_one_clip_served_three_times_is_checked_once(self, checked):
        # Three systems on one cache: every request misses the result
        # tier and hits the clip tier after the first render.
        cache = EngineCache()
        systems = [
            SystemSpec(
                config=HiRISEConfig(pool_k=k), detector=ComponentRef("ground-truth")
            )
            for k in (2, 4)
        ] + [SystemSpec(system="conventional")]
        request = ScenarioSpec(
            source=ComponentRef("pedestrian", {"resolution": [64, 48]}),
            n_frames=N_FRAMES,
            seed=4,
        )
        outcomes = [Engine(system, cache=cache).run(request).outcome for system in systems]
        assert [o.n_frames for o in outcomes] == [N_FRAMES] * 3
        stats = cache.stats()
        assert (stats.results.misses, stats.clips.misses, stats.clips.hits) == (3, 1, 2)
        assert len(checked) == N_FRAMES
        assert len({id(frame) for frame in checked}) == N_FRAMES

    def test_other_iterables_are_checked_on_every_run(self, checked):
        # Only the clip's own sequence is trusted: a list or a generator
        # of the same arrays is checked frame by frame, on every run.
        source = clip()
        runner = StreamRunner(ConventionalPipeline(), window=3)
        checked.clear()
        runner.run(source.frames)
        assert checked == []
        runner.run(list(source.frames))
        runner.run(frame for frame in source.frames)
        assert len(checked) == 2 * N_FRAMES


class TestEnteringAProcess:
    def test_pickle_round_trip_checks_once(self, checked):
        original = clip()
        checked.clear()
        assert_checked_once(pickle.loads(pickle.dumps(original)), checked)

    def test_ragged_pickle_round_trip_checks_once(self, checked):
        original = SyntheticClip(
            [np.zeros((4, 4, 3)), np.zeros((2, 2, 3), dtype=np.float32)],
            [[], []],
            (4, 4),
        )
        checked.clear()
        assert_checked_once(pickle.loads(pickle.dumps(original)), checked)

    def test_disk_tier_round_trip_checks_once(self, checked, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.put("clip", "k", clip()) > 0
        checked.clear()
        assert_checked_once(store.load("clip", "k"), checked)

    def test_shared_memory_attach_checks_once(self, checked):
        lease = share_clip(clip())
        if lease is None:
            pytest.skip("no shared memory on this platform")
        try:
            checked.clear()
            copy = attach_clip(lease.handle)
            assert_checked_once(copy, checked)
            del copy
        finally:
            lease.destroy()


class TestCheckedFrames:
    def test_frames_are_frozen_in_place(self):
        frames = [np.zeros((4, 4, 3)), np.ones((4, 4))]
        checked = CheckedFrames(frames)
        assert all(a is b for a, b in zip(checked, frames))
        for frame in [*checked, *clip().frames]:
            with pytest.raises(ValueError, match="read-only"):
                frame[0, 0] = 0.25

    @pytest.mark.parametrize("kind", BAD_KINDS)
    def test_a_bad_frame_cannot_be_checked(self, kind):
        good, bad = np.zeros((8, 8, 3)), bad_frame(kind)
        with pytest.raises(ValueError, match="must lie in|dtype must be"):
            CheckedFrames([good, bad])
        with pytest.raises(ValueError, match="must lie in|dtype must be"):
            SyntheticClip([good, bad], [[], []], (8, 8))
        # A failed check freezes nothing.
        assert good.flags.writeable and bad.flags.writeable

    def test_a_non_image_cannot_be_checked(self):
        with pytest.raises(ValueError, match=r"image must be \(H, W, 3\) or \(H, W\)"):
            CheckedFrames([np.zeros(5)])

    def test_a_slice_is_checked_without_a_second_check(self, checked):
        frames = clip().frames
        checked.clear()
        window = frames[1:3]
        assert isinstance(window, CheckedFrames)
        assert all(a is b for a, b in zip(window, frames[1:3]))
        assert not isinstance(frames[0], CheckedFrames)
        assert checked == []


class TestBadRegisteredSource:
    @pytest.fixture
    def bad_source(self):
        name = "bad-frame-source"

        @SOURCES.register(name)
        def build(n_frames, seed, kind):
            frames = [np.zeros((48, 64, 3)), bad_frame(kind, (48, 64, 3))]
            return SyntheticClip(frames, [[], []], (64, 48))

        yield name
        del SOURCES[name]

    @pytest.mark.parametrize("kind", BAD_KINDS)
    def test_engine_reports_a_spec_error_naming_the_source(self, bad_source, kind):
        name = bad_source
        rows = []
        engine = Engine(SystemSpec(system="conventional"))
        request = ScenarioSpec(source=ComponentRef(name, {"kind": kind}), n_frames=2)
        with pytest.raises(SpecError, match=f"scenario.source '{name}': "):
            engine.run(request, on_stats=rows.append)
        assert rows == []
