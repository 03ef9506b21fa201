"""Tests for clip picklability: the process executor's transport contract."""

import pickle

import numpy as np
import pytest

from repro.stream import pedestrian_clip
from repro.stream.source import SyntheticClip, drone_traffic_clip


class TestSyntheticClipPickle:
    @pytest.mark.parametrize("make", [pedestrian_clip, drone_traffic_clip])
    def test_round_trip_bit_identical(self, make):
        clip = make(n_frames=3, resolution=(64, 48), seed=4)
        copy = pickle.loads(pickle.dumps(clip))
        assert len(copy) == len(clip)
        assert copy.resolution == clip.resolution
        assert copy.ground_truth == clip.ground_truth
        for a, b in zip(clip.frames, copy.frames):
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype
            assert a.shape == b.shape

    def test_uniform_clip_pickles_as_one_block(self):
        clip = pedestrian_clip(n_frames=4, resolution=(64, 48), seed=4)
        state = clip.__getstate__()
        assert "frame_stack" in state
        assert state["frame_stack"].shape == (4, 48, 64, 3)
        # one contiguous buffer, not N separately-pickled arrays
        payload = pickle.dumps(clip)
        assert len(payload) < clip.nbytes + 4096

    def test_getstate_ragged_falls_back_to_frame_list(self):
        clip = SyntheticClip(
            frames=[np.zeros((4, 4, 3)), np.zeros((2, 2, 3))],
            ground_truth=[[], []],
            resolution=(4, 4),
        )
        state = clip.__getstate__()
        assert "frame_stack" not in state
        assert [f.shape for f in state["frames"]] == [(4, 4, 3), (2, 2, 3)]

    def test_getstate_mixed_dtype_falls_back_to_frame_list(self):
        # Same shape, different dtype: np.stack would silently upcast, so
        # the one-block fast path must refuse.
        clip = SyntheticClip(
            frames=[
                np.zeros((4, 4, 3), dtype=np.float64),
                np.zeros((4, 4, 3), dtype=np.float32),
            ],
            ground_truth=[[], []],
            resolution=(4, 4),
        )
        state = clip.__getstate__()
        assert "frame_stack" not in state
        copy = pickle.loads(pickle.dumps(clip))
        assert [f.dtype for f in copy.frames] == [np.float64, np.float32]

    def test_getstate_empty_falls_back_to_frame_list(self):
        clip = SyntheticClip(frames=[], ground_truth=[], resolution=(8, 8))
        state = clip.__getstate__()
        assert "frame_stack" not in state
        assert state["frames"] == []

    def test_ragged_clip_still_pickles(self):
        clip = SyntheticClip(
            frames=[np.zeros((4, 4, 3)), np.zeros((2, 2, 3))],
            ground_truth=[[], []],
            resolution=(4, 4),
        )
        copy = pickle.loads(pickle.dumps(clip))
        assert [f.shape for f in copy.frames] == [(4, 4, 3), (2, 2, 3)]

    def test_empty_clip_pickles(self):
        clip = SyntheticClip(frames=[], ground_truth=[], resolution=(8, 8))
        copy = pickle.loads(pickle.dumps(clip))
        assert list(copy.frames) == []
        assert copy.resolution == (8, 8)

    def test_nbytes_counts_frame_buffers(self):
        clip = pedestrian_clip(n_frames=2, resolution=(64, 48), seed=4)
        assert clip.nbytes == 2 * 48 * 64 * 3 * 8  # float64 RGB

    def test_nbytes_ragged_layout(self):
        clip = SyntheticClip(
            frames=[np.zeros((4, 4, 3)), np.zeros((2, 2, 3))],
            ground_truth=[[], []],
            resolution=(4, 4),
        )
        assert clip.nbytes == (4 * 4 * 3 + 2 * 2 * 3) * 8
        empty = SyntheticClip(frames=[], ground_truth=[], resolution=(8, 8))
        assert empty.nbytes == 0

    def test_nbytes_stack_view_layout(self):
        # Restored frames are views into one (N, H, W, C) block; nbytes
        # must count the same bytes as the list-of-arrays layout.
        clip = pedestrian_clip(n_frames=2, resolution=(64, 48), seed=4)
        copy = pickle.loads(pickle.dumps(clip))
        assert copy.frames[0].base is not None  # stack views, not copies
        assert copy.nbytes == clip.nbytes
