"""Tests for the shared-memory clip transport: fidelity and lifetime."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.stream import pedestrian_clip
from repro.stream.source import SyntheticClip
from repro.store import (
    SEGMENT_PREFIX,
    ClipSegmentGoneError,
    attach_clip,
    share_clip,
)

DEV_SHM = Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not DEV_SHM.is_dir(), reason="no /dev/shm to observe segment lifetime"
)


def segments() -> list[str]:
    return sorted(p.name for p in DEV_SHM.glob(f"{SEGMENT_PREFIX}*"))


@pytest.fixture(autouse=True)
def no_leaks():
    """Every test must leave /dev/shm exactly as it found it."""
    before = segments()
    yield
    assert segments() == before


def uniform_clip() -> SyntheticClip:
    return pedestrian_clip(n_frames=3, resolution=(64, 48), seed=4)


class TestRoundTrip:
    def test_attached_clip_is_bit_identical(self):
        clip = uniform_clip()
        lease = share_clip(clip)
        assert lease is not None
        try:
            copy = attach_clip(lease.handle)
            assert len(copy) == len(clip)
            assert copy.resolution == clip.resolution
            assert copy.ground_truth == clip.ground_truth
            for a, b in zip(clip.frames, copy.frames):
                assert np.array_equal(a, b)
                assert a.dtype == b.dtype
            del copy
        finally:
            lease.destroy()

    def test_handle_is_tiny_and_picklable(self):
        import pickle

        clip = uniform_clip()
        lease = share_clip(clip)
        try:
            payload = pickle.dumps(lease.handle)
            # The point of the transport: the handle crosses the pipe,
            # the frame block does not.
            assert len(payload) < clip.nbytes / 100
            copy = pickle.loads(payload)
            assert copy.name == lease.handle.name
            assert copy.shape == (3, 48, 64, 3)
        finally:
            lease.destroy()

    def test_attached_frames_are_read_only_views(self):
        lease = share_clip(uniform_clip())
        try:
            copy = attach_clip(lease.handle)
            assert copy.frames[0].base is not None
            with pytest.raises(ValueError, match="read-only"):
                copy.frames[0][0, 0, 0] = 0.5
            del copy
        finally:
            lease.destroy()

    def test_ragged_clip_returns_none(self):
        clip = SyntheticClip(
            frames=[np.zeros((4, 4, 3)), np.zeros((2, 2, 3))],
            ground_truth=[[], []],
            resolution=(4, 4),
        )
        assert share_clip(clip) is None
        # One shape but two dtypes is ragged too: no block without a cast.
        clip = SyntheticClip(
            frames=[np.zeros((4, 4, 3)), np.zeros((4, 4, 3), dtype=np.float32)],
            ground_truth=[[], []],
            resolution=(4, 4),
        )
        assert share_clip(clip) is None

    def test_frames_are_copied_once(self):
        # The frames are stacked straight into the segment: sharing
        # allocates no clip-sized temporary on the heap.
        clip = uniform_clip()
        clip_bytes = sum(frame.nbytes for frame in clip.frames)
        tracemalloc.start()
        try:
            lease = share_clip(clip)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        try:
            assert peak < clip_bytes // 4
            copy = attach_clip(lease.handle)
            for a, b in zip(clip.frames, copy.frames):
                assert np.array_equal(a, b)
            del copy
        finally:
            lease.destroy()

    def test_empty_clip_returns_none(self):
        clip = SyntheticClip(frames=[], ground_truth=[], resolution=(8, 8))
        assert share_clip(clip) is None


class TestLeaseLifetime:
    def test_segment_lives_until_last_release(self):
        lease = share_clip(uniform_clip())
        name = lease.handle.name
        lease.acquire()
        lease.acquire()
        assert name in segments()
        lease.release()
        assert name in segments()  # one reference still out
        lease.release()
        assert name not in segments()

    def test_destroy_is_idempotent_and_wins_over_refs(self):
        lease = share_clip(uniform_clip())
        name = lease.handle.name
        lease.acquire()
        lease.destroy()
        assert name not in segments()
        lease.destroy()  # idempotent
        lease.release()  # harmless after destroy

    def test_attach_after_destroy_raises_oserror(self):
        lease = share_clip(uniform_clip())
        handle = lease.handle
        lease.destroy()
        with pytest.raises(OSError):
            attach_clip(handle)

    def test_attach_after_unlink_raises_typed_error(self):
        # Not a raw FileNotFoundError: callers distinguish "the owner
        # tore the batch down" from ordinary filesystem failures, while
        # the OSError fallback ("render it yourself") keeps working.
        lease = share_clip(uniform_clip())
        handle = lease.handle
        lease.destroy()
        with pytest.raises(ClipSegmentGoneError) as excinfo:
            attach_clip(handle)
        assert isinstance(excinfo.value, OSError)
        assert excinfo.value.name == handle.name
        assert handle.name in str(excinfo.value)

    def test_double_close_is_a_noop(self):
        lease = share_clip(uniform_clip())
        name = lease.handle.name
        assert name in segments()
        lease.close()
        assert name not in segments()
        lease.close()  # second close: no error, no effect
        lease.close()

    def test_close_after_release_is_a_noop(self):
        lease = share_clip(uniform_clip())
        lease.acquire()
        lease.release()  # last reference: segment already gone
        lease.close()

    def test_lease_is_a_context_manager(self):
        with share_clip(uniform_clip()) as lease:
            name = lease.handle.name
            assert name in segments()
        assert name not in segments()

    def test_attached_views_survive_parent_unlink(self):
        # Unlink removes the *name*; the mapping lives until the last
        # view dies — a worker caching the clip is safe.
        clip = uniform_clip()
        lease = share_clip(clip)
        copy = attach_clip(lease.handle)
        lease.destroy()
        assert lease.handle.name not in segments()
        for a, b in zip(clip.frames, copy.frames):
            assert np.array_equal(a, b)
        del copy  # finalizer closes the mapping; autouse fixture checks

    def test_segment_names_carry_the_prefix(self):
        lease = share_clip(uniform_clip())
        try:
            assert lease.handle.name.startswith(SEGMENT_PREFIX)
        finally:
            lease.destroy()


class TestCrashedAttacher:
    def test_no_leak_when_attacher_dies_without_cleanup(self, tmp_path):
        """A worker that crashes mid-use must not pin the segment.

        The child attaches the segment, proves it can read it, then dies
        via ``os._exit`` — no finalizers, no cleanup, the worst case.
        The parent's destroy must still leave /dev/shm empty.
        """
        clip = uniform_clip()
        lease = share_clip(clip)
        handle = lease.handle
        script = tmp_path / "attacher.py"
        script.write_text(
            "import os, sys\n"
            "from repro.store import SharedClipHandle, attach_clip\n"
            f"handle = SharedClipHandle(name={handle.name!r}, "
            f"shape={handle.shape!r}, dtype={handle.dtype!r}, "
            "ground_truth=[], resolution=(64, 48))\n"
            "clip = attach_clip(handle)\n"
            f"assert float(clip.frames[0][0, 0, 0]) == "
            f"{float(clip.frames[0][0, 0, 0])!r}\n"
            "os._exit(17)  # crash: no cleanup, no finalizers\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, str(script)],
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 17, done.stderr
        lease.destroy()
        assert handle.name not in segments()
