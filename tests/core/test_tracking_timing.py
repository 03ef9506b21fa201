"""Tests for the video extension (ROI tracking, keyframe cadence)."""

import numpy as np
import pytest

from repro.core import HiRISEConfig, HiRISEPipeline, ROI, ROITracker, Track
from repro.stream import KeyframeReuse, StreamRunner


class TestTrack:
    def test_anchor_follows_roi(self):
        track = Track(roi=ROI(100, 100, 20, 20), vx=5.0, vy=-3.0, age=1)
        assert (track.anchor_cx, track.anchor_cy) == (110.0, 110.0)
        track.roi = ROI(120, 100, 20, 20)
        track.rebase_anchor()
        assert (track.anchor_cx, track.anchor_cy) == (130.0, 110.0)


class TestROITracker:
    def test_new_detections_create_tracks(self):
        tracker = ROITracker()
        tracker.confirm([ROI(0, 0, 10, 10), ROI(50, 50, 10, 10)])
        assert len(tracker.tracks) == 2
        assert {t.track_id for t in tracker.tracks} == {0, 1}

    def test_matching_updates_velocity(self):
        tracker = ROITracker(velocity_smoothing=0.0)
        tracker.confirm([ROI(100, 100, 20, 20)])
        tracker.confirm([ROI(106, 100, 20, 20)])
        (track,) = tracker.tracks
        assert track.vx == pytest.approx(6.0)
        assert track.vy == pytest.approx(0.0)

    def test_unmatched_tracks_age_out(self):
        tracker = ROITracker(max_age=2)
        tracker.confirm([ROI(0, 0, 10, 10)])
        for _ in range(3):
            tracker.confirm([ROI(500, 500, 10, 10)])
        # Original track should be gone; only the far one remains (it is
        # re-matched every time).
        assert all(t.roi.x == 500 for t in tracker.tracks if t.age == 0)
        assert not any(t.roi.x == 0 for t in tracker.tracks)

    def test_predict_moves_tracks(self):
        tracker = ROITracker(inflate_per_frame=0.0, velocity_smoothing=0.0)
        tracker.confirm([ROI(100, 100, 20, 20)])
        tracker.confirm([ROI(110, 100, 20, 20)])
        (roi,) = tracker.predict()
        assert roi.x == pytest.approx(120, abs=1)

    def test_healthy_thresholds(self):
        tracker = ROITracker(max_age=1)
        assert not tracker.healthy()
        tracker.confirm([ROI(0, 0, 10, 10)])
        assert tracker.healthy()


class TestVideoPipeline:
    @pytest.fixture()
    def moving_clip(self):
        """A bright square marching right across a plain background."""
        frames = []
        for t in range(8):
            img = np.full((96, 128, 3), 0.3)
            x = 10 + 8 * t
            img[30:54, x : x + 24] = 0.95
            frames.append(img)
        return frames

    @pytest.fixture()
    def detector(self):
        from repro.ml import Detection

        def detect(frame):
            mask = frame[:, :, 0] > 0.7
            if not mask.any():
                return []
            ys, xs = np.nonzero(mask)
            return [
                Detection(
                    "blob", 0.9, float(xs.min()), float(ys.min()),
                    float(xs.max() - xs.min() + 1), float(ys.max() - ys.min() + 1),
                )
            ]

        return detect

    @staticmethod
    def run_clip(frames, detector, interval):
        """The clip through the stream runner under a keyframe cadence."""
        pipeline = HiRISEPipeline(detector=detector, config=HiRISEConfig(pool_k=2))
        runner = StreamRunner(
            pipeline, reuse=KeyframeReuse(interval=interval), keep_outcomes=True
        )
        return runner.run(frames)

    def test_keyframe_cadence(self, moving_clip, detector):
        stream = self.run_clip(moving_clip, detector, interval=4)
        keyframes = [f.frame_index for f in stream.frames if f.ran_stage1]
        # Two warm-up keyframes (velocity needs two observations), then
        # one keyframe every 4 frames.
        assert keyframes == [0, 1, 5]

    def test_tracked_frames_cost_less(self, moving_clip, detector):
        stream = self.run_clip(moving_clip, detector, interval=4)
        key_cost = np.mean([f.energy_j for f in stream.frames if f.ran_stage1])
        tracked_cost = np.mean([f.energy_j for f in stream.frames if not f.ran_stage1])
        assert tracked_cost < key_cost / 2

    def test_tracked_rois_still_cover_object(self, moving_clip, detector):
        stream = self.run_clip(moving_clip, detector, interval=4)
        for t, outcome in enumerate(stream.outcomes):
            assert outcome.rois, f"no ROI at frame {t}"
            x = 10 + 8 * t
            gt = ROI(x, 30, 24, 24)
            best = max(r.iou(gt) for r in outcome.rois)
            assert best > 0.3, f"frame {t}: best IoU {best:.2f}"

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            KeyframeReuse(interval=0)
