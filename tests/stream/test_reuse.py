"""Temporal ROI reuse: the stage-1 skip must be safe and actually free."""

import numpy as np
import pytest

from repro.core import ROI, HiRISEConfig, HiRISEPipeline, ROITracker
from repro.stream import (
    KeyframeReuse,
    StreamRunner,
    TemporalROIReuse,
    ground_truth_detector,
    pedestrian_clip,
    rois_stable,
)


class TestRoisStable:
    def test_identical_sets_are_stable(self):
        rois = [ROI(10, 10, 20, 20), ROI(50, 60, 15, 30)]
        assert rois_stable(rois, list(rois), 0.5)

    def test_small_drift_is_stable(self):
        prev = [ROI(10, 10, 20, 20)]
        cur = [ROI(12, 10, 20, 20)]
        assert rois_stable(prev, cur, 0.5)

    def test_large_motion_is_unstable(self):
        assert not rois_stable([ROI(10, 10, 20, 20)], [ROI(60, 10, 20, 20)], 0.5)

    def test_count_change_is_unstable(self):
        prev = [ROI(10, 10, 20, 20)]
        cur = [ROI(10, 10, 20, 20), ROI(100, 100, 20, 20)]
        assert not rois_stable(prev, cur, 0.5)
        assert not rois_stable(cur, prev, 0.5)

    def test_empty_sets_are_unstable(self):
        assert not rois_stable([], [], 0.5)

    def test_one_to_one_matching(self):
        """Two current boxes may not both claim the same previous box."""
        prev = [ROI(10, 10, 20, 20), ROI(200, 200, 20, 20)]
        cur = [ROI(11, 10, 20, 20), ROI(12, 10, 20, 20)]
        assert not rois_stable(prev, cur, 0.3)


class TestTemporalROIReusePolicy:
    def test_warmup_blocks_reuse(self):
        policy = TemporalROIReuse()
        assert policy.propose().reason == "warmup"
        policy.observe([ROI(10, 10, 20, 20)])
        assert policy.propose().reason == "warmup"

    def test_stable_scene_grants_reuse(self):
        policy = TemporalROIReuse()
        policy.observe([ROI(10, 10, 20, 20)])
        policy.observe([ROI(11, 10, 20, 20)])
        decision = policy.propose()
        assert decision.reuse and decision.reason == "stable"
        assert decision.rois

    def test_unstable_scene_blocks_reuse(self):
        policy = TemporalROIReuse()
        policy.observe([ROI(10, 10, 20, 20)])
        policy.observe([ROI(150, 10, 20, 20)])  # teleported
        assert policy.propose().reason == "unstable"

    def test_low_confidence_blocks_reuse(self):
        policy = TemporalROIReuse(min_score=0.5)
        policy.observe([ROI(10, 10, 20, 20, score=0.9)])
        policy.observe([ROI(11, 10, 20, 20, score=0.3)])
        assert not policy.propose().reuse

    def test_max_reuse_forces_revalidation(self):
        policy = TemporalROIReuse(max_reuse=2)
        policy.observe([ROI(10, 10, 20, 20)])
        policy.observe([ROI(10, 10, 20, 20)])
        assert policy.propose().reuse
        assert policy.propose().reuse
        assert policy.propose().reason == "revalidate"

    def test_observation_resets_streak(self):
        policy = TemporalROIReuse(max_reuse=1)
        policy.observe([ROI(10, 10, 20, 20)])
        policy.observe([ROI(10, 10, 20, 20)])
        assert policy.propose().reuse
        assert policy.propose().reason == "revalidate"
        policy.observe([ROI(10, 10, 20, 20)])
        assert policy.propose().reuse

    def test_constant_velocity_estimated_exactly_through_reuse(self):
        """Velocity must be measured from the last *confirmed* anchor over
        the true elapsed frames; measuring from the prediction-advanced box
        (or dividing by predict-count alone) biases the estimate and makes
        reused windows lag or overshoot moving objects."""
        u = 6
        policy = TemporalROIReuse(max_reuse=3)
        x = 100
        policy.observe([ROI(x, 50, 24, 24)])
        x += u
        policy.observe([ROI(x, 50, 24, 24)])
        ious = []
        for _ in range(20):
            decision = policy.propose()
            x += u
            truth = ROI(x, 50, 24, 24)
            if decision.reuse:
                (track,) = policy.tracker.tracks
                assert track.vx == pytest.approx(u)
                ious.append(max(r.iou(truth) for r in decision.rois))
            else:
                policy.observe([truth])
        assert ious and min(ious) > 0.6

    def test_moving_scene_survives_revalidation(self):
        """The stability reference must advance with the tracks, so steady
        motion keeps earning reuse after each revalidating stage-1 run."""
        policy = TemporalROIReuse(max_reuse=2)
        x = 10
        policy.observe([ROI(x, 10, 20, 20)])
        x += 3
        policy.observe([ROI(x, 10, 20, 20)])
        granted = 0
        for _ in range(12):
            decision = policy.propose()
            if decision.reuse:
                granted += 1
                x += 3
            else:
                x += 3
                policy.observe([ROI(x, 10, 20, 20)])
        assert granted >= 6

    def test_vanished_object_does_not_poison_reuse(self):
        """A track whose object disappeared must not contribute readout
        windows, and the next revalidation must still judge the unchanged
        remaining detections stable."""
        policy = TemporalROIReuse(max_reuse=2)
        both = [ROI(10, 10, 20, 20), ROI(100, 100, 20, 20)]
        policy.observe(both)
        policy.observe(both)
        assert policy.propose().reuse  # second object still tracked
        # The second object vanishes; detections settle on one box.
        one = [ROI(10, 10, 20, 20)]
        policy.observe(one)  # unstable transition (2 -> 1), no reuse
        assert not policy.propose().reuse
        policy.observe(one)
        decision = policy.propose()
        assert decision.reuse
        # Only the live object's window is read, even though the dead
        # track may still linger inside the tracker.
        assert len(decision.rois) == 1
        assert decision.rois[0].iou(ROI(10, 10, 20, 20)) > 0.5
        # After the streak, revalidation sees the same single box: stable.
        policy.propose()  # second reuse of the streak
        assert policy.propose().reason == "revalidate"
        policy.observe(one)
        assert policy.propose().reuse

    def test_validation(self):
        with pytest.raises(ValueError):
            TemporalROIReuse(max_reuse=0)
        with pytest.raises(ValueError):
            TemporalROIReuse(warmup=1)


class TestKeyframeReusePolicy:
    def test_warmup_then_fixed_cadence(self):
        policy = KeyframeReuse(interval=3)
        reasons = []
        for _ in range(8):
            decision = policy.propose()
            reasons.append(decision.reason)
            if not decision.reuse:
                policy.observe([ROI(10, 10, 20, 20)])
        assert reasons == [
            "warmup", "warmup", "tracked", "tracked",
            "keyframe", "tracked", "tracked", "keyframe",
        ]

    def test_tracked_frames_read_predicted_windows(self):
        policy = KeyframeReuse(tracker=ROITracker(inflate_per_frame=0.0))
        policy.observe([ROI(10, 10, 20, 20)])
        policy.observe([ROI(14, 10, 20, 20)])
        decision = policy.propose()
        assert decision.reuse
        assert [r.xywh for r in decision.rois] == [(18, 10, 20, 20)]

    def test_lost_tracks_force_an_early_keyframe(self):
        policy = KeyframeReuse(interval=4)
        policy.observe([])
        policy.observe([])
        assert policy.propose().reason == "lost-tracks"

    def test_reset_restarts_warmup(self):
        policy = KeyframeReuse()
        policy.observe([ROI(10, 10, 20, 20)])
        policy.observe([ROI(10, 10, 20, 20)])
        assert policy.propose().reuse
        policy.reset()
        assert policy.propose().reason == "warmup"
        assert policy.tracker.tracks == ()

    def test_validation(self):
        with pytest.raises(ValueError, match="interval"):
            KeyframeReuse(interval=0)
        with pytest.raises(ValueError, match="warmup"):
            KeyframeReuse(warmup=0)


class TestReuseStream:
    @pytest.fixture(scope="class")
    def clip(self):
        return pedestrian_clip(n_frames=14, resolution=(128, 96), seed=2)

    def _run(self, clip, **kwargs):
        detect, on_frame = ground_truth_detector(clip)
        pipeline = HiRISEPipeline(
            detector=detect,
            config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05),
        )
        runner = StreamRunner(pipeline, **kwargs)
        return runner.run(clip.frames, on_frame=on_frame)

    def test_reused_frames_pay_zero_stage1(self, clip):
        outcome = self._run(clip, reuse=TemporalROIReuse(max_reuse=3))
        reused = [f for f in outcome.frames if f.reused_rois]
        assert reused, "no frame was served from reuse"
        for frame in reused:
            assert frame.stage1_bytes == 0
            assert frame.stage1_conversions == 0
            assert not frame.ran_stage1
            assert frame.n_rois > 0

    def test_reuse_cheaper_than_per_frame(self, clip):
        per = self._run(clip)
        reuse = self._run(clip, reuse=TemporalROIReuse(max_reuse=3))
        assert reuse.total_bytes < per.total_bytes
        assert reuse.total_energy_j < per.total_energy_j

    def test_streak_bounded_by_max_reuse(self, clip):
        outcome = self._run(clip, reuse=TemporalROIReuse(max_reuse=2))
        streak = 0
        for frame in outcome.frames:
            if frame.reused_rois:
                streak += 1
                assert streak <= 2
            else:
                streak = 0

    def test_first_frames_always_run_stage1(self, clip):
        outcome = self._run(clip, reuse=TemporalROIReuse())
        assert outcome.frames[0].ran_stage1
        assert outcome.frames[1].ran_stage1

    def test_second_run_starts_fresh(self, clip):
        """run() must reset the reuse policy: tracks from a previous clip
        may never grant reuse on a stream that was never detected."""
        detect, on_frame = ground_truth_detector(clip)
        pipeline = HiRISEPipeline(
            detector=detect,
            config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05),
        )
        runner = StreamRunner(pipeline, reuse=TemporalROIReuse(max_reuse=3))
        runner.run(clip.frames, on_frame=on_frame)
        second = runner.run(clip.frames, on_frame=on_frame)
        assert second.frames[0].ran_stage1
        assert second.frames[0].reason == "warmup"
        assert second.frames[1].ran_stage1

    def test_reused_windows_cover_ground_truth(self, clip):
        outcome = self._run(clip, reuse=TemporalROIReuse(max_reuse=3), keep_outcomes=True)
        for stats, result, gt in zip(
            outcome.frames, outcome.outcomes, clip.ground_truth
        ):
            if not stats.reused_rois:
                continue
            for x, y, w, h in gt:
                box = ROI(int(x), int(y), max(int(w), 1), max(int(h), 1))
                clipped = box.clip(*clip.resolution)
                if clipped is None:
                    continue
                best = max((r.iou(clipped) for r in result.rois), default=0.0)
                assert best > 0.3, f"frame {stats.frame_index}: IoU {best:.2f}"
