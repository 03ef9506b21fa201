"""Stream runner modes, sources, and the cumulative ledger."""

import numpy as np
import pytest

from repro.core import (
    ConventionalPipeline,
    HiRISEConfig,
    HiRISEPipeline,
    ROI,
)
from repro.sensor import PixelArray
from repro.stream import (
    FrameStats,
    StreamOutcome,
    StreamRunner,
    TemporalROIReuse,
    drone_traffic_clip,
    ground_truth_detector,
    pedestrian_clip,
)


@pytest.fixture(scope="module")
def clip():
    return pedestrian_clip(n_frames=6, resolution=(128, 96), seed=3)


def hirise_runner(clip, **kwargs):
    detect, on_frame = ground_truth_detector(clip)
    pipeline = HiRISEPipeline(
        detector=detect,
        config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05),
    )
    return StreamRunner(pipeline, **kwargs), on_frame


class TestSources:
    def test_pedestrian_clip_shapes(self, clip):
        assert len(clip) == 6
        assert clip.frames[0].shape == (96, 128, 3)
        assert len(clip.ground_truth) == 6
        assert all(clip.ground_truth[0])
        assert float(clip.frames[0].min()) >= 0.0
        assert float(clip.frames[0].max()) <= 1.0

    def test_clip_is_deterministic(self):
        a = pedestrian_clip(n_frames=3, resolution=(64, 48), seed=9)
        b = pedestrian_clip(n_frames=3, resolution=(64, 48), seed=9)
        assert np.array_equal(a.frames[2], b.frames[2])
        assert a.ground_truth == b.ground_truth

    def test_actors_move(self, clip):
        first = np.asarray(clip.ground_truth[0])
        last = np.asarray(clip.ground_truth[-1])
        assert np.abs(first[:, 0] - last[:, 0]).max() > 2

    def test_drone_clip(self):
        clip = drone_traffic_clip(n_frames=4, resolution=(128, 96), n_vehicles=3)
        assert len(clip) == 4
        assert len(clip.ground_truth[0]) == 3

    def test_ground_truth_detector_scales_to_pooled(self, clip):
        detect, on_frame = ground_truth_detector(clip)
        on_frame(0)
        pooled = np.zeros((24, 32, 3))  # k = 4
        dets = detect(pooled)
        x, y, w, h = clip.ground_truth[0][0]
        assert dets[0].x == pytest.approx(x / 4)
        assert dets[0].w == pytest.approx(w / 4)


class TestRunnerModes:
    def test_per_frame_matches_manual_loop(self, clip):
        runner, on_frame = hirise_runner(clip, keep_outcomes=True)
        stream = runner.run(clip.frames, on_frame=on_frame)

        detect, on_frame = ground_truth_detector(clip)
        pipeline = HiRISEPipeline(
            detector=detect,
            config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05),
        )
        for idx, frame in enumerate(clip.frames):
            on_frame(idx)
            manual = pipeline.run(frame, frame_seed=idx)
            assert manual.ledger.breakdown() == stream.outcomes[idx].ledger.breakdown()
            assert np.array_equal(manual.stage1_image, stream.outcomes[idx].stage1_image)

    def test_conventional_mode(self, clip):
        detect, on_frame = ground_truth_detector(clip)
        runner = StreamRunner(ConventionalPipeline(detector=detect))
        stream = runner.run(clip.frames, on_frame=on_frame)
        assert stream.system == "conventional"
        assert stream.n_frames == len(clip)
        # No pooled conversion exists in this mode; the full frames still
        # ride the stage-1 S->P flow in the ledger.
        assert stream.stage1_frames == 0
        w, h = clip.resolution
        assert stream.stage1_bytes == w * h * 3 * len(clip)

    def test_custom_frame_seeds(self, clip):
        runner, on_frame = hirise_runner(clip)
        stream = runner.run(clip.frames, frame_seeds=[11] * len(clip), on_frame=on_frame)
        assert stream.n_frames == len(clip)
        with pytest.raises(ValueError, match="frame seeds"):
            runner.run(clip.frames, frame_seeds=[1, 2])

    def test_generator_input(self, clip):
        runner, on_frame = hirise_runner(clip)
        stream = runner.run((f for f in clip.frames), on_frame=on_frame)
        assert stream.n_frames == len(clip)

    def test_generator_with_explicit_seeds_stays_lazy(self, clip):
        """Explicit seeds must not materialize the clip (streaming contract)."""
        runner, on_frame = hirise_runner(clip)
        stream = runner.run(
            (f for f in clip.frames),
            frame_seeds=(i + 100 for i in range(len(clip))),
            on_frame=on_frame,
        )
        assert stream.n_frames == len(clip)
        with pytest.raises(ValueError, match="frame seeds"):
            runner.run((f for f in clip.frames), frame_seeds=iter([1, 2]))

    def test_frame_source_errors_surface_unmasked(self, clip):
        """A ValueError raised *inside* the frame iterable must not be
        rewritten as a seed-count mismatch."""
        runner, on_frame = hirise_runner(clip)

        def broken_frames():
            yield clip.frames[0]
            raise ValueError("frame decode failed")

        with pytest.raises(ValueError, match="frame decode failed"):
            runner.run(
                broken_frames(),
                frame_seeds=iter(range(len(clip))),
                on_frame=on_frame,
            )

    def test_outcomes_dropped_by_default(self, clip):
        runner, on_frame = hirise_runner(clip)
        stream = runner.run(clip.frames, on_frame=on_frame)
        assert stream.outcomes == []
        assert stream.n_frames == len(clip)

    def test_validation(self, clip):
        with pytest.raises(ValueError, match="conventional"):
            StreamRunner(ConventionalPipeline(), reuse=TemporalROIReuse())

    def test_window_validation(self):
        pipeline = HiRISEPipeline()
        # Per the spec convention, the error names the offending field.
        with pytest.raises(ValueError, match=r"window: must be >= 1, got 0"):
            StreamRunner(pipeline, window=0)
        with pytest.raises(ValueError, match=r"window: must be >= 1, got -3"):
            StreamRunner(pipeline, window=-3)
        with pytest.raises(ValueError, match="conventional"):
            StreamRunner(ConventionalPipeline(), window=2)
        # window composes with reuse.
        runner = StreamRunner(pipeline, reuse=TemporalROIReuse(), window=4)
        assert runner.window == 4

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_non_image_frames_rejected_at_every_window(self, clip, window):
        frame = clip.frames[0]
        message = r"image must be \(H, W, 3\) or \(H, W\), got "
        bad = {
            "PixelArray": PixelArray.from_image(frame),
            r"\(5,\)": np.zeros(5),
            r"\(1, 96, 128, 3\)": frame[None],
        }
        for got, item in bad.items():
            runner, on_frame = hirise_runner(clip, window=window)
            with pytest.raises(ValueError, match=message + got):
                runner.run([item, frame], on_frame=on_frame)
            runner, on_frame = hirise_runner(clip, window=window)
            with pytest.raises(ValueError, match=message + got):
                runner.run([frame, item], on_frame=on_frame)

    @pytest.mark.parametrize("window", [1, 3])
    def test_nan_frame_rejected_at_every_window(self, clip, window):
        bad = clip.frames[1].copy()
        bad[40, 50, 0] = np.nan
        runner, on_frame = hirise_runner(clip, window=window)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            runner.run([clip.frames[0], bad], on_frame=on_frame)

    def test_seed_mismatch_error_names_the_stream(self, clip):
        runner, _ = hirise_runner(clip, label="pedestrian/none")
        with pytest.raises(
            ValueError, match=r"stream 'pedestrian/none': 2 frame seeds for 6"
        ):
            runner.run(clip.frames, frame_seeds=[1, 2])
        with pytest.raises(
            ValueError, match=r"stream 'pedestrian/none': frame seeds and"
        ):
            runner.run((f for f in clip.frames), frame_seeds=iter([1, 2]))
        # Unnamed runners keep the bare message (no dangling quote noise).
        unnamed, _ = hirise_runner(clip)
        with pytest.raises(ValueError, match=r"^2 frame seeds for 6 frames$"):
            unnamed.run(clip.frames, frame_seeds=[1, 2])


class TestStreamOutcomeAggregation:
    def _stats(self, i, **kwargs):
        defaults = dict(
            frame_index=i,
            ran_stage1=True,
            reused_rois=False,
            reason="",
            n_rois=2,
            stage1_bytes=100,
            roi_feedback_bytes=16,
            stage2_bytes=300,
            stage1_conversions=100,
            stage2_conversions=300,
            energy_j=1e-6,
            peak_image_memory_bytes=400,
        )
        defaults.update(kwargs)
        return FrameStats(**defaults)

    def test_totals_are_sums_of_frames(self):
        outcome = StreamOutcome(system="hirise")
        outcome.append(self._stats(0))
        outcome.append(self._stats(1, stage1_bytes=0, stage1_conversions=0,
                                   reused_rois=True, ran_stage1=False,
                                   peak_image_memory_bytes=900))
        outcome.append(self._stats(2, stage2_bytes=50, stage2_conversions=50))

        assert outcome.n_frames == 3
        assert outcome.stage1_frames == 2
        assert outcome.reused_frames == 1
        assert outcome.stage1_bytes == 200
        assert outcome.roi_feedback_bytes == 48
        assert outcome.stage2_bytes == 650
        assert outcome.total_bytes == 200 + 48 + 650
        assert outcome.total_bytes == sum(f.total_bytes for f in outcome.frames)
        assert outcome.total_conversions == 200 + 650
        assert outcome.total_energy_j == pytest.approx(3e-6)
        assert outcome.peak_image_memory_bytes == 900
        assert outcome.breakdown()["total"] == outcome.total_bytes

    def test_rates(self):
        outcome = StreamOutcome(system="hirise")
        assert outcome.frames_per_second == 0.0
        assert outcome.mean_bytes_per_frame == 0.0
        outcome.append(self._stats(0))
        outcome.append(self._stats(1))
        outcome.wall_time_s = 0.5
        assert outcome.frames_per_second == pytest.approx(4.0)
        assert outcome.mean_bytes_per_frame == pytest.approx(416.0)
        assert outcome.mean_energy_per_frame_j == pytest.approx(1e-6)

    def test_report_mentions_key_quantities(self):
        outcome = StreamOutcome(system="hirise")
        outcome.append(self._stats(0))
        outcome.wall_time_s = 0.25
        text = outcome.report()
        assert "1 frames" in text
        assert "transfer" in text
        assert "frames/s" in text

    def test_stream_totals_match_outcome_ledgers(self, clip):
        runner, on_frame = hirise_runner(clip, keep_outcomes=True)
        stream = runner.run(clip.frames, on_frame=on_frame)
        assert stream.total_bytes == sum(
            o.ledger.total_bytes for o in stream.outcomes
        )
        assert stream.total_energy_j == pytest.approx(
            sum(o.energy.total for o in stream.outcomes)
        )
        assert stream.peak_image_memory_bytes == max(
            o.peak_image_memory_bytes for o in stream.outcomes
        )


class TestFrameStats:
    def test_from_outcome(self, clip):
        detect, on_frame = ground_truth_detector(clip)
        pipeline = HiRISEPipeline(
            detector=detect, config=HiRISEConfig(pool_k=4)
        )
        on_frame(0)
        outcome = pipeline.run(clip.frames[0], frame_seed=0)
        stats = FrameStats.from_outcome(3, outcome, ran_stage1=True)
        assert stats.frame_index == 3
        assert stats.stage1_bytes == outcome.ledger.stage1_s2p
        assert stats.stage2_bytes == outcome.ledger.stage2_s2p
        assert stats.roi_feedback_bytes == outcome.ledger.stage1_p2s
        assert stats.total_bytes == outcome.ledger.total_bytes
        assert stats.n_rois == len(outcome.rois)
        assert stats.energy_j == outcome.energy.total


class TestLedgerSerialization:
    """Exact to_dict/from_dict/JSON round-trips (the serving payloads)."""

    def run_stream(self, clip, **kwargs):
        runner, on_frame = hirise_runner(clip, **kwargs)
        return runner.run(clip.frames, on_frame=on_frame)

    def test_frame_stats_round_trip_is_exact(self, clip):
        stream = self.run_stream(clip)
        for stats in stream.frames:
            data = stats.to_dict()
            assert FrameStats.from_dict(data) == stats
            assert FrameStats.from_dict(data).to_dict() == data

    def test_frame_stats_json_round_trip_is_exact(self, clip):
        import json

        stream = self.run_stream(clip)
        for stats in stream.frames:
            wire = json.dumps(stats.to_dict())
            assert FrameStats.from_dict(json.loads(wire)) == stats

    def test_outcome_round_trip_is_exact(self, clip):
        import json

        stream = self.run_stream(clip)
        data = stream.to_dict()
        rebuilt = StreamOutcome.from_dict(json.loads(json.dumps(data)))
        assert rebuilt == stream
        assert rebuilt.to_dict() == data

    def test_validation_errors_name_the_field(self, clip):
        stream = self.run_stream(clip)
        data = stream.frames[0].to_dict()
        bad = dict(data, energy_j="warm")
        with pytest.raises(ValueError, match="frame_stats.energy_j"):
            FrameStats.from_dict(bad)
        with pytest.raises(ValueError, match=r"unknown field\(s\) \['surprise'\]"):
            FrameStats.from_dict(dict(data, surprise=1))
        missing = dict(data)
        del missing["n_rois"]
        with pytest.raises(ValueError, match=r"frame_stats\.n_rois: required field is missing"):
            FrameStats.from_dict(missing)

    def test_exact_types_reject_bool_int_impostors(self, clip):
        data = self.run_stream(clip).frames[0].to_dict()
        with pytest.raises(ValueError, match="frame_stats.ran_stage1"):
            FrameStats.from_dict(dict(data, ran_stage1=1))
        with pytest.raises(ValueError, match="frame_stats.n_rois"):
            FrameStats.from_dict(dict(data, n_rois=True))
        # ints are acceptable floats (JSON can render 1.0 as 1)...
        assert FrameStats.from_dict(dict(data, energy_j=1)).energy_j == 1.0
        # ...but bools are not.
        with pytest.raises(ValueError, match="frame_stats.energy_j"):
            FrameStats.from_dict(dict(data, energy_j=True))

    def test_outcome_with_kept_outcomes_refuses_to_serialize(self, clip):
        stream = self.run_stream(clip, keep_outcomes=True)
        with pytest.raises(ValueError, match="keep_outcomes"):
            stream.to_dict()


class TestOnStatsHook:
    def test_callback_fires_per_frame_in_stream_order(self, clip):
        runner, on_frame = hirise_runner(clip)
        seen = []
        runner.on_stats = seen.append
        stream = runner.run(clip.frames, on_frame=on_frame)
        assert seen == stream.frames
        assert [s.frame_index for s in seen] == list(range(len(clip)))

    def test_callback_sees_rows_live(self, clip):
        # Frame events interleave: stats(i) arrives before frame i+1 even
        # starts — the hook streams mid-run, it does not replay at the end.
        runner, on_frame = hirise_runner(clip)
        events = []

        def track_frame(idx):
            events.append(("start", idx))
            on_frame(idx)

        runner.on_stats = lambda stats: events.append(("stats", stats.frame_index))
        runner.run(clip.frames, on_frame=track_frame)
        expected = [
            e for i in range(len(clip)) for e in (("start", i), ("stats", i))
        ]
        assert events == expected

    def test_no_callback_by_default(self, clip):
        runner, _ = hirise_runner(clip)
        assert runner.on_stats is None


class TestStage2OnlyPath:
    def test_zero_stage1_accounting(self, clip):
        pipeline = HiRISEPipeline(config=HiRISEConfig(pool_k=4))
        outcome = pipeline.run_stage2_only(
            clip.frames[0], [ROI(10, 10, 30, 40)], frame_seed=0
        )
        assert outcome.stage1_conversions == 0
        assert outcome.ledger.stage1_s2p == 0
        assert outcome.ledger.stage1_p2s > 0
        assert outcome.ledger.stage2_s2p == 30 * 40 * 3
        assert outcome.stage1_image.size == 0
        assert len(outcome.roi_crops) == 1

    def test_windows_clipped_and_filtered(self, clip):
        pipeline = HiRISEPipeline(config=HiRISEConfig(pool_k=4, min_roi_px=4))
        outcome = pipeline.run_stage2_only(
            clip.frames[0],
            [ROI(-10, -10, 20, 20), ROI(0, 0, 2, 2), ROI(1000, 1000, 5, 5)],
            frame_seed=0,
        )
        # Off-array window clipped to 10x10; tiny and out-of-bounds dropped.
        assert [r.xywh for r in outcome.rois] == [(0, 0, 10, 10)]
