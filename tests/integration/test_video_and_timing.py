"""Integration: video amortization on realistic scenes."""

import numpy as np
import pytest

from repro.core import HiRISEConfig, HiRISEPipeline, ROI
from repro.datasets.shapes import draw_person
from repro.datasets.textures import colorize, value_noise
from repro.ml import Detection
from repro.stream import KeyframeReuse, StreamRunner


@pytest.fixture(scope="module")
def walking_clip():
    """Six frames of two pedestrians walking over a textured background."""
    rng = np.random.default_rng(8)
    backdrop = colorize(value_noise((240, 320), rng, octaves=3), (0.5, 0.5, 0.48),
                        (0.65, 0.63, 0.6))
    frames, gt = [], []
    for t in range(6):
        canvas = backdrop.copy()
        boxes = []
        for i, (x0, y, h, v) in enumerate(((40.0, 60.0, 90.0, 6.0),
                                           (220.0, 120.0, 70.0, -5.0))):
            body, _ = draw_person(
                canvas, np.random.default_rng((8, i)), x0 + v * t, y, h, 0.3, 0.55
            )
            boxes.append(body)
        frames.append(np.clip(canvas, 0, 1))
        gt.append(boxes)
    return frames, gt


def gt_detector(gt, state):
    def detect(pooled):
        k = 320 // pooled.shape[1]
        return [
            Detection("person", 0.9, x / k, y / k, w / k, h / k)
            for x, y, w, h in gt[min(state["t"], len(gt) - 1)]
        ]

    return detect


def run_keyframes(frames, gt, interval):
    """The clip through the stream runner under a keyframe cadence."""
    state = {"t": 0}
    pipeline = HiRISEPipeline(
        detector=gt_detector(gt, state),
        config=HiRISEConfig(pool_k=2, max_rois=4),
    )
    runner = StreamRunner(
        pipeline, reuse=KeyframeReuse(interval=interval), keep_outcomes=True
    )
    return runner.run(frames, on_frame=lambda i: state.update(t=i))


class TestVideoOnScenes:
    def test_amortized_clip_cheaper_than_per_frame(self, walking_clip):
        frames, gt = walking_clip
        every_frame = run_keyframes(frames, gt, 1).total_energy_j
        amortized = run_keyframes(frames, gt, 3).total_energy_j
        assert amortized < every_frame

    def test_tracked_windows_follow_pedestrians(self, walking_clip):
        frames, gt = walking_clip
        stream = run_keyframes(frames, gt, 3)
        for stats, outcome in zip(stream.frames, stream.outcomes):
            truth = [ROI(int(x), int(y), max(int(w), 1), max(int(h), 1))
                     for x, y, w, h in gt[stats.frame_index]]
            for t_box in truth:
                clipped = t_box.clip(320, 240)
                if clipped is None:
                    continue
                best = max((roi.iou(clipped) for roi in outcome.rois), default=0.0)
                assert best > 0.25, (
                    f"frame {stats.frame_index}: pedestrian lost (IoU {best:.2f})"
                )
