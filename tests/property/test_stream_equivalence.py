"""The windowed-streaming bit-identity contract, stated once as a property.

Every performance mode the stream runner has grown — windowed stage-1
(``window > 1``), temporal ROI reuse, their composition, batch executors —
carries the same promise: the :class:`~repro.stream.StreamOutcome` is
**exactly equal** to the one the per-frame reference loop (``window=1``,
serial) produces.  Prior PRs asserted that promise as scattered point
checks; this suite states it as a property and sweeps the whole grid:

    (window size x reuse policy x source x seed x executor)

Equality is exact — frozen-dataclass ``FrameStats`` rows compare field by
field, kept :class:`PipelineOutcome`\\ s compare array by array with
``np.array_equal`` — never tolerance-based.  Noise is enabled throughout
so the per-frame temporal-noise seeds are observable: any mode that
perturbed a frame's random stream (e.g. by drawing ROI noise from a
readout whose counter a speculative window pass already advanced) fails
loudly here.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HiRISEConfig, HiRISEPipeline
from repro.sensor import NoiseModel
from repro.service import (
    ComponentRef,
    Engine,
    EngineCache,
    ScenarioSpec,
    SystemSpec,
)
from repro.stream import (
    StreamRunner,
    TemporalROIReuse,
    ground_truth_detector,
    pedestrian_clip,
)

NOISE = NoiseModel(read_noise=0.002, prnu=0.01, dsnu=0.001, seed=7)


def assert_streams_equal(got, oracle) -> None:
    """Exact StreamOutcome equality, arrays included (wall time excluded)."""
    assert got.system == oracle.system
    # The cumulative totals are derived from the rows, so frame equality
    # (frozen dataclasses, field-by-field) covers the whole ledger.
    assert got.frames == oracle.frames
    assert len(got.outcomes) == len(oracle.outcomes)
    for a, b in zip(got.outcomes, oracle.outcomes):
        assert np.array_equal(a.stage1_image, b.stage1_image)
        assert a.rois == b.rois
        assert len(a.roi_crops) == len(b.roi_crops)
        assert all(
            np.array_equal(x, y) for x, y in zip(a.roi_crops, b.roi_crops)
        )
        assert a.stage1_conversions == b.stage1_conversions
        assert a.stage2_conversions == b.stage2_conversions
        assert a.ledger.total_bytes == b.ledger.total_bytes


# -- runner level: hypothesis drives the (window, policy, clip, seeds) grid --------


@lru_cache(maxsize=16)
def _clip(n_frames: int, seed: int, speed: float = 2.0):
    # speed=0.0 holds the walkers still, the friendliest case for reuse —
    # on tiny clips it is what lets grants actually fire inside a window
    # (moving walkers stay "unstable" for longer than the clip).
    return pedestrian_clip(
        n_frames=n_frames, resolution=(64, 48), seed=seed, speed=speed
    )


def _run(clip, *, window: int, reuse: bool, frame_seeds) -> object:
    detect, on_frame = ground_truth_detector(clip)
    pipeline = HiRISEPipeline(
        detector=detect,
        config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05),
        noise=NOISE,
    )
    runner = StreamRunner(
        pipeline,
        reuse=TemporalROIReuse() if reuse else None,
        window=window,
        keep_outcomes=True,
    )
    return runner.run(clip.frames, frame_seeds=frame_seeds, on_frame=on_frame)


class TestRunnerWindowEquivalence:
    @given(
        n_frames=st.integers(1, 7),
        window=st.integers(2, 9),
        clip_seed=st.integers(0, 3),
        reuse=st.booleans(),
        speed=st.sampled_from([0.0, 2.0]),
        seed_base=st.none() | st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_window_matches_per_frame_oracle(
        self, n_frames, window, clip_seed, reuse, speed, seed_base
    ):
        """For any (clip, seeds, policy, window): windowed == per-frame."""
        clip = _clip(n_frames, clip_seed, speed)
        frame_seeds = (
            None
            if seed_base is None
            else [seed_base + 13 * i for i in range(n_frames)]
        )
        oracle = _run(clip, window=1, reuse=reuse, frame_seeds=frame_seeds)
        got = _run(clip, window=window, reuse=reuse, frame_seeds=frame_seeds)
        assert_streams_equal(got, oracle)

    def test_reuse_actually_exercised(self):
        """The grid is non-vacuous: reuse grants fire on the static clip."""
        outcome = _run(
            _clip(7, 0, 0.0), window=4, reuse=True, frame_seeds=None
        )
        assert sum(f.reused_rois for f in outcome.frames) > 0
        assert sum(f.ran_stage1 for f in outcome.frames) < len(outcome.frames)

    def test_partial_tail_window(self):
        """A stream whose length is not a window multiple flushes a short
        tail through the same preallocated buffer."""
        clip = _clip(7, 1)
        oracle = _run(clip, window=1, reuse=False, frame_seeds=None)
        got = _run(clip, window=5, reuse=False, frame_seeds=None)
        assert_streams_equal(got, oracle)

    def test_buffer_reuse_across_runs(self):
        """Back-to-back runs on one runner (buffer already warm) stay
        bit-identical to a fresh runner."""
        clip = _clip(6, 2)
        detect, on_frame = ground_truth_detector(clip)
        pipeline = HiRISEPipeline(
            detector=detect,
            config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05),
            noise=NOISE,
        )
        runner = StreamRunner(pipeline, window=4, keep_outcomes=True)
        first = runner.run(clip.frames, on_frame=on_frame)
        second = runner.run(clip.frames, on_frame=on_frame)
        assert_streams_equal(second, first)


# -- engine level: (window x policy x source x executor), specs end to end ---------

SYSTEM = SystemSpec.from_dict(
    {
        "system": "hirise",
        "detector": {"name": "ground-truth", "params": {"label": "person"}},
        "noise": {"read_noise": 0.002, "prnu": 0.01, "dsnu": 0.001, "seed": 7},
    }
)
N_FRAMES = 6
SOURCES = {
    "pedestrian": ComponentRef("pedestrian", {"resolution": [96, 64]}),
    "drone": ComponentRef("drone", {"resolution": [96, 64]}),
}


def scenario(source: str, policy: str, window: int, seed: int = 3) -> ScenarioSpec:
    return ScenarioSpec(
        source=SOURCES[source],
        n_frames=N_FRAMES,
        seed=seed,
        policy=ComponentRef(policy),
        window=window,
        keep_outcomes=False,
    )


@pytest.fixture(scope="module")
def engine():
    return Engine(SYSTEM, cache=EngineCache.disabled())


@pytest.fixture(scope="module")
def oracles(engine):
    """Per-frame serial references, one per (source, policy, seed) cell."""
    cells = {}
    for source in SOURCES:
        for policy in ("none", "temporal-reuse"):
            for seed in (3, 11):
                cells[source, policy, seed] = engine.run(
                    scenario(source, policy, 1, seed)
                ).outcome
    return cells


class TestEngineWindowEquivalence:
    # ISSUE acceptance grid: window sizes {1, 4, full clip}.
    @pytest.mark.parametrize("window", [1, 4, N_FRAMES])
    @pytest.mark.parametrize("policy", ["none", "temporal-reuse"])
    @pytest.mark.parametrize("source", list(SOURCES))
    def test_windowed_scenarios_match_oracle(
        self, engine, oracles, window, policy, source
    ):
        for seed in (3, 11):
            got = engine.run(scenario(source, policy, window, seed)).outcome
            oracle = oracles[source, policy, seed]
            assert got.frames == oracle.frames
            got_dict, oracle_dict = got.to_dict(), oracle.to_dict()
            got_dict.pop("wall_time_s"), oracle_dict.pop("wall_time_s")
            assert got_dict == oracle_dict

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_executors_preserve_windowed_identity(self, engine, oracles, executor):
        """The full windowed grid through each batch executor."""
        requests = [
            scenario(source, policy, window)
            for source in SOURCES
            for policy in ("none", "temporal-reuse")
            for window in (1, 4, N_FRAMES)
        ]
        fresh = Engine(SYSTEM, cache=EngineCache.disabled())
        batch = fresh.run_batch(requests, workers=2, executor=executor)
        assert len(batch) == len(requests)
        for request, result in zip(requests, batch):
            oracle = oracles[request.source.name, request.policy.name, 3]
            assert result.outcome.frames == oracle.frames

