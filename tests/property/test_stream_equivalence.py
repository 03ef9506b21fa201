"""The stream bit-identity contract, stated once as a property.

Every performance mode the stream runner has grown — windowed exposure
(``window > 1``), reuse policies, their composition, batch executors —
carries the same promise: the :class:`~repro.stream.StreamOutcome` is
**exactly equal** to the one an independent per-frame loop produces: one
:meth:`HiRISEPipeline.run` (or, when the policy grants reuse,
:meth:`HiRISEPipeline.run_stage2_only`) per raw frame, driving the policy's
``propose``/``observe`` by hand, with no runner, window or exposure buffer
involved.  This suite states that promise as a property and sweeps the
whole grid:

    (window size x reuse policy x source x seed x executor x frame sequence)

Equality is exact — frozen-dataclass ``FrameStats`` rows compare field by
field, kept :class:`PipelineOutcome`\\ s compare array by array with
``np.array_equal`` — never tolerance-based.  Noise is enabled throughout
so the per-frame temporal-noise seeds are observable: any mode that
perturbed a frame's random stream (e.g. by pooling a frame the policy
then reused, advancing its readout counter) fails loudly here.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HiRISEConfig, HiRISEPipeline, prepare_rois
from repro.sensor import NoiseModel
from repro.service import (
    DETECTORS,
    POLICIES,
    SOURCES,
    ComponentRef,
    Engine,
    EngineCache,
    ScenarioSpec,
    SystemSpec,
)
from repro.stream import (
    FrameStats,
    KeyframeReuse,
    StreamOutcome,
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
        # Each ROI describes its crop, and D1(P->S) books one descriptor
        # per window read, on stage-1 and reused frames alike.
        assert len(a.rois) == len(a.roi_crops)
        assert all(
            crop.shape[:2] == (roi.h, roi.w) for roi, crop in zip(a.rois, a.roi_crops)
        )
        assert a.ledger.stage1_p2s == 8 * len(a.rois)


def oracle_stream(pipeline, policy, frames, frame_seeds=None, on_frame=None):
    """The per-frame reference: a plain loop over the pipeline's two calls."""
    if policy is not None:
        policy.reset()
    stream = StreamOutcome(system="hirise")
    seeds = range(len(frames)) if frame_seeds is None else frame_seeds
    for idx, (frame, seed) in enumerate(zip(frames, seeds, strict=True)):
        if on_frame is not None:
            on_frame(idx)
        decision = None if policy is None else policy.propose()
        if decision is not None and decision.reuse:
            result = pipeline.run_stage2_only(frame, decision.rois, frame_seed=seed)
            stats = FrameStats.from_outcome(
                idx, result, ran_stage1=False, reused_rois=True,
                reason=decision.reason,
            )
        else:
            result = pipeline.run(frame, frame_seed=seed)
            if policy is not None:
                policy.observe(result.rois)
            stats = FrameStats.from_outcome(
                idx, result, ran_stage1=True,
                reason="" if decision is None else decision.reason,
            )
        stream.append(stats, result)
    return stream


# -- runner level: hypothesis drives the (window, policy, clip, seeds) grid --------

POLICY_NAMES = ("none", "temporal", "keyframe")


def _policy(name: str):
    # interval=3 lets keyframe grants fire on clips as short as four frames.
    return {
        "none": None,
        "temporal": TemporalROIReuse(),
        "keyframe": KeyframeReuse(interval=3),
    }[name]


@lru_cache(maxsize=16)
def _clip(n_frames: int, seed: int, speed: float = 2.0, **params):
    # speed=0.0 holds the walkers still, the friendliest case for reuse —
    # on tiny clips it is what lets grants actually fire inside a window
    # (moving walkers stay "unstable" for longer than the clip).
    params = {"resolution": (64, 48), **params}
    return pedestrian_clip(n_frames=n_frames, seed=seed, speed=speed, **params)


def _pipeline(clip):
    detect, on_frame = ground_truth_detector(clip)
    pipeline = HiRISEPipeline(
        detector=detect,
        config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05),
        noise=NOISE,
    )
    return pipeline, on_frame


#: How the runner receives a clip's frames.  Its own checked sequence
#: is bound without a second range check; a list of the same arrays or a
#: generator is checked frame by frame.  Both paths must match the oracle.
FRAMES_AS = {
    "clip": lambda frames: frames,
    "list": list,
    "generator": lambda frames: (frame for frame in frames),
}


def _run(clip, *, window: int, policy: str, frame_seeds, frames_as="clip") -> object:
    pipeline, on_frame = _pipeline(clip)
    runner = StreamRunner(
        pipeline, reuse=_policy(policy), window=window, keep_outcomes=True
    )
    frames = FRAMES_AS[frames_as](clip.frames)
    return runner.run(frames, frame_seeds=frame_seeds, on_frame=on_frame)


def _oracle(clip, *, policy: str, frame_seeds) -> object:
    pipeline, on_frame = _pipeline(clip)
    return oracle_stream(
        pipeline, _policy(policy), clip.frames, frame_seeds, on_frame
    )


class TestRunnerWindowEquivalence:
    @given(
        n_frames=st.integers(1, 7),
        window=st.integers(1, 9),
        clip_seed=st.integers(0, 3),
        policy=st.sampled_from(POLICY_NAMES),
        speed=st.sampled_from([0.0, 2.0]),
        seed_base=st.none() | st.integers(0, 1000),
        frames_as=st.sampled_from(list(FRAMES_AS)),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_window_matches_per_frame_oracle(
        self, n_frames, window, clip_seed, policy, speed, seed_base, frames_as
    ):
        """For any (clip, seeds, policy, window, frames_as): runner ==
        per-frame loop."""
        clip = _clip(n_frames, clip_seed, speed)
        frame_seeds = (
            None
            if seed_base is None
            else [seed_base + 13 * i for i in range(n_frames)]
        )
        oracle = _oracle(clip, policy=policy, frame_seeds=frame_seeds)
        got = _run(
            clip,
            window=window,
            policy=policy,
            frame_seeds=frame_seeds,
            frames_as=frames_as,
        )
        assert_streams_equal(got, oracle)

    def test_reuse_actually_exercised(self):
        """The grid is non-vacuous: reuse grants fire on the static clip."""
        for policy in ("temporal", "keyframe"):
            outcome = _run(
                _clip(7, 0, 0.0), window=4, policy=policy, frame_seeds=None
            )
            assert sum(f.reused_rois for f in outcome.frames) > 0, policy
            assert sum(f.ran_stage1 for f in outcome.frames) < len(outcome.frames)

    def test_partial_tail_window(self):
        """A stream whose length is not a window multiple flushes a short
        tail through the same preallocated buffer."""
        clip = _clip(7, 1)
        oracle = _oracle(clip, policy="none", frame_seeds=None)
        got = _run(clip, window=5, policy="none", frame_seeds=None)
        assert_streams_equal(got, oracle)

    @pytest.mark.parametrize("policy, clip_seed", [("temporal", 6), ("keyframe", 3)])
    def test_nested_predicted_windows(self, policy, clip_seed):
        """Crowded 320x240 clips, where a reused frame's predicted windows
        nest and the selection encoder drops the contained one: the runner
        reads exactly the windows the per-frame loop reads."""
        clip = _clip(12, clip_seed, resolution=(320, 240), n_walkers=10)
        reuse = _policy(policy)
        proposed, propose = [], reuse.propose

        def recording_propose():
            proposed.append(propose())
            return proposed[-1]

        reuse.propose = recording_propose
        pipeline, on_frame = _pipeline(clip)
        oracle = oracle_stream(pipeline, reuse, clip.frames, on_frame=on_frame)

        def windows(rois, drop_contained):
            return prepare_rois(rois, 320, 240, drop_contained=drop_contained)

        # The case covers nesting only while some reused frame has a
        # contained window for prepare_rois to drop.
        assert any(
            len(windows(d.rois, True)) < len(windows(d.rois, False))
            for d in proposed
            if d.reuse
        )
        for window in (1, 5, 12):
            got = _run(clip, window=window, policy=policy, frame_seeds=None)
            assert_streams_equal(got, oracle)

    def test_buffer_reuse_across_runs(self):
        """Back-to-back runs on one runner (buffer already warm) stay
        bit-identical to a fresh runner."""
        clip = _clip(6, 2)
        pipeline, on_frame = _pipeline(clip)
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
SOURCE_REFS = {
    "pedestrian": ComponentRef("pedestrian", {"resolution": [96, 64]}),
    "drone": ComponentRef("drone", {"resolution": [96, 64]}),
}
POLICY_REFS = ["none", "temporal-reuse", "keyframe"]


def scenario(source: str, policy: str, window: int, seed: int = 3) -> ScenarioSpec:
    return ScenarioSpec(
        source=SOURCE_REFS[source],
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
def oracles():
    """Per-frame references built from the same registered components as
    the engine, one per (source, policy, seed) cell."""
    cells = {}
    for source, ref in SOURCE_REFS.items():
        for policy in POLICY_REFS:
            for seed in (3, 11):
                clip = SOURCES.get(source)(N_FRAMES, seed, **dict(ref.params))
                detect, on_frame = DETECTORS.get("ground-truth")(clip, label="person")
                pipeline = HiRISEPipeline(
                    detector=detect, config=SYSTEM.config, noise=SYSTEM.noise
                )
                cells[source, policy, seed] = oracle_stream(
                    pipeline, POLICIES.get(policy)(), clip.frames, on_frame=on_frame
                )
    return cells


class TestEngineWindowEquivalence:
    # ISSUE acceptance grid: window sizes {1, 4, full clip}.
    @pytest.mark.parametrize("window", [1, 4, N_FRAMES])
    @pytest.mark.parametrize("policy", POLICY_REFS)
    @pytest.mark.parametrize("source", list(SOURCE_REFS))
    def test_windowed_scenarios_match_oracle(
        self, engine, oracles, window, policy, source
    ):
        for seed in (3, 11):
            got = engine.run(scenario(source, policy, window, seed)).outcome
            oracle = oracles[source, policy, seed]
            assert got.system == oracle.system
            assert got.frames == oracle.frames

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_executors_preserve_windowed_identity(self, engine, oracles, executor):
        """The full windowed grid through each batch executor."""
        requests = [
            scenario(source, policy, window)
            for source in SOURCE_REFS
            for policy in POLICY_REFS
            for window in (1, 4, N_FRAMES)
        ]
        fresh = Engine(SYSTEM, cache=EngineCache.disabled())
        batch = fresh.run_batch(requests, workers=2, executor=executor)
        assert len(batch) == len(requests)
        for request, result in zip(requests, batch):
            oracle = oracles[request.source.name, request.policy.name, 3]
            assert result.outcome.frames == oracle.frames
