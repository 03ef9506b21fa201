"""Worker crash mid-stream: the request re-dispatches bit-identically.

A windowed runner binds a window of frames, then serves them one at a
time: each frame is exposed by the read that asks for it, and stage-1
frames share the runner's one exposure buffer.  When a worker dies with
a windowed request in flight, the request goes to a respawned worker,
whose fresh runner serves it again from frame 0.  Every frame —
including reuse decisions whose history spans window boundaries — must
come out exactly as in a fault-free serial run.
"""

import pytest

from repro.core import HiRISEConfig
from repro.faults import FaultPlan, FaultSpec
from repro.service import (
    ComponentRef,
    Engine,
    EngineCache,
    ProcessExecutor,
    ScenarioSpec,
    SystemSpec,
)

SYSTEM = SystemSpec(
    config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05, max_rois=8),
    detector=ComponentRef("ground-truth", {"label": "person"}),
)


def scenario(**kwargs) -> ScenarioSpec:
    defaults = dict(
        source=ComponentRef("pedestrian", {"resolution": [64, 48]}),
        n_frames=6,
        seed=4,
        window=4,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def requests() -> list[ScenarioSpec]:
    return [
        scenario(name="win/a"),
        scenario(name="win/b", seed=9, window=6),
        scenario(name="win/c", seed=11, window=2),
        scenario(
            name="win/d",
            policy=ComponentRef("temporal-reuse"),
            window=4,
            source=ComponentRef(
                "pedestrian", {"resolution": [64, 48], "speed": 0.0}
            ),
        ),
    ]


def crash_plan(fuse_dir, *hits) -> FaultPlan:
    """Worker crash at the given worker.run hits, once across all workers."""
    return FaultPlan(
        name="window-crash",
        seed=7,
        faults=(
            FaultSpec(
                site="worker.run", kind="worker-crash", at=hits, scope="global"
            ),
        ),
        fuse_dir=str(fuse_dir),
    )


class TestWindowedCrashRecovery:
    def test_crash_mid_window_redispatches_whole_window(self, tmp_path):
        """The crash lands while a windowed scenario is in flight; the
        respawned worker replays it from frame 0 and every recovered
        outcome — windowed, full-clip window, reuse-composed — matches
        the fault-free serial reference bit for bit."""
        reference_engine = Engine(SYSTEM, cache=EngineCache.disabled())
        reference = [reference_engine.run(r) for r in requests()]
        engine = Engine(
            SYSTEM,
            cache=EngineCache.disabled(),
            faults=crash_plan(tmp_path / "fuses", 1),
        )
        with ProcessExecutor(workers=2) as pool:
            batch = engine.run_batch(requests(), executor=pool)
            stats = pool.resilience_stats()
        assert stats["respawns"] >= 1
        assert stats["redispatched_units"] >= 1
        for got, want in zip(batch, reference):
            assert got.scenario == want.scenario
            assert got.outcome.frames == want.outcome.frames

    def test_reuse_grants_survive_recovery(self, tmp_path):
        """The reuse-composed windowed scenario actually reuses frames,
        and the recovered run reproduces the same grants."""
        reused = scenario(
            name="win/reused",
            policy=ComponentRef("temporal-reuse"),
            window=4,
            source=ComponentRef(
                "pedestrian", {"resolution": [64, 48], "speed": 0.0}
            ),
        )
        reference = Engine(SYSTEM, cache=EngineCache.disabled()).run(reused)
        assert reference.outcome.reused_frames > 0
        engine = Engine(
            SYSTEM,
            cache=EngineCache.disabled(),
            faults=crash_plan(tmp_path / "fuses", 0),
        )
        with ProcessExecutor(workers=1) as pool:
            batch = engine.run_batch([reused], executor=pool)
            stats = pool.resilience_stats()
        assert stats["respawns"] >= 1
        assert batch[0].outcome.frames == reference.outcome.frames
        assert (
            batch[0].outcome.reused_frames == reference.outcome.reused_frames
        )
