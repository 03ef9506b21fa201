"""Integration tests: process executor x clip transport x disk store."""

from pathlib import Path

import pytest

from repro.core import HiRISEConfig
from repro.faults import FaultPlan, FaultSpec, as_injector
from repro.service import (
    ComponentRef,
    Engine,
    EngineCache,
    ProcessExecutor,
    ScenarioSpec,
    SystemSpec,
)
from repro.service.cache import CacheStats, clip_key
from repro.store import SEGMENT_PREFIX, ArtifactStore

SYSTEM = SystemSpec(
    config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05, max_rois=8),
    detector=ComponentRef("ground-truth", {"label": "person"}),
)

DEV_SHM = Path("/dev/shm")


def segments() -> list[str]:
    if not DEV_SHM.is_dir():
        return []
    return sorted(p.name for p in DEV_SHM.glob(f"{SEGMENT_PREFIX}*"))


def scenario(**kwargs) -> ScenarioSpec:
    defaults = dict(
        source=ComponentRef("pedestrian", {"resolution": [64, 48]}),
        n_frames=2,
        seed=4,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def requests() -> list[ScenarioSpec]:
    # Two scenarios over ONE clip (the transport payload) + a distinct one.
    return [
        scenario(name="a/plain"),
        scenario(name="a/reuse", policy=ComponentRef("temporal-reuse")),
        scenario(name="b/other", seed=9),
    ]


@pytest.fixture(scope="module")
def reference():
    engine = Engine(SYSTEM, cache=EngineCache.disabled())
    return [engine.run(r) for r in requests()]


#: Every ``share_clip`` call fails, so every chunk carries a pickled clip.
NO_SHARE = FaultPlan(
    name="no-share",
    seed=0,
    faults=(FaultSpec("shm.share", "shm-attach-gone", rate=1.0),),
)


def run_with_transport(transport, store=None, warm_clips=True):
    """Run :func:`requests` on a 2-worker pool.  ``"shm"`` shares the
    parent's clips; ``"pickle"`` makes every share fail, so the executor
    falls back to pickling them."""
    faults = NO_SHARE if transport == "pickle" else None
    engine = Engine(SYSTEM, store=store, faults=faults)
    if warm_clips:
        # Render the shared clips into the parent tiers so the executor
        # has something to ship.
        for spec in requests():
            engine.run(spec)
        engine.cache.results.clear()  # force re-dispatch, keep the clips
    delta = CacheStats.zero()
    with ProcessExecutor(workers=2) as pool:
        results = pool.execute(engine, requests(), cache_delta=delta)
    return engine, results, delta


class TestTransports:
    @pytest.mark.parametrize("transport", ("shm", "pickle"))
    def test_bit_identical_and_leak_free(self, transport, reference):
        before = segments()
        engine, results, delta = run_with_transport(transport)
        for result, expected in zip(results, reference):
            assert result.scenario == expected.scenario
            assert result.outcome.frames == expected.outcome.frames
            assert result.outcome.total_bytes == expected.outcome.total_bytes
        if transport == "pickle":
            # Each chunk's clip tried shared memory once, then pickled.
            assert engine.faults.counters() == {"shm.share:shm-attach-gone": 2}
        # Shipped clips mean the workers never re-rendered: the folded-in
        # worker clip stats report hits, not builds.
        assert delta.clips.misses == 0
        # No shared-memory segment outlives the executor.
        assert segments() == before

    def test_shm_transport_without_prewarmed_clips(self, reference):
        # Nothing to ship: workers render from specs, still bit-identical.
        before = segments()
        engine, results, delta = run_with_transport("shm", warm_clips=False)
        for result, expected in zip(results, reference):
            assert result.outcome.frames == expected.outcome.frames
        assert segments() == before


class TestWorkerStore:
    @pytest.fixture(autouse=True)
    def _fresh_registry_epoch(self, monkeypatch):
        # Spawned workers always start at override epoch 0; pin the
        # parent to the same epoch so parent- and worker-written store
        # keys agree even when earlier tests deleted registry names.
        monkeypatch.setattr("repro.service.registry._OVERRIDE_EPOCH", 0)

    def test_worker_renders_and_results_persist(self, tmp_path, reference):
        store_dir = tmp_path / "store"
        engine = Engine(SYSTEM, store=ArtifactStore(store_dir))
        with ProcessExecutor(workers=2) as pool:
            results = pool.execute(engine, requests())
        for result, expected in zip(results, reference):
            assert result.outcome.frames == expected.outcome.frames

        # The parent wrote the results through; the workers wrote their
        # clip renders.  A fresh serial engine on the same root replays
        # everything from disk without recomputing.
        snap = ArtifactStore(store_dir).snapshot()
        assert snap.by_kind["result"]["entries"] == len(requests())
        assert snap.by_kind["clip"]["entries"] == 2  # two distinct clips

        restarted = Engine(SYSTEM, store=ArtifactStore(store_dir))
        for spec, expected in zip(requests(), reference):
            replay = restarted.run(spec)
            assert replay.outcome.frames == expected.outcome.frames
        stats = restarted.cache.stats()
        assert stats.results.disk_hits == len(requests())
        assert stats.results.disk_misses == 0

    def test_worker_store_fires_the_shipped_plan(self, tmp_path, reference):
        # One plan, one injector per process: the parent's store and the
        # workers' stores both fail every write, so a cold batch leaves
        # no object on disk and still serves exact results.
        faults = as_injector(
            FaultPlan(
                name="no-put",
                seed=0,
                faults=(FaultSpec("store.put", "store-io-error", rate=1.0),),
            )
        )
        store_dir = tmp_path / "store"
        engine = Engine(
            SYSTEM, store=ArtifactStore(store_dir, faults=faults), faults=faults
        )
        with ProcessExecutor(workers=2) as pool:
            results = pool.execute(engine, requests())
        for result, expected in zip(results, reference):
            assert result.outcome.frames == expected.outcome.frames
        assert faults.counters()["store.put:store-io-error"] == len(requests())
        assert ArtifactStore(store_dir).snapshot().entries == 0

    def test_restarted_parent_ships_promoted_clips(self, tmp_path, reference):
        store_dir = tmp_path / "store"
        first = Engine(SYSTEM, store=ArtifactStore(store_dir))
        for spec in requests():
            first.run(spec)

        # A fresh parent process: empty memory, populated disk.  Results
        # are served straight from the store — nothing is dispatched and
        # nothing recomputes (the warm-restart invariant under the
        # process executor).
        restarted = Engine(SYSTEM, store=ArtifactStore(store_dir))
        delta = CacheStats.zero()
        before = segments()
        with ProcessExecutor(workers=2) as pool:
            results = pool.execute(restarted, requests(), cache_delta=delta)
        for result, expected in zip(results, reference):
            assert result.outcome.frames == expected.outcome.frames
        assert delta.results.disk_hits == len(requests())
        assert delta.results.disk_misses == 0
        assert segments() == before

    def test_disabled_cache_ignores_store(self, tmp_path, reference):
        store = ArtifactStore(tmp_path / "store")
        engine = Engine(SYSTEM, cache=EngineCache.disabled())
        with ProcessExecutor(workers=2) as pool:
            results = pool.execute(engine, requests())
        for result, expected in zip(results, reference):
            assert result.outcome.frames == expected.outcome.frames
        assert store.snapshot().entries == 0
