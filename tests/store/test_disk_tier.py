"""Tests for the cache's persistent tier: fallthrough, promote, spill."""

import pytest

from repro.service import Engine, EngineCache, ScenarioSpec, SystemSpec
from repro.service.cache import SpecCache, TierStats
from repro.store import MISS, ArtifactStore


def build_counter():
    """A build factory that records how many times it really ran."""
    calls = []

    def build():
        calls.append(1)
        return {"value": len(calls)}

    return build, calls


class TestSpecCacheDiskTier:
    def test_miss_builds_and_writes_through(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        cache = SpecCache("result", capacity=4, store=store)
        build, calls = build_counter()
        assert cache.get_or_build("k1", build) == {"value": 1}
        assert calls == [1]
        assert cache.stats.disk_misses == 1
        assert store.load("result", "k1") == {"value": 1}

    def test_fresh_cache_serves_from_disk_without_building(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        SpecCache("result", capacity=4, store=store).get_or_build(
            "k1", lambda: "built once"
        )

        def poisoned():
            raise AssertionError("a disk hit must not rebuild")

        restarted = SpecCache(
            "result", capacity=4, store=ArtifactStore(tmp_path / "store")
        )
        assert restarted.get_or_build("k1", poisoned) == "built once"
        assert restarted.stats.disk_hits == 1
        assert restarted.stats.disk_misses == 0
        # Promoted into memory: the next lookup never touches disk.
        assert restarted.get_or_build("k1", poisoned) == "built once"
        assert restarted.stats.hits == 1
        assert restarted.stats.disk_hits == 1

    def test_peek_falls_through_to_disk_and_promotes(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("result", "k1", "from disk")
        cache = SpecCache("result", capacity=4, store=store)
        writes_before = store.snapshot().writes
        hit, value = cache.peek("k1")
        assert (hit, value) == (True, "from disk")
        assert cache.stats.disk_hits == 1
        # Promotion must not rewrite the object it just read.
        assert store.snapshot().writes == writes_before
        hit, value = cache.peek("k1")
        assert (hit, value) == (True, "from disk")
        assert cache.stats.hits == 1

    def test_peek_disk_miss_stays_a_miss(self, tmp_path):
        cache = SpecCache(
            "result", capacity=4, store=ArtifactStore(tmp_path / "store")
        )
        assert cache.peek("absent") == (False, None)
        assert cache.stats.disk_misses == 1

    def test_eviction_spills_to_disk(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        cache = SpecCache("result", capacity=1, store=store)
        cache.put("k1", "first")
        cache.put("k2", "second")  # evicts k1 from memory
        assert cache.stats.evictions == 1
        assert len(cache) == 1
        # The evicted value survives on disk and promotes back on demand.
        assert store.load("result", "k1") == "first"
        hit, value = cache.peek("k1")
        assert (hit, value) == (True, "first")

    def test_put_writes_through(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        cache = SpecCache("result", capacity=4, store=store)
        cache.put("k1", "worker built this")
        assert store.load("result", "k1") == "worker built this"

    def test_get_cached_promote(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("result", "k1", "on disk")
        cache = SpecCache("result", capacity=4, store=store)
        assert cache.get_cached("k1") is None  # quiet: memory only
        assert cache.get_cached("k1", promote=True) == "on disk"
        assert cache.get_cached("k1") == "on disk"  # promoted
        # get_cached counts nothing on the tier.
        assert cache.stats.lookups == 0

    def test_capacity_zero_disables_disk_tier_too(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("result", "k1", "must not be read")
        cache = SpecCache("result", capacity=0, store=store)
        build, calls = build_counter()
        assert cache.get_or_build("k1", build) == {"value": 1}
        assert calls == [1]
        assert cache.stats.disk_hits == 0
        assert cache.stats.disk_misses == 0
        assert store.snapshot().hits == 0  # never consulted
        assert store.load("result", "k2") is MISS  # and never written
        assert cache.peek("k1") == (False, None)

    def test_corrupted_file_degrades_to_rebuild(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = SpecCache("result", capacity=4, store=store)
        first.get_or_build("k1", lambda: "original")
        path = store._path("result", "k1")
        path.write_bytes(path.read_bytes()[:-4])

        restarted = SpecCache(
            "result", capacity=4, store=ArtifactStore(tmp_path / "store")
        )
        build, calls = build_counter()
        assert restarted.get_or_build("k1", build) == {"value": 1}
        assert calls == [1]  # quietly rebuilt
        assert restarted.stats.disk_misses == 1
        # ... and the rebuild was written back.
        assert ArtifactStore(tmp_path / "store").load("result", "k1") == {
            "value": 1
        }

    def test_failed_build_leaves_disk_untouched(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        cache = SpecCache("result", capacity=4, store=store)
        with pytest.raises(RuntimeError, match="boom"):
            cache.get_or_build("k1", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert store.load("result", "k1") is MISS
        # The key is retryable afterwards.
        assert cache.get_or_build("k1", lambda: "ok") == "ok"
        assert store.load("result", "k1") == "ok"

    def test_delta_counts_disk_traffic(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put("result", "hit", "x")
        cache = SpecCache("result", capacity=4, store=store)
        delta = TierStats()
        cache.get_or_build("hit", lambda: "never", delta=delta)
        cache.get_or_build("miss", lambda: "built", delta=delta)
        assert (delta.disk_hits, delta.disk_misses) == (1, 1)
        assert delta.misses == 2

    def test_describe_mentions_disk_only_when_used(self):
        stats = TierStats(hits=1, misses=2)
        assert "disk" not in stats.describe()
        stats.disk_hits = 3
        assert "disk: 3 hit(s) / 0 miss(es)" in stats.describe()


class TestSizes:
    def test_sizes_track_content_bytes(self, tmp_path):
        cache = SpecCache("result", capacity=4, sizer=len)
        assert cache.sizes() == (0, 0)
        cache.put("a", "xxxx")
        cache.put("b", "yy")
        assert cache.sizes() == (2, 6)
        cache.clear()
        assert cache.sizes() == (0, 0)

    def test_engine_cache_sizes_shape(self):
        cache = EngineCache()
        sizes = cache.sizes()
        assert set(sizes) == {"clips", "results"}
        assert sizes["clips"] == {"entries": 0, "bytes": 0}

    def test_engine_cache_sizes_count_clip_bytes(self):
        engine = Engine(SystemSpec())
        engine.run(
            ScenarioSpec.from_dict(
                {
                    "source": {
                        "name": "pedestrian",
                        "params": {"resolution": [64, 48]},
                    },
                    "n_frames": 2,
                    "seed": 4,
                }
            )
        )
        sizes = engine.cache.sizes()
        assert sizes["clips"]["entries"] == 1
        assert sizes["clips"]["bytes"] == 2 * 48 * 64 * 3 * 8
        assert sizes["results"]["entries"] == 1
        assert sizes["results"]["bytes"] > 0


class TestEngineWarmRestart:
    SCENARIO = {
        "source": {"name": "pedestrian", "params": {"resolution": [64, 48]}},
        "n_frames": 2,
        "seed": 4,
    }

    def test_engine_restart_serves_bit_identical_from_disk(self, tmp_path):
        scenario = ScenarioSpec.from_dict(self.SCENARIO)
        first = Engine(SystemSpec(), store=ArtifactStore(tmp_path / "store"))
        original = first.run(scenario)

        # A fresh process: new engine, new store handle, same root.
        restarted = Engine(SystemSpec(), store=ArtifactStore(tmp_path / "store"))
        replayed = restarted.run(scenario)
        stats = restarted.cache.stats()
        assert stats.results.disk_hits == 1
        assert stats.results.disk_misses == 0
        assert stats.clips.disk_misses == 0  # result hit short-circuits render
        assert replayed.outcome.frames == original.outcome.frames
        assert replayed.outcome.total_bytes == original.outcome.total_bytes
        assert replayed.outcome.total_energy_j == original.outcome.total_energy_j

    def test_streaming_replay_from_disk(self, tmp_path):
        scenario = ScenarioSpec.from_dict(self.SCENARIO)
        first = Engine(SystemSpec(), store=ArtifactStore(tmp_path / "store"))
        original = first.run(scenario)

        restarted = Engine(SystemSpec(), store=ArtifactStore(tmp_path / "store"))
        streamed = []
        replayed = restarted.run(scenario, on_stats=streamed.append)
        assert streamed == list(original.outcome.frames)
        assert replayed.outcome.frames == original.outcome.frames
        assert restarted.cache.stats().results.disk_misses == 0

    def test_no_store_means_no_disk_counters(self):
        engine = Engine(SystemSpec())
        engine.run(ScenarioSpec.from_dict(self.SCENARIO))
        stats = engine.cache.stats()
        assert stats.results.disk_hits == 0
        assert stats.results.disk_misses == 0
