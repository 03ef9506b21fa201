"""Tests for the content-addressed cache layer: keys, tiers, stats."""

import json
import pickle
import threading

import numpy as np
import pytest

from repro.core import HiRISEConfig
from repro.service import (
    ComponentRef,
    Engine,
    EngineCache,
    ScenarioSpec,
    SystemSpec,
    spec_fingerprint,
)
from repro.service.cache import (
    SpecCache,
    TierStats,
    clip_key,
    clip_nbytes,
    pickled_nbytes,
    result_key,
)

SYSTEM = SystemSpec(
    config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05, max_rois=8),
    detector=ComponentRef("ground-truth", {"label": "person"}),
)


def scenario(**kwargs) -> ScenarioSpec:
    defaults = dict(
        source=ComponentRef("pedestrian", {"resolution": [96, 64]}),
        n_frames=3,
        seed=4,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestFingerprints:
    def test_stable_across_to_dict_round_trips(self):
        spec = scenario(policy=ComponentRef("temporal-reuse", {"max_reuse": 2}))
        round_tripped = ScenarioSpec.from_dict(spec.to_dict())
        assert spec_fingerprint(spec.to_dict()) == spec_fingerprint(
            round_tripped.to_dict()
        )
        system = SystemSpec.from_dict(SYSTEM.to_dict())
        assert spec_fingerprint(SYSTEM.to_dict()) == spec_fingerprint(
            system.to_dict()
        )

    def test_stable_across_json_key_order(self):
        payload = scenario().to_dict()
        shuffled = json.loads(json.dumps(payload, sort_keys=True))
        reversed_keys = dict(reversed(list(payload.items())))
        assert spec_fingerprint(payload) == spec_fingerprint(shuffled)
        assert spec_fingerprint(payload) == spec_fingerprint(reversed_keys)

    def test_different_specs_different_fingerprints(self):
        assert spec_fingerprint(scenario().to_dict()) != spec_fingerprint(
            scenario(seed=5).to_dict()
        )

    def test_uncanonicalizable_payload_is_uncacheable(self):
        assert spec_fingerprint({"n": np.int64(3)}) is None
        assert spec_fingerprint({"s": {1, 2}}) is None

    def test_clip_key_ignores_policy_and_labels(self):
        base = scenario()
        assert clip_key(base) == clip_key(
            scenario(name="renamed", policy=ComponentRef("temporal-reuse"),
                     keep_outcomes=True)
        )
        assert clip_key(base) != clip_key(scenario(seed=9))
        assert clip_key(base) != clip_key(scenario(n_frames=4))
        assert (
            clip_key(base)
            != clip_key(scenario(source=ComponentRef("pedestrian",
                                                     {"resolution": [128, 96]})))
        )

    def test_result_key_covers_system_and_scenario(self):
        other_system = SystemSpec(
            config=HiRISEConfig(pool_k=2), detector=SYSTEM.detector
        )
        assert result_key(SYSTEM, scenario()) != result_key(
            other_system, scenario()
        )
        assert result_key(SYSTEM, scenario()) != result_key(
            SYSTEM, scenario(keep_outcomes=True)
        )
        assert result_key(SYSTEM, scenario()) == result_key(
            SystemSpec.from_dict(SYSTEM.to_dict()),
            ScenarioSpec.from_dict(scenario().to_dict()),
        )


class TestSpecCache:
    def test_hit_miss_accounting(self):
        cache = SpecCache("clip", capacity=4)
        built = []
        for _ in range(3):
            cache.get_or_build("k", lambda: built.append(1) or "v")
        assert built == [1]
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_lru_eviction_counts(self):
        cache = SpecCache("clip", capacity=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("a", lambda: 1)  # refresh a; b is now oldest
        cache.get_or_build("c", lambda: 3)  # evicts b
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        rebuilt = []
        cache.get_or_build("b", lambda: rebuilt.append(1) or 2)
        assert rebuilt == [1]  # b was really gone
        cache.get_or_build("c", lambda: pytest.fail("c must have survived"))

    def test_capacity_zero_disables_tier(self):
        cache = SpecCache("result", capacity=0)
        built = []
        for _ in range(2):
            cache.get_or_build("k", lambda: built.append(1) or "v")
        assert built == [1, 1]
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert len(cache) == 0

    def test_none_key_bypasses(self):
        cache = SpecCache("clip", capacity=4)
        built = []
        for _ in range(2):
            cache.get_or_build(None, lambda: built.append(1) or "v")
        assert built == [1, 1]
        assert len(cache) == 0

    def test_single_flight_under_threads(self):
        cache = SpecCache("clip", capacity=4)
        built = []
        gate = threading.Event()

        def build():
            gate.wait(timeout=5)
            built.append(1)
            return "v"

        threads = [
            threading.Thread(target=cache.get_or_build, args=("k", build))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert built == [1]
        assert cache.stats.misses == 1
        assert cache.stats.hits == 3

    def test_failed_build_not_cached(self):
        cache = SpecCache("clip", capacity=4)
        with pytest.raises(RuntimeError, match="boom"):
            cache.get_or_build("k", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert cache.get_or_build("k", lambda: "recovered") == "recovered"

    def test_merge_stats_folds_worker_counters(self):
        """Process workers count in their own copy; the parent folds each
        worker's counters into its tier and into the caller's delta."""
        cache = SpecCache("clip", capacity=4)
        delta = TierStats()
        cache.merge_stats(TierStats(hits=2, misses=1, evictions=0), delta)
        cache.merge_stats(TierStats(hits=1, misses=0, evictions=1))
        assert cache.stats == TierStats(hits=3, misses=1, evictions=1)
        assert delta == TierStats(hits=2, misses=1, evictions=0)

    def test_peek_and_put(self):
        cache = SpecCache("result", capacity=2)
        hit, value = cache.peek("k")
        assert (hit, value) == (False, None)
        cache.put("k", "v")
        hit, value = cache.peek("k")
        assert (hit, value) == (True, "v")
        cache.put("l", 1)
        cache.put("m", 2)  # evicts k
        assert cache.peek("k") == (False, None)
        assert cache.stats.evictions == 1

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            SpecCache("clip", capacity=-1)


class TestTierStats:
    def test_delta_and_merge(self):
        a = TierStats(hits=5, misses=3, evictions=1)
        b = TierStats(hits=2, misses=1, evictions=0)
        assert a - b == TierStats(hits=3, misses=2, evictions=1)
        b.merge(a)
        assert b == TierStats(hits=7, misses=4, evictions=1)
        assert "hit" in a.describe()

    def test_entry_sizes_are_gauges_never_errors(self):
        """A tier weighs clips by their frame buffers and results by their
        pickled bytes; a value without either weighs 0 and never raises."""
        from repro.stream import pedestrian_clip

        clip = pedestrian_clip(n_frames=2, resolution=(32, 24))
        assert clip_nbytes(clip) == clip.nbytes > 0
        assert clip_nbytes(object()) == 0
        row = {"frames": [1, 2, 3]}
        assert pickled_nbytes(row) == len(pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL))
        assert pickled_nbytes(threading.Lock()) == 0


class TestEngineCaching:
    def test_cached_result_bit_identical_to_fresh(self):
        request = scenario(keep_outcomes=True)
        fresh = Engine(SYSTEM, cache=EngineCache.disabled()).run(request)
        engine = Engine(SYSTEM)
        first = engine.run(request)
        cached = engine.run(request)
        assert cached is first  # served from the result tier
        assert cached.outcome.frames == fresh.outcome.frames
        for a, b in zip(cached.outcome.outcomes, fresh.outcome.outcomes):
            assert np.array_equal(a.stage1_image, b.stage1_image)
            for ca, cb in zip(a.roi_crops, b.roi_crops):
                assert np.array_equal(ca, cb)

    def test_batch_surfaces_cache_delta(self):
        engine = Engine(SYSTEM)
        requests = [scenario(), scenario(policy=ComponentRef("temporal-reuse"))]
        cold = engine.run_batch(requests, workers=1)
        assert cold.cache is not None
        assert cold.cache.results.misses == 2
        assert cold.cache.results.hits == 0
        assert cold.cache.clips.misses == 1  # one shared clip rendered
        assert cold.cache.clips.hits == 1
        warm = engine.run_batch(requests, workers=1)
        assert warm.cache.results.hits == 2
        assert warm.cache.results.misses == 0
        assert warm.cache.clips.lookups == 0  # results short-circuit clips
        assert [r.outcome.frames for r in warm] == [
            r.outcome.frames for r in cold
        ]
        assert "cache:" in warm.report()

    def test_duplicate_requests_in_one_batch_share(self):
        engine = Engine(SYSTEM)
        batch = engine.run_batch([scenario(), scenario()], workers=1)
        assert batch.cache.results.misses == 1
        assert batch.cache.results.hits == 1
        assert batch[0].outcome.frames == batch[1].outcome.frames

    def test_eviction_surfaces_in_batch_stats(self):
        engine = Engine(
            SYSTEM, cache=EngineCache(clip_capacity=8, result_capacity=1)
        )
        batch = engine.run_batch(
            [scenario(), scenario(seed=5), scenario(seed=6)], workers=1
        )
        assert batch.cache.results.evictions == 2

    def test_disabled_cache_recomputes(self):
        engine = Engine(SYSTEM, cache=EngineCache.disabled())
        a = engine.run(scenario())
        b = engine.run(scenario())
        assert a is not b
        assert a.outcome.frames == b.outcome.frames

    def test_component_override_invalidates_caches(self):
        # the registry's documented override hatch (del + re-register) is
        # the one way an existing spec can change meaning; the cache must
        # not serve the old implementation's results across it
        from repro.service import register_detector
        from repro.service.registry import DETECTORS

        request = scenario()

        @register_detector("test-override")
        def _noisy(clip, **params):
            return (lambda frame: []), None

        try:
            engine = Engine(SystemSpec(detector=ComponentRef("test-override")))
            before = engine.run(request)
            assert all(f.n_rois == 0 for f in before.outcome.frames)
            del DETECTORS["test-override"]

            @register_detector("test-override")
            def _replacement(clip, **params):
                from repro.stream import ground_truth_detector

                return ground_truth_detector(clip)

            after = engine.run(request)
            assert after is not before
            assert any(f.n_rois > 0 for f in after.outcome.frames)
        finally:
            del DETECTORS["test-override"]

    def test_uncacheable_params_still_served(self):
        engine = Engine(SYSTEM)
        request = scenario(
            source=ComponentRef(
                "pedestrian", {"resolution": [96, 64], "n_walkers": np.int64(2)}
            )
        )
        fresh = Engine(SYSTEM, cache=EngineCache.disabled()).run(request)
        a = engine.run(request)
        b = engine.run(request)
        assert a is not b  # never memoized
        assert a.outcome.frames == fresh.outcome.frames


class TestComputeDtypeKeys:
    """A float32 result must never be served for a float64 request."""

    def test_system_fingerprint_folds_compute_dtype(self):
        f64 = SystemSpec(config=SYSTEM.config, detector=SYSTEM.detector)
        f32 = SystemSpec(
            config=SYSTEM.config, detector=SYSTEM.detector, compute_dtype="float32"
        )
        assert spec_fingerprint(f64.to_dict()) != spec_fingerprint(f32.to_dict())

    def test_result_keys_differ_by_dtype(self):
        request = scenario()
        f64 = SystemSpec(config=SYSTEM.config, detector=SYSTEM.detector)
        f32 = SystemSpec(
            config=SYSTEM.config, detector=SYSTEM.detector, compute_dtype="float32"
        )
        key64 = result_key(f64, request)
        key32 = result_key(f32, request)
        assert key64 is not None and key32 is not None
        assert key64 != key32

    def test_engine_result_keys_differ_by_dtype(self):
        request = scenario()
        e64 = Engine(SystemSpec(config=SYSTEM.config, detector=SYSTEM.detector))
        e32 = Engine(
            SystemSpec(
                config=SYSTEM.config,
                detector=SYSTEM.detector,
                compute_dtype="float32",
            )
        )
        assert e64.result_key_for(request) != e32.result_key_for(request)

    def test_clip_key_ignores_dtype(self):
        # The rendered pixels don't depend on the compute dtype: the clip
        # tier may (and should) share across dtype modes.
        assert clip_key(scenario()) == clip_key(scenario())
