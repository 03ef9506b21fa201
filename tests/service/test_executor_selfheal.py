"""Self-healing ProcessExecutor: crash recovery, retry budget, counters."""

import pytest

from repro.core import HiRISEConfig
from repro.faults import FaultPlan, FaultSpec
from repro.service import (
    ComponentRef,
    Engine,
    EngineCache,
    ProcessExecutor,
    ScenarioSpec,
    SpecError,
    SystemSpec,
    WorkUnitRetryError,
)

SYSTEM = SystemSpec(
    config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05, max_rois=8),
    detector=ComponentRef("ground-truth", {"label": "person"}),
)


def scenario(**kwargs) -> ScenarioSpec:
    defaults = dict(
        source=ComponentRef("pedestrian", {"resolution": [64, 48]}),
        n_frames=2,
        seed=4,
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def requests() -> list[ScenarioSpec]:
    return [
        scenario(name="heal/a"),
        scenario(name="heal/b", seed=9),
        scenario(name="heal/c", seed=11),
        scenario(name="heal/d", policy=ComponentRef("temporal-reuse")),
    ]


def crash_plan(fuse_dir, *hits) -> FaultPlan:
    """Worker crash at the given worker.run hits, once across all workers."""
    return FaultPlan(
        name="crash",
        seed=7,
        faults=(
            FaultSpec(
                site="worker.run", kind="worker-crash", at=hits, scope="global"
            ),
        ),
        fuse_dir=str(fuse_dir),
    )


class TestSelfHealing:
    def test_crash_recovery_is_bit_identical(self, tmp_path):
        # One worker takes a hard os._exit mid-batch; the pool respawns,
        # the chunk is re-dispatched, and the results match a fault-free
        # serial run bit for bit.
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

    def test_retry_budget_exhaustion_names_the_unit(self, tmp_path):
        # Process-scope crash at hit 0 fires in every freshly spawned
        # worker, so each re-dispatch dies the same way until the budget
        # runs out.
        plan = FaultPlan(
            name="always-crash",
            seed=0,
            faults=(
                FaultSpec(site="worker.run", kind="worker-crash", at=(0,)),
            ),
        )
        engine = Engine(SYSTEM, cache=EngineCache.disabled(), faults=plan)
        with ProcessExecutor(workers=1, max_unit_retries=1) as pool:
            with pytest.raises(WorkUnitRetryError) as excinfo:
                engine.run_batch([scenario(name="doomed")], executor=pool)
        error = excinfo.value
        assert tuple(error.labels) == ("doomed",)
        assert error.attempts == 2
        assert "doomed" in str(error)
        assert "retry budget exhausted" in str(error)

    def test_process_scope_hits_count_per_process(self):
        # A worker keeps one injector for its whole life, so hit 1 of a
        # process-scope crash lands on the second one-scenario batch the
        # worker serves; the respawned worker starts again at hit 0.
        plan = FaultPlan(
            name="second-unit",
            seed=0,
            faults=(
                FaultSpec(site="worker.run", kind="worker-crash", at=(1,)),
            ),
        )
        specs = [scenario(name=f"life/{seed}", seed=seed) for seed in (4, 9, 11)]
        reference_engine = Engine(SYSTEM, cache=EngineCache.disabled())
        engine = Engine(SYSTEM, cache=EngineCache.disabled(), faults=plan)
        with ProcessExecutor(workers=1) as pool:
            batches = [engine.run_batch([spec], executor=pool) for spec in specs]
            stats = pool.resilience_stats()
        assert stats["respawns"] >= 1
        for batch, spec in zip(batches, specs):
            want = reference_engine.run(spec)
            assert batch[0].scenario == want.scenario
            assert batch[0].outcome.frames == want.outcome.frames

    def test_deterministic_errors_propagate_without_respawn(self):
        # A SpecError is the work's fault, not the worker's: it must
        # surface immediately and never trip the self-healing machinery.
        engine = Engine(SYSTEM)
        bad = [scenario(), scenario(source=ComponentRef("webcam"))]
        with ProcessExecutor(workers=2) as pool:
            with pytest.raises(SpecError, match="webcam"):
                engine.run_batch(bad, executor=pool)
            assert pool.resilience_stats() == {
                "respawns": 0,
                "redispatched_units": 0,
            }

    def test_fault_free_batch_reports_clean_stats(self):
        engine = Engine(SYSTEM, cache=EngineCache.disabled())
        with ProcessExecutor(workers=2) as pool:
            batch = engine.run_batch(requests()[:2], executor=pool)
            assert len(batch) == 2
            assert pool.resilience_stats() == {
                "respawns": 0,
                "redispatched_units": 0,
            }


class TestConstructor:
    def test_negative_retry_budget_rejected(self):
        with pytest.raises(ValueError, match="max_unit_retries"):
            ProcessExecutor(workers=1, max_unit_retries=-1)

    def test_error_carries_labels_and_attempts(self):
        error = WorkUnitRetryError(["a", "b"], 3)
        assert tuple(error.labels) == ("a", "b")
        assert error.attempts == 3
        assert isinstance(error, RuntimeError)
