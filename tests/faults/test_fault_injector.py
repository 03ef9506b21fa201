"""FaultInjector: live firing, counters, fuses, and ``faults=`` coercion."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
    as_injector,
)


def plan_with(*faults, seed=0, fuse_dir=None):
    return FaultPlan(name="t", seed=seed, faults=faults, fuse_dir=fuse_dir)


class TestFiring:
    def test_at_indices_fire_exactly(self):
        spec = FaultSpec(site="store.load", kind="store-io-error", at=(1, 3))
        injector = FaultInjector(plan_with(spec))
        fired = [injector.fire("store.load") for _ in range(5)]
        assert [f is not None for f in fired] == [False, True, False, True, False]
        assert fired[1].kind == "store-io-error"
        assert injector.hits("store.load") == 5

    def test_live_fires_match_schedule_preview(self):
        # The acceptance invariant: one seed, one schedule — what the
        # injector does live is exactly what the plan previews.
        plan = plan_with(
            FaultSpec(site="server.reply", kind="socket-drop", rate=0.3),
            FaultSpec(site="server.reply", kind="reply-delay", at=(2,)),
            seed=17,
        )
        injector = FaultInjector(plan)
        live = [
            spec.kind if (spec := injector.fire("server.reply")) else None
            for _ in range(100)
        ]
        assert live == plan.schedule("server.reply", 100)

    @settings(deadline=None)
    @given(
        plan=st.builds(
            FaultPlan,
            name=st.just("property"),
            seed=st.integers(0, 2**32),
            faults=st.lists(
                st.builds(
                    FaultSpec,
                    site=st.sampled_from(FAULT_SITES),
                    kind=st.sampled_from(FAULT_KINDS),
                    at=st.lists(st.integers(0, 30), max_size=4).map(tuple),
                    rate=st.just(0.0) | st.floats(0.0, 1.0),
                    limit=st.none() | st.integers(0, 4),
                    scope=st.just("process"),
                ),
                max_size=5,
            ).map(tuple),
        ),
        runs=st.lists(
            st.tuples(st.sampled_from(FAULT_SITES), st.integers(0, 12)),
            max_size=10,
        ),
    )
    def test_hits_split_into_runs_follow_the_schedule(self, plan, runs):
        # One long-lived injector (a process-pool worker's) sees its hits
        # in consecutive runs (one per chunk), sites interleaved; every
        # site's fires are still the plan's preview of that many hits.
        injector = FaultInjector(plan)
        live = {site: [] for site in FAULT_SITES}
        for site, n_hits in runs:
            for _ in range(n_hits):
                spec = injector.fire(site)
                live[site].append(None if spec is None else spec.kind)
        for site, kinds in live.items():
            assert kinds == plan.schedule(site, len(kinds))

    def test_counters_key_site_and_kind(self):
        spec = FaultSpec(site="shm.attach", kind="shm-attach-gone", at=(0, 1))
        injector = FaultInjector(plan_with(spec))
        injector.fire("shm.attach")
        injector.fire("shm.attach")
        assert injector.counters() == {"shm.attach:shm-attach-gone": 2}

    def test_unarmed_site_is_free(self):
        injector = FaultInjector(plan_with())
        assert injector.fire("worker.run") is None
        assert injector.counters() == {}

    def test_from_dict_round_trip(self):
        plan = plan_with(FaultSpec(site="worker.run", kind="worker-crash", at=(0,)))
        rebuilt = FaultInjector(FaultPlan.from_dict(plan.to_dict()))
        assert rebuilt.plan == plan

    def test_injected_fault_is_oserror(self):
        fault = InjectedFault("store.load", "store-io-error")
        assert isinstance(fault, OSError)
        assert fault.site == "store.load"
        assert fault.kind == "store-io-error"
        assert "store.load" in str(fault)


class TestGlobalFuse:
    def test_fuse_fires_once_across_injectors(self, tmp_path):
        spec = FaultSpec(
            site="worker.run", kind="worker-crash", at=(0,), scope="global"
        )
        plan = plan_with(spec, fuse_dir=str(tmp_path / "fuses"))
        first = FaultInjector(plan)
        second = FaultInjector(plan)  # simulates a respawned worker
        assert first.fire("worker.run") is not None
        assert second.fire("worker.run") is None
        assert second.counters() == {}

    def test_fuse_loss_rolls_back_fire_tally(self, tmp_path):
        # Losing hit 0's race must not consume the spec's only fire: a
        # limit=1 spec can still win a later scheduled hit.
        spec = FaultSpec(
            site="worker.run",
            kind="worker-crash",
            at=(0, 1),
            limit=1,
            scope="global",
        )
        plan = plan_with(spec, fuse_dir=str(tmp_path / "fuses"))
        winner = FaultInjector(plan)
        assert winner.fire("worker.run") is not None  # claims hit 0's fuse
        loser = FaultInjector(plan)
        assert loser.fire("worker.run") is None  # hit 0: fuse already burnt
        assert loser.fire("worker.run") is not None  # hit 1: its own fuse

    def test_process_scope_ignores_other_processes(self, tmp_path):
        spec = FaultSpec(site="worker.run", kind="worker-crash", at=(0,))
        plan = plan_with(spec)
        assert FaultInjector(plan).fire("worker.run") is not None
        assert FaultInjector(plan).fire("worker.run") is not None


class TestActivation:
    def test_as_injector_coercions(self, tmp_path):
        plan = plan_with(FaultSpec(site="store.load", kind="store-io-error", at=(0,)))
        assert as_injector(None) is None
        injector = FaultInjector(plan)
        assert as_injector(injector) is injector
        assert as_injector(plan).plan == plan
        assert as_injector(plan.to_dict()).plan == plan
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
        assert as_injector(str(path)).plan == plan
        # inline JSON string, same convention as the --fault-plan flag
        assert as_injector(json.dumps(plan.to_dict())).plan == plan
        with pytest.raises(FaultPlanError, match="inline JSON"):
            as_injector("{not json")
        with pytest.raises(FaultPlanError, match="fault plan"):
            as_injector(str(tmp_path / "missing.json"))
        with pytest.raises(TypeError, match="faults"):
            as_injector(42)
