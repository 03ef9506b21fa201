"""FaultInjector: live firing, counters, fuses, and env activation."""

import json

import pytest

from repro.faults import (
    ENV_PLAN,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    InjectedFault,
    as_injector,
    deactivate,
    default_injector,
    install,
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
    @pytest.fixture(autouse=True)
    def _clean_slate(self, monkeypatch):
        monkeypatch.delenv(ENV_PLAN, raising=False)
        deactivate()
        yield
        deactivate()

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
        # inline JSON string, same convention as the env hatch / CLI flag
        assert as_injector(json.dumps(plan.to_dict())).plan == plan
        with pytest.raises(FaultPlanError, match="inline JSON"):
            as_injector("{not json")
        with pytest.raises(TypeError, match="faults"):
            as_injector(42)

    def test_install_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENV_PLAN, json.dumps(plan_with().to_dict()))
        installed = install(plan_with(seed=99))
        assert default_injector() is installed
        deactivate()
        assert default_injector().plan.seed == 0

    def test_env_inline_json(self, monkeypatch):
        plan = plan_with(FaultSpec(site="store.put", kind="store-io-error", at=(0,)))
        monkeypatch.setenv(ENV_PLAN, json.dumps(plan.to_dict()))
        injector = default_injector()
        assert injector.plan == plan
        # Same raw env value -> the same cached injector (hit counters
        # persist across default_injector() calls).
        assert default_injector() is injector

    def test_env_file_path(self, tmp_path, monkeypatch):
        plan = plan_with(seed=5)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
        monkeypatch.setenv(ENV_PLAN, str(path))
        assert default_injector().plan == plan

    def test_broken_env_plan_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(ENV_PLAN, "{not json")
        with pytest.raises(FaultPlanError, match=ENV_PLAN):
            default_injector()
        monkeypatch.setenv(ENV_PLAN, "/nonexistent/plan.json")
        with pytest.raises(FaultPlanError, match="fault plan"):
            default_injector()

    def test_no_plan_means_dormant(self):
        assert default_injector() is None
