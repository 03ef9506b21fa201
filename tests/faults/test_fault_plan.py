"""FaultPlan/FaultSpec: validation, exact round-trips, schedules."""

import json

import pytest

from repro.faults import (
    FAULT_KINDS,
    FAULT_SCOPES,
    FAULT_SITES,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    load_fault_plan,
)


def crash_at(*hits, scope="process"):
    return FaultSpec(site="worker.run", kind="worker-crash", at=hits, scope=scope)


def sample_plan(seed=3):
    return FaultPlan(
        name="sample",
        seed=seed,
        faults=(
            crash_at(1),
            FaultSpec(site="store.load", kind="store-io-error", rate=0.5),
            FaultSpec(site="server.reply", kind="reply-delay", at=(0,), delay_s=0.25),
            FaultSpec(site="server.reply", kind="socket-drop", rate=0.2, limit=2),
        ),
    )


class TestValidation:
    def test_known_kinds_and_sites_are_closed_sets(self):
        assert "worker-crash" in FAULT_KINDS
        assert "worker.run" in FAULT_SITES
        assert FAULT_SCOPES == ("process", "global")

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="fault.site"):
            FaultSpec(site="nowhere", kind="worker-crash")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="fault.kind"):
            FaultSpec(site="worker.run", kind="explode")

    def test_rate_bounds(self):
        with pytest.raises(FaultPlanError, match="fault.rate"):
            FaultSpec(site="store.load", kind="store-io-error", rate=1.5)
        with pytest.raises(FaultPlanError, match="fault.rate"):
            FaultSpec(site="store.load", kind="store-io-error", rate=-0.1)

    def test_negative_at_and_limit_rejected(self):
        with pytest.raises(FaultPlanError, match="fault.at"):
            FaultSpec(site="worker.run", kind="worker-crash", at=(-1,))
        with pytest.raises(FaultPlanError, match="fault.limit"):
            FaultSpec(site="store.load", kind="store-io-error", rate=0.5, limit=-1)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"rate": True}, "fault.rate"),
            ({"rate": "0.5"}, "fault.rate"),
            ({"delay_s": True}, "fault.delay_s"),
            ({"at": (True,)}, "fault.at"),
            ({"limit": 1.5}, "fault.limit"),
        ],
    )
    def test_python_caller_types_checked(self, kwargs, field):
        with pytest.raises(FaultPlanError, match=field):
            FaultSpec(site="store.load", kind="store-io-error", **kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"seed": "x"}, "plan.seed"),
            ({"seed": True}, "plan.seed"),
            ({"name": 5}, "plan.name"),
            ({"fuse_dir": 5}, "plan.fuse_dir"),
        ],
    )
    def test_python_caller_plan_types_checked(self, kwargs, field):
        with pytest.raises(FaultPlanError, match=field):
            FaultPlan(**kwargs)

    def test_int_rate_and_delay_stored_as_float(self):
        fault = FaultSpec(
            site="server.reply", kind="reply-delay", rate=1, delay_s=2
        )
        assert (fault.rate, fault.delay_s) == (1.0, 2.0)
        assert type(fault.rate) is float and type(fault.delay_s) is float

    def test_unknown_scope_rejected(self):
        with pytest.raises(FaultPlanError, match="fault.scope"):
            FaultSpec(site="worker.run", kind="worker-crash", scope="galaxy")

    def test_global_scope_requires_fuse_dir(self, tmp_path):
        with pytest.raises(FaultPlanError, match="fuse_dir"):
            FaultPlan(name="p", seed=0, faults=(crash_at(0, scope="global"),))
        plan = FaultPlan(
            name="p",
            seed=0,
            faults=(crash_at(0, scope="global"),),
            fuse_dir=str(tmp_path / "fuses"),
        )
        assert plan.fuse_dir is not None

    def test_plan_rejects_non_spec_faults(self):
        with pytest.raises(FaultPlanError, match="plan.faults"):
            FaultPlan(name="p", seed=0, faults=({"site": "worker.run"},))


class TestRoundTrip:
    def test_exact_dict_round_trip(self):
        plan = sample_plan()
        data = plan.to_dict()
        rebuilt = FaultPlan.from_dict(data)
        assert rebuilt == plan
        assert rebuilt.to_dict() == data

    def test_json_round_trip_is_byte_stable(self):
        plan = sample_plan()
        blob = json.dumps(plan.to_dict(), sort_keys=True)
        rebuilt = FaultPlan.from_dict(json.loads(blob))
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == blob

    def test_from_dict_rejects_unknown_keys(self):
        data = sample_plan().to_dict()
        data["surprise"] = 1
        with pytest.raises(FaultPlanError, match="surprise"):
            FaultPlan.from_dict(data)

    def test_fingerprint_tracks_content(self):
        assert sample_plan(3).fingerprint() == sample_plan(3).fingerprint()
        assert sample_plan(3).fingerprint() != sample_plan(4).fingerprint()

    def test_load_fault_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(sample_plan().to_dict()), encoding="utf-8")
        assert load_fault_plan(path) == sample_plan()
        with pytest.raises(FaultPlanError, match="fault plan"):
            load_fault_plan(tmp_path / "missing.json")


class TestSchedule:
    def test_same_seed_same_schedule(self):
        a = sample_plan(seed=9).schedule("server.reply", 50)
        b = sample_plan(seed=9).schedule("server.reply", 50)
        assert a == b
        assert any(kind is not None for kind in a)

    def test_different_seed_diverges(self):
        a = sample_plan(seed=9).schedule("store.load", 200)
        b = sample_plan(seed=10).schedule("store.load", 200)
        assert a != b

    def test_at_schedule_is_exact(self):
        plan = FaultPlan(name="p", seed=0, faults=(crash_at(2, 5),))
        schedule = plan.schedule("worker.run", 8)
        fires = [hit for hit, kind in enumerate(schedule) if kind is not None]
        assert fires == [2, 5]
        assert schedule[2] == schedule[5] == "worker-crash"

    def test_limit_caps_rate_faults(self):
        plan = FaultPlan(
            name="p",
            seed=1,
            faults=(
                FaultSpec(site="store.load", kind="store-io-error", rate=1.0, limit=3),
            ),
        )
        schedule = plan.schedule("store.load", 100)
        assert sum(kind is not None for kind in schedule) == 3
        assert schedule[:3] == ["store-io-error"] * 3

    def test_unscheduled_site_never_fires(self):
        assert sample_plan().schedule("shm.attach", 100) == [None] * 100
