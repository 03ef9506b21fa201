"""Tests for the phase-level profiler (repro.core.profiling)."""

import pickle

import pytest

from repro.core import PhaseProfile, PhaseProfiler, PhaseStats, profiled
from repro.core.profiling import PhaseProfiler as _ProfilerDirect


class FakeClock:
    """A deterministic clock: each reading advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestPhaseProfiler:
    def test_single_phase_records_calls_and_time(self):
        profiler = PhaseProfiler(clock=FakeClock())
        with profiler.phase("detect"):
            pass
        profile = profiler.snapshot()
        stats = profile.get("detect")
        assert stats == PhaseStats("detect", calls=1, total_s=1.0)

    def test_repeated_phases_accumulate(self):
        profiler = PhaseProfiler(clock=FakeClock())
        for _ in range(3):
            with profiler.phase("detect"):
                pass
        stats = profiler.snapshot().get("detect")
        assert stats.calls == 3
        assert stats.total_s == pytest.approx(3.0)

    def test_nesting_records_dotted_paths(self):
        profiler = PhaseProfiler()
        with profiler.phase("stage2"):
            with profiler.phase("read"):
                pass
            with profiler.phase("classify"):
                pass
        paths = [s.path for s in profiler.snapshot()]
        assert paths == ["stage2", "stage2.read", "stage2.classify"]

    def test_parents_precede_children_despite_recording_order(self):
        # A nested span completes (and is recorded) before its parent;
        # the snapshot must still list the parent first.
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            with profiler.phase("b"):
                pass
        assert [s.path for s in profiler.snapshot()] == ["a", "a.b"]

    def test_parent_time_includes_children(self):
        profiler = PhaseProfiler(clock=FakeClock())
        with profiler.phase("outer"):
            with profiler.phase("inner"):
                pass
        profile = profiler.snapshot()
        assert profile.get("outer").total_s > profile.get("outer.inner").total_s
        # Only top-level phases contribute to the total.
        assert profile.total_s == profile.get("outer").total_s

    def test_phase_records_on_exception(self):
        profiler = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with profiler.phase("boom"):
                raise RuntimeError("boom")
        assert profiler.snapshot().get("boom").calls == 1
        # The stack unwound: a new phase is top-level again.
        with profiler.phase("after"):
            pass
        assert profiler.snapshot().get("after") is not None

    def test_empty_name_rejected(self):
        profiler = PhaseProfiler()
        with pytest.raises(ValueError, match="non-empty"):
            with profiler.phase(""):
                pass

    def test_snapshot_is_frozen_and_picklable(self):
        profiler = PhaseProfiler()
        with profiler.phase("x"):
            pass
        profile = profiler.snapshot()
        clone = pickle.loads(pickle.dumps(profile))
        assert [s.path for s in clone] == ["x"]

    def test_top_level_import_is_the_module_class(self):
        assert PhaseProfiler is _ProfilerDirect


class TestPhaseProfile:
    def _profile(self, *rows):
        return PhaseProfile(tuple(PhaseStats(*row) for row in rows))

    def test_bool_and_get(self):
        assert not PhaseProfile()
        profile = self._profile(("a", 1, 0.5))
        assert profile
        assert profile.get("a").total_s == 0.5
        assert profile.get("missing") is None

    def test_merge_sums_by_path_keeping_order(self):
        one = self._profile(("a", 1, 1.0), ("b", 2, 2.0))
        two = self._profile(("b", 1, 0.5), ("c", 1, 3.0))
        merged = PhaseProfile.merge([one, two])
        assert [s.path for s in merged] == ["a", "b", "c"]
        assert merged.get("b") == PhaseStats("b", 3, 2.5)

    def test_merge_empty(self):
        assert not PhaseProfile.merge([])

    def test_depth_counts_dotted_parents(self):
        depths = [s.depth for s in self._profile(("a", 1, 1.0), ("a.b", 1, 0.5), ("a.b.c", 1, 0.1))]
        assert depths == [0, 1, 2]

    def test_to_dict_round_trips_to_json(self):
        import json

        profile = self._profile(("a", 1, 1.0), ("a.b", 2, 0.25))
        data = json.loads(json.dumps(profile.to_dict()))
        assert data["total_s"] == 1.0  # nested rows not double-counted
        assert data["phases"][1] == {"path": "a.b", "calls": 2, "total_s": 0.25}

    def test_from_dict_round_trips_exactly(self):
        profile = self._profile(("a", 1, 1.0), ("a.b", 2, 0.25))
        assert PhaseProfile.from_dict(profile.to_dict()) == profile
        row = PhaseStats("a.b", 2, 0.25)
        assert PhaseStats.from_dict(row.to_dict()) == row

    def test_from_dict_rejects_inconsistent_total(self):
        import pytest

        profile = self._profile(("a", 1, 1.0))
        data = profile.to_dict()
        data["total_s"] = 99.0  # hand-edited payload: derived value lies
        with pytest.raises(ValueError, match="total_s"):
            PhaseProfile.from_dict(data)

    def test_report_contains_every_phase(self):
        profile = self._profile(("stage2", 1, 1.0), ("stage2.classify", 1, 0.9))
        text = profile.report()
        assert "stage2" in text and "classify" in text
        assert "(no phases recorded)" in PhaseProfile().report()


class TestProfiledHelper:
    def test_none_profiler_is_noop(self):
        with profiled(None, "anything"):
            pass  # must not raise and must not require a profiler

    def test_records_on_real_profiler(self):
        profiler = PhaseProfiler()
        with profiled(profiler, "phase"):
            pass
        assert profiler.snapshot().get("phase").calls == 1
