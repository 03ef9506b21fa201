"""SweepSpec: round-trips, validation, grid expansion, tiny mode."""

import json

import pytest

from repro.experiments import (
    PAPER_SWEEPS,
    REPORT_KEYS,
    SweepAxis,
    SweepSpec,
    load_sweep,
)
from repro.experiments.sweep import TINY_FRAMES, TINY_RESOLUTION
from repro.service import ComponentRef, ScenarioSpec, SpecError, SystemSpec


def small_sweep(**kwargs) -> SweepSpec:
    defaults = dict(
        name="unit",
        system=SystemSpec(detector=ComponentRef("ground-truth")),
        scenario=ScenarioSpec(
            source=ComponentRef("pedestrian", {"resolution": [160, 120]}),
            n_frames=2,
            seed=3,
        ),
        axes=(SweepAxis("system.config.pool_k", (2, 4)),),
        executor="serial",
        workers=1,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


class TestRoundTrip:
    def test_exact_dict_round_trip(self):
        spec = small_sweep(
            baseline=SystemSpec(system="conventional"),
            replicates=3,
            report="fig7_transfer",
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_exact_json_round_trip(self):
        spec = small_sweep()
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_every_paper_preset_round_trips(self):
        for factory in PAPER_SWEEPS.values():
            spec = factory()
            assert SweepSpec.from_json(spec.to_json()) == spec

    def test_list_valued_axis_round_trips(self):
        spec = small_sweep(
            axes=(
                SweepAxis(
                    "scenario.source.params.resolution",
                    ([160, 120], [320, 240]),
                ),
            )
        )
        again = SweepSpec.from_dict(spec.to_dict())
        assert again == spec
        assert hash(again.axes[0]) == hash(spec.axes[0])

    def test_load_sweep_from_file(self, tmp_path):
        spec = small_sweep()
        path = tmp_path / "sweep.json"
        path.write_text(spec.to_json())
        assert load_sweep(path) == spec


class TestValidation:
    def test_unknown_field_named(self):
        with pytest.raises(SpecError, match="sweep: unknown field"):
            SweepSpec.from_dict({"grid": []})

    def test_axis_path_must_be_dotted(self):
        with pytest.raises(SpecError, match="axis.path"):
            SweepAxis("pool_k", (2,))

    def test_axis_path_must_root_at_system_or_scenario(self):
        with pytest.raises(SpecError, match="rooted"):
            SweepAxis("service.workers", (1,))

    def test_axis_values_must_be_non_empty(self):
        with pytest.raises(SpecError, match="non-empty"):
            SweepAxis("system.config.pool_k", ())

    def test_scenario_name_cannot_be_swept(self):
        with pytest.raises(SpecError, match="scenario.name"):
            SweepAxis("scenario.name", ("a", "b"))

    def test_duplicate_axis_paths_rejected(self):
        axis = SweepAxis("system.config.pool_k", (2,))
        with pytest.raises(SpecError, match="duplicate axis path"):
            small_sweep(axes=(axis, SweepAxis("system.config.pool_k", (4,))))

    def test_bad_replicates_and_workers(self):
        with pytest.raises(SpecError, match="replicates"):
            small_sweep(replicates=0)
        with pytest.raises(SpecError, match="workers"):
            small_sweep(workers=0)

    def test_unknown_executor_and_report(self):
        with pytest.raises(SpecError, match="executor"):
            small_sweep(executor="gpu")
        with pytest.raises(SpecError, match="report"):
            small_sweep(report="fig99")

    def test_report_keys_cover_paper_reports(self):
        from repro.experiments import PAPER_REPORTS

        assert set(PAPER_REPORTS) == set(REPORT_KEYS)

    def test_bad_axis_value_names_cell(self):
        spec = small_sweep(axes=(SweepAxis("system.config.pool_k", (2, 0)),))
        with pytest.raises(SpecError, match=r"sweep cell \[system.config.pool_k=0\]"):
            spec.cells()

    def test_axis_through_non_dict_segment_named(self):
        spec = small_sweep(axes=(SweepAxis("scenario.seed.low", (1,)),))
        with pytest.raises(SpecError, match="not a nested object"):
            spec.cells()

    def test_load_sweep_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecError, match="not valid JSON"):
            load_sweep(path)

    def test_load_sweep_missing_file_raises_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read sweep file"):
            load_sweep(tmp_path / "absent.json")

    def test_name_must_be_filename_safe(self):
        for name in ("../evil", "a/b", "a\\b", "..", "has space"):
            with pytest.raises(SpecError, match="sweep.name"):
                small_sweep(name=name)

    def test_seed_axis_values_strictly_validated(self):
        # int() truncation must never silently change the experiment:
        # non-int axis values fail with the cell and field named.
        for bad in (1.5, "7", True):
            spec = small_sweep(axes=(SweepAxis("scenario.seed", (bad,)),))
            with pytest.raises(SpecError, match="scenario.seed"):
                spec.cells()


class TestExpansion:
    def test_grid_size_is_axes_product_times_replicates(self):
        spec = small_sweep(
            axes=(
                SweepAxis("system.config.pool_k", (2, 4, 8)),
                SweepAxis("system.config.grayscale_stage1", (False, True)),
            ),
            replicates=2,
        )
        assert spec.grid_size == 12
        assert len(spec.cells()) == 12

    def test_overrides_applied_to_cell_specs(self):
        spec = small_sweep(axes=(SweepAxis("system.config.pool_k", (2, 4)),))
        cells = spec.cells()
        assert [c.system.config.pool_k for c in cells] == [2, 4]
        # untouched fields come from the base
        assert all(c.scenario.n_frames == 2 for c in cells)
        assert [c.label for c in cells] == ["pool_k=2", "pool_k=4"]

    def test_component_slot_axis(self):
        spec = small_sweep(
            axes=(
                SweepAxis(
                    "scenario.policy",
                    ("none", {"name": "temporal-reuse", "params": {"max_reuse": 3}}),
                ),
            )
        )
        cells = spec.cells()
        assert cells[0].scenario.policy.name == "none"
        assert cells[1].scenario.policy.name == "temporal-reuse"
        assert cells[1].scenario.policy.params == {"max_reuse": 3}

    def test_replicates_offset_scenario_seed(self):
        spec = small_sweep(replicates=3, axes=())
        cells = spec.cells()
        assert [c.scenario.seed for c in cells] == [3, 4, 5]
        assert [c.replicate for c in cells] == [0, 1, 2]
        assert [c.label for c in cells] == ["base/r0", "base/r1", "base/r2"]

    def test_cells_do_not_alias_list_values(self):
        resolution = [160, 120]
        spec = small_sweep(
            axes=(SweepAxis("scenario.source.params.resolution", (resolution,)),)
        )
        cell = spec.cells()[0]
        cell.scenario.source.params["resolution"].append(999)
        # the spec's own axis values are untouched
        assert spec.axes[0].values[0] == [160, 120]
        assert spec.cells()[0].scenario.source.params["resolution"] == [160, 120]

    def test_coordinate_lookup(self):
        spec = small_sweep()
        cell = spec.cells()[1]
        assert cell.coordinate("system.config.pool_k") == 4
        assert cell.coordinate("no.such.path", "absent") == "absent"

    def test_baseline_scenario_strips_policy_and_batching(self):
        spec = small_sweep()
        scenario = ScenarioSpec(
            name="cell",
            source=ComponentRef("pedestrian", {"resolution": [160, 120]}),
            n_frames=2,
            seed=5,
            policy=ComponentRef("temporal-reuse", {"max_reuse": 3}),
            keep_outcomes=True,
        )
        base = spec.baseline_scenario(scenario)
        assert base.policy.name == "none"
        assert base.window == 1
        assert not base.keep_outcomes
        assert base.name == ""
        # the clip identity is preserved
        assert (base.source, base.n_frames, base.seed) == (
            scenario.source, scenario.n_frames, scenario.seed,
        )


class TestTiny:
    def test_tiny_caps_frames_resolution_replicates(self):
        spec = PAPER_SWEEPS["paper_fig7_transfer"]()
        tiny = spec.tiny()
        assert tiny.name == "paper_fig7_transfer-tiny"
        assert tiny.replicates == 1
        assert tiny.scenario.n_frames <= TINY_FRAMES
        assert tiny.scenario.source.params["resolution"] == list(TINY_RESOLUTION)
        # still a valid, round-tripping spec
        assert SweepSpec.from_json(tiny.to_json()) == tiny

    def test_tiny_dedupes_collapsed_resolution_axis(self):
        spec = PAPER_SWEEPS["paper_fig6_memory"]()
        tiny = spec.tiny()
        axis = next(
            a for a in tiny.axes if a.path == "scenario.source.params.resolution"
        )
        assert list(axis.values) == [[160, 120]]
        assert tiny.grid_size < spec.grid_size

    def test_tiny_is_idempotent(self):
        spec = PAPER_SWEEPS["paper_fig8_energy"]()
        assert spec.tiny().tiny() == spec.tiny()

    def test_tiny_truncates_frame_seeds_axis_values(self):
        spec = small_sweep(
            scenario=ScenarioSpec(
                source=ComponentRef("pedestrian", {"resolution": [160, 120]}),
                n_frames=8,
                seed=3,
            ),
            axes=(
                SweepAxis(
                    "scenario.frame_seeds",
                    (list(range(8)), list(range(100, 108))),
                ),
            ),
        )
        tiny = spec.tiny()
        assert tiny.scenario.n_frames == TINY_FRAMES
        assert [list(v) for v in tiny.axes[0].values] == [
            [0, 1, 2, 3], [100, 101, 102, 103],
        ]
        # valid full-size sweeps stay valid under --tiny
        assert len(tiny.cells()) == 2


class TestShippedExamples:
    def test_examples_match_presets(self):
        """examples/sweeps/*.json are exactly the serialized presets."""
        from pathlib import Path

        sweeps_dir = Path(__file__).resolve().parents[2] / "examples" / "sweeps"
        files = sorted(p.stem for p in sweeps_dir.glob("*.json"))
        assert files == sorted(PAPER_SWEEPS)
        for name, factory in PAPER_SWEEPS.items():
            shipped = json.loads((sweeps_dir / f"{name}.json").read_text())
            assert shipped == factory().to_dict(), (
                f"{name}: regenerate with "
                "`python -m repro.experiments.presets examples/sweeps`"
            )

    def test_shipped_examples_expand(self):
        from pathlib import Path

        sweeps_dir = Path(__file__).resolve().parents[2] / "examples" / "sweeps"
        for path in sweeps_dir.glob("*.json"):
            spec = load_sweep(path)
            assert spec.grid_size >= 2
            for cell in spec.cells():
                cell.scenario.validate_components()
