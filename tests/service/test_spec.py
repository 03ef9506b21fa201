"""Tests for spec serialization: exact round-trips and field-naming errors."""

import json

import pytest

from repro.core import HiRISEConfig
from repro.service import (
    ComponentRef,
    ScenarioSpec,
    ServiceSpec,
    SpecError,
    SystemSpec,
)
from repro.service.spec import coerce_service_spec


def rich_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="stress",
        source=ComponentRef("drone", {"resolution": [128, 96], "n_vehicles": 2}),
        n_frames=5,
        seed=17,
        frame_seeds=(3, 1, 4, 1, 5),
        policy=ComponentRef("temporal-reuse", {"max_reuse": 2}),
        keep_outcomes=True,
        window=4,
    )


def rich_system() -> SystemSpec:
    from repro.sensor import NoiseModel

    return SystemSpec(
        system="hirise",
        config=HiRISEConfig(pool_k=2, grayscale_stage1=True, max_rois=4),
        detector=ComponentRef("ground-truth", {"label": "person", "score": 0.8}),
        classifier=ComponentRef("mean-luma"),
        noise=NoiseModel(read_noise=1e-3, seed=7),
    )


class TestRoundTrip:
    def test_component_ref(self):
        ref = ComponentRef("pedestrian", {"speed": 2.5})
        assert ComponentRef.from_dict(ref.to_dict()) == ref

    def test_component_ref_string_shorthand(self):
        assert ComponentRef.from_dict("drone") == ComponentRef("drone")

    def test_scenario_spec_dict(self):
        spec = rich_scenario()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_scenario_spec_json(self):
        spec = rich_scenario()
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        # and the JSON text itself is plain data
        assert json.loads(spec.to_json())["n_frames"] == 5

    def test_scenario_defaults_round_trip(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_system_spec(self):
        spec = rich_system()
        assert SystemSpec.from_dict(spec.to_dict()) == spec
        assert SystemSpec.from_json(spec.to_json()) == spec

    def test_service_spec(self):
        spec = ServiceSpec(
            system=rich_system(), scenarios=(rich_scenario(), ScenarioSpec()),
            workers=3,
        )
        assert ServiceSpec.from_dict(spec.to_dict()) == spec
        assert ServiceSpec.from_json(spec.to_json()) == spec

    def test_specs_are_hashable(self):
        # frozen value types: equal specs hash equal, sets dedup them
        a, b = rich_scenario(), rich_scenario()
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert len({rich_system(), rich_system()}) == 1
        assert hash(ComponentRef("x", {"p": [1, 2]})) == hash(
            ComponentRef("x", {"p": [1, 2]})
        )

    def test_hirise_config(self):
        config = HiRISEConfig(pool_k=4, merge_roi_iou=0.5, max_rois=2)
        assert HiRISEConfig.from_dict(config.to_dict()) == config
        assert (
            HiRISEConfig.from_dict(json.loads(json.dumps(config.to_dict())))
            == config
        )


class TestValidation:
    def test_unknown_scenario_field_named(self):
        with pytest.raises(SpecError, match=r"scenario.*frames_n"):
            ScenarioSpec.from_dict({"frames_n": 10})

    def test_wrong_type_names_field_and_value(self):
        with pytest.raises(SpecError, match=r"scenario\.n_frames.*'ten'"):
            ScenarioSpec.from_dict({"n_frames": "ten"})
        with pytest.raises(SpecError, match=r"scenario\.keep_outcomes"):
            ScenarioSpec.from_dict({"keep_outcomes": "yes"})
        # bools are not ints for spec purposes
        with pytest.raises(SpecError, match=r"scenario\.seed"):
            ScenarioSpec.from_dict({"seed": True})

    def test_frame_seeds_validation(self):
        with pytest.raises(SpecError, match=r"scenario\.frame_seeds"):
            ScenarioSpec.from_dict({"frame_seeds": "abc"})
        with pytest.raises(SpecError, match=r"frame_seeds.*2 seeds for 3"):
            ScenarioSpec(n_frames=3, frame_seeds=(1, 2))

    def test_scenario_bounds_named(self):
        with pytest.raises(SpecError, match=r"scenario\.n_frames"):
            ScenarioSpec(n_frames=0)
        with pytest.raises(SpecError, match=r"scenario\.window: must be >= 1"):
            ScenarioSpec(window=0)

    def test_window_reaches_the_runner(self):
        """The spec knob lands on the engine's StreamRunner (and the
        runner gets the scenario label for its error messages)."""
        from repro.service import Engine

        engine = Engine.from_spec({"system": {"system": "hirise"}})
        scenario = ScenarioSpec(
            n_frames=4,
            window=4,
            source=ComponentRef("pedestrian", {"resolution": [64, 48]}),
        )
        clip = engine._build_clip(scenario)
        runner, _ = engine._build_runner(scenario, clip)
        assert runner.window == 4
        assert runner.label == "pedestrian/none"
        conventional = Engine.from_spec({"system": {"system": "conventional"}})
        with pytest.raises(SpecError, match=r"'pedestrian/none'.*conventional"):
            conventional._build_runner(scenario, clip)

    def test_component_ref_errors_named(self):
        with pytest.raises(SpecError, match=r"scenario\.source\.name.*missing"):
            ScenarioSpec.from_dict({"source": {"params": {}}})
        with pytest.raises(SpecError, match=r"scenario\.policy.*pararms"):
            ScenarioSpec.from_dict({"policy": {"name": "none", "pararms": {}}})

    def test_bad_system_value(self):
        with pytest.raises(SpecError, match="'quantum'"):
            SystemSpec(system="quantum")

    def test_bad_config_field_named(self):
        with pytest.raises(SpecError, match=r"system\.config.*pool_q"):
            SystemSpec.from_dict({"config": {"pool_q": 8}})
        with pytest.raises(SpecError, match=r"system\.config"):
            SystemSpec.from_dict({"config": {"pool_k": 0}})

    def test_unknown_system_field_named(self):
        with pytest.raises(SpecError, match=r"system.*detectors"):
            SystemSpec.from_dict({"detectors": {"name": "grid"}})

    def test_unknown_noise_field_named(self):
        with pytest.raises(SpecError, match=r"system\.noise.*read_nose"):
            SystemSpec.from_dict({"noise": {"read_nose": 0.1}})

    @pytest.mark.parametrize("field", ["read_noise", "shot_noise_scale", "dsnu", "prnu"])
    def test_negative_noise_sigma_named(self, field):
        with pytest.raises(
            SpecError, match=rf"system\.noise: {field} must be non-negative"
        ):
            SystemSpec.from_dict({"noise": {field: -0.01}})

    def test_service_spec_errors(self):
        with pytest.raises(SpecError, match=r"spec\.workers"):
            ServiceSpec.from_dict({"workers": "four"})
        with pytest.raises(SpecError, match="workers"):
            ServiceSpec(workers=0)
        with pytest.raises(SpecError, match=r"spec\.scenarios"):
            ServiceSpec.from_dict({"scenarios": {"name": "not-a-list"}})

    def test_hirise_config_unknown_fields_named(self):
        with pytest.raises(ValueError, match=r"pool_q.*known fields"):
            HiRISEConfig.from_dict({"pool_q": 8, "adc_bits": 8})


class TestCoercion:
    def test_bare_system_dict(self):
        service = coerce_service_spec({"system": "conventional"})
        assert service.system.system == "conventional"
        assert service.scenarios == ()

    def test_full_layout(self):
        service = coerce_service_spec(
            {"system": {"system": "hirise"}, "scenarios": [{"n_frames": 2}]}
        )
        assert service.scenarios[0].n_frames == 2

    def test_scenarios_without_system(self):
        service = coerce_service_spec({"scenarios": [{}], "workers": 2})
        assert service.system == SystemSpec()
        assert service.workers == 2

    def test_bare_string_system_with_scenarios(self):
        # adding a scenarios list to a bare system spec must keep parsing
        service = coerce_service_spec(
            {"system": "conventional", "scenarios": [{"n_frames": 3}]}
        )
        assert service.system.system == "conventional"
        assert service.scenarios[0].n_frames == 3

    def test_spec_objects_pass_through(self):
        system = rich_system()
        assert coerce_service_spec(system).system == system
        service = ServiceSpec(system=system)
        assert coerce_service_spec(service) is service


class TestComputeDtype:
    def test_default_and_round_trip(self):
        spec = SystemSpec()
        assert spec.compute_dtype == "float64"
        assert SystemSpec.from_dict(spec.to_dict()) == spec

    def test_float32_round_trips(self):
        spec = SystemSpec(compute_dtype="float32")
        data = json.loads(spec.to_json())
        assert data["compute_dtype"] == "float32"
        assert SystemSpec.from_dict(data) == spec

    def test_invalid_value_names_field(self):
        with pytest.raises(SpecError, match=r"system\.compute_dtype.*float16"):
            SystemSpec(compute_dtype="float16")

    def test_wrong_type_names_field(self):
        with pytest.raises(SpecError, match=r"system\.compute_dtype"):
            SystemSpec.from_dict({"compute_dtype": 32})

    def test_dtype_changes_spec_equality(self):
        assert SystemSpec(compute_dtype="float32") != SystemSpec()

    def test_service_spec_carries_dtype(self):
        service = ServiceSpec(system=SystemSpec(compute_dtype="float32"))
        clone = ServiceSpec.from_dict(json.loads(service.to_json()))
        assert clone.system.compute_dtype == "float32"
