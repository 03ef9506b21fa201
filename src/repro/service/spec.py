"""Serializable scenario specs: the declarative surface of the service API.

Three frozen dataclasses describe a complete workload with plain data —
strings, numbers, dicts — so it can live in JSON files, travel over RPC,
and be diffed in review:

* :class:`SystemSpec` — *what system*: sensor/pipeline configuration
  (:class:`~repro.core.HiRISEConfig`) plus the detector and classifier
  slots, by registered name;
* :class:`ScenarioSpec` — *one request*: the stream source, frame count,
  seeds, reuse policy, and execution knobs;
* :class:`ServiceSpec` — a whole spec file: one system plus a list of
  scenarios and a default worker count.

Every spec round-trips exactly (``from_dict(to_dict(s)) == s``) and every
validation error names the offending field (``scenario.n_frames: ...``),
so a broken spec file is a one-glance fix.  The conventions are the
codec's (:mod:`repro.codec`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..codec import serializable
from ..core.config import HiRISEConfig
from ..sensor.noise import NoiseModel
from .executor import EXECUTOR_NAMES
from .registry import CLASSIFIERS, DETECTORS, POLICIES, SOURCES, Registry


class SpecError(ValueError):
    """A spec failed validation; the message names the bad field."""


@serializable("component", SpecError, shorthand=lambda name: {"name": name})
@dataclass(frozen=True)
class ComponentRef:
    """A registered component, by name, plus its construction params.

    A bare name string reads as ``{"name": <name>}`` wherever a component
    is expected.

    Attributes:
        name: the registry key (e.g. "pedestrian", "temporal-reuse").
        params: keyword arguments handed to the factory.
    """

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the params
        # dict; canonicalize it instead so every spec type stays hashable
        # (consistent with __eq__: equal dicts canonicalize identically).
        try:
            params = json.dumps(self.params, sort_keys=True, default=repr)
        except (TypeError, ValueError):
            params = repr(sorted(self.params))
        return hash((self.name, params))

    def resolve(self, registry: Registry, fieldname: str):
        """Look the factory up, re-raising with the spec field named."""
        try:
            return registry.get(self.name)
        except KeyError as exc:
            raise SpecError(f"{fieldname}.name: {exc}") from None


def _component_field(name: str):
    return field(default_factory=lambda: ComponentRef(name))


@serializable("system", SpecError, shorthand=lambda system: {"system": system})
@dataclass(frozen=True)
class SystemSpec:
    """What system serves the requests (shared across a batch).

    A bare string reads as ``{"system": <string>}`` (``"conventional"``).

    Attributes:
        system: "hirise" (two-stage, in-sensor pooling + selective ROI) or
            "conventional" (full-frame baseline; ``config.adc_bits`` is the
            only config knob it reads).
        config: the :class:`~repro.core.HiRISEConfig` knobs.
        detector: stage-1 model slot (``DETECTORS`` registry).
        classifier: stage-2 model slot (``CLASSIFIERS`` registry).
        noise: sensor noise model; ``None`` = ideal sensor.  With noise
            enabled, per-frame temporal noise is drawn from the scenario's
            frame seeds — the knob that makes seeds observable.
        compute_dtype: stage-2 inference dtype, "float64" (default, the
            bit-exact reference) or "float32" (faster/smaller; logits
            track float64 within documented tolerances, argmax parity on
            seeded clips).  Applied by the engine to classifiers exposing
            ``set_compute_dtype``; stage-1 detection always runs float64
            so ROI selection is identical across modes.
    """

    system: str = "hirise"
    config: HiRISEConfig = field(default_factory=HiRISEConfig)
    detector: ComponentRef = _component_field("ground-truth")
    classifier: ComponentRef = _component_field("none")
    noise: NoiseModel | None = None
    compute_dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.system not in ("hirise", "conventional"):
            raise SpecError(
                f"system.system: expected 'hirise' or 'conventional', "
                f"got {self.system!r}"
            )
        if self.compute_dtype not in ("float32", "float64"):
            raise SpecError(
                f"system.compute_dtype: expected 'float32' or 'float64', "
                f"got {self.compute_dtype!r}"
            )


@serializable("scenario", SpecError)
@dataclass(frozen=True)
class ScenarioSpec:
    """One request: a stream to run and how to run it.

    Attributes:
        name: free-form label for reports ("" = unnamed).
        source: stream source slot (``SOURCES`` registry).
        n_frames: clip length handed to the source factory.
        seed: master scenario seed (clip layout/appearance/texture).
        frame_seeds: explicit per-frame temporal-noise seeds; ``None``
            defaults to the frame index (the stream runner's contract).
        policy: reuse policy slot (``POLICIES`` registry); "none" runs
            stage 1 on every frame, "temporal-reuse" and "keyframe" skip
            it on the frames they grant.
        keep_outcomes: retain full per-frame outcomes on the result
            (costs memory; needed for bit-identity audits).
        window: frames validated per flush, and so the most held at a
            time; any window is bit-identical to ``window=1``.  Composes
            with a reuse policy.  Exposure is on demand, per frame.
    """

    name: str = ""
    source: ComponentRef = _component_field("pedestrian")
    n_frames: int = 32
    seed: int = 0
    frame_seeds: tuple[int, ...] | None = None
    policy: ComponentRef = _component_field("none")
    keep_outcomes: bool = False
    window: int = 1

    def __post_init__(self) -> None:
        if self.n_frames < 1:
            raise SpecError(f"scenario.n_frames: must be >= 1, got {self.n_frames}")
        if self.window < 1:
            raise SpecError(f"scenario.window: must be >= 1, got {self.window}")
        if self.seed < 0:
            raise SpecError(f"scenario.seed: must be >= 0, got {self.seed}")
        if self.frame_seeds is not None:
            if len(self.frame_seeds) != self.n_frames:
                raise SpecError(
                    f"scenario.frame_seeds: {len(self.frame_seeds)} seeds for "
                    f"{self.n_frames} frames"
                )
            for i, seed in enumerate(self.frame_seeds):
                if seed < 0:
                    raise SpecError(f"scenario.frame_seeds[{i}]: must be >= 0, got {seed}")

    @property
    def label(self) -> str:
        return self.name or f"{self.source.name}/{self.policy.name}"

    def validate_components(self) -> None:
        """Resolve both component slots, raising :class:`SpecError` on typos."""
        self.source.resolve(SOURCES, "scenario.source")
        self.policy.resolve(POLICIES, "scenario.policy")


@serializable("spec", SpecError)
@dataclass(frozen=True)
class ServiceSpec:
    """A complete spec file: one system, scenarios, and execution knobs.

    Attributes:
        system: the served :class:`SystemSpec`.
        scenarios: default workload.
        workers: default pool size for batch serving.
        executor: default batch executor — "serial", "thread", or
            "process" (see :mod:`repro.service.executor`).
    """

    system: SystemSpec = field(default_factory=SystemSpec)
    scenarios: tuple[ScenarioSpec, ...] = ()
    workers: int = 1
    executor: str = "thread"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise SpecError(f"workers: must be >= 1, got {self.workers}")
        if self.executor not in EXECUTOR_NAMES:
            raise SpecError(
                f"spec.executor: unknown executor {self.executor!r}; "
                f"known executors: {list(EXECUTOR_NAMES)}"
            )


def load_spec(path: str | Path) -> ServiceSpec:
    """Read a JSON spec file into a :class:`ServiceSpec`.

    Accepts both the full layout (``{"system": {...}, "scenarios": [...]}``)
    and a bare system spec (``{"system": "hirise", "config": {...}}``, i.e.
    ``system`` is a *string*), which loads as a service with no scenarios.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: not valid UTF-8 ({exc})") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON ({exc})") from None
    return coerce_service_spec(data)


def coerce_service_spec(data) -> "ServiceSpec":
    """Interpret a dict/spec object as a :class:`ServiceSpec`."""
    if isinstance(data, ServiceSpec):
        return data
    if isinstance(data, SystemSpec):
        return ServiceSpec(system=data)
    if isinstance(data, dict) and not (
        "scenarios" in data
        or "workers" in data
        or "executor" in data
        or isinstance(data.get("system"), dict)
    ):
        return ServiceSpec(system=SystemSpec.from_dict(data))
    return ServiceSpec.from_dict(data)
