"""Declarative experiment sweeps: a grid over system/scenario axes.

The paper's headline results are parameter *sweeps* — transfer vs pooling
factor k (Fig. 7), ADC energy (Fig. 8), peak memory (Fig. 6), accuracy
parity (Table 2) — but a :class:`~repro.service.SystemSpec` describes one
point.  :class:`SweepSpec` declares the whole grid as plain data:

* a **base** system + scenario (the same frozen specs the Engine serves);
* **axes** — each a dotted override path into the base spec
  (``"system.config.pool_k"``, ``"scenario.source.params.resolution"``)
  plus the values to sweep; the grid is the cross-product in axis order;
* a **replicate count** — each grid cell runs ``replicates`` times with
  the scenario seed offset by the replicate index, so aggregates are
  medians over genuinely different clips;
* an optional **baseline** system (typically ``"conventional"``) run once
  per distinct clip, providing the denominators for the paper's
  reduction factors.

Like every spec in :mod:`repro.service`, a sweep round-trips exactly
through the codec (``from_dict(to_dict(s)) == s``) and every validation
error names the offending field path.  :meth:`SweepSpec.cells` expands
the grid eagerly into fully-validated :class:`SweepCell`\\ s, so a broken
axis value surfaces as one named error, never mid-run.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..codec import serializable
from ..service.executor import EXECUTOR_NAMES
from ..service.spec import ScenarioSpec, SpecError, SystemSpec

#: Paper-report keys a sweep may declare via ``SweepSpec.report`` ("" =
#: generic report).  ``repro.experiments.report`` registers one builder per
#: key (test-asserted to stay in sync).
REPORT_KEYS = ("fig6_memory", "fig7_transfer", "fig8_energy", "table2_accuracy")

#: Tiny-mode caps: ``SweepSpec.tiny()`` shrinks clips to this footprint.
TINY_FRAMES = 4
TINY_RESOLUTION = (160, 120)

_AXIS_ROOTS = ("system", "scenario")

#: Filename-safe sweep names (the report artifact stem).
_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=repr)


def _json_copy(value):
    """A defensive deep copy of a JSON-shaped value (cells must not alias)."""
    return json.loads(json.dumps(value)) if isinstance(value, (dict, list)) else value


@serializable("axis", SpecError)
@dataclass(frozen=True)
class SweepAxis:
    """One swept dimension: an override path and the values it takes.

    Attributes:
        path: dotted path into the base spec, rooted at ``system`` or
            ``scenario`` (e.g. ``"system.config.pool_k"``).  The final
            segment is set on the nested dict of the base spec's
            ``to_dict`` form, so anything a spec file can say, an axis
            can sweep — including whole component slots
            (``"scenario.policy"`` with dict or name-string values).
        values: the plain-data values the axis takes, in sweep order.
    """

    path: str
    values: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.path, str) or "." not in self.path:
            raise SpecError(
                f"axis.path: expected a dotted override path, got {self.path!r}"
            )
        root = self.path.split(".", 1)[0]
        if root not in _AXIS_ROOTS:
            raise SpecError(
                f"axis.path: {self.path!r} must be rooted at one of "
                f"{list(_AXIS_ROOTS)}"
            )
        if self.path == "scenario.name":
            raise SpecError(
                "axis.path: 'scenario.name' is derived from the cell label; "
                "it cannot be swept"
            )
        if not self.values:
            raise SpecError(f"axis {self.path!r}: values must be non-empty")

    def __hash__(self) -> int:
        # values may hold lists (e.g. resolutions); canonicalize like
        # ComponentRef does so the frozen dataclass stays hashable.
        return hash((self.path, _canonical(list(self.values))))

    @property
    def label(self) -> str:
        """Short axis name for cell labels: the last path segment."""
        return self.path.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class SweepCell:
    """One fully-expanded grid point, ready to serve.

    Attributes:
        index: position in grid order (axes cross-product, replicates
            innermost).
        label: human/report label, e.g. ``"pool_k=4,grayscale=true/r1"``.
        overrides: the ``(path, value)`` pairs this cell applied.
        replicate: replicate index in ``range(spec.replicates)``.
        system: the cell's validated system spec.
        scenario: the cell's validated scenario spec (seed offset by the
            replicate index, ``name`` set to the cell label).
    """

    index: int
    label: str
    overrides: tuple[tuple[str, object], ...]
    replicate: int
    system: SystemSpec
    scenario: ScenarioSpec

    def __hash__(self) -> int:
        return hash((self.index, self.label, self.system, self.scenario))

    def coordinate(self, path: str, default=None):
        """The value this cell's grid coordinate took for ``path``."""
        for override_path, value in self.overrides:
            if override_path == path:
                return value
        return default


def _format_value(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, separators=(",", ":"))


def _apply_override(data: dict, path: str, value) -> None:
    """Set ``path``'s final segment on the nested spec dict, in place."""
    segments = path.split(".")[1:]
    node = data
    for segment in segments[:-1]:
        child = node.get(segment)
        if not isinstance(child, dict):
            raise SpecError(
                f"axis path {path!r}: {segment!r} is not a nested object "
                f"in the base spec"
            )
        node = child
    node[segments[-1]] = _json_copy(value)


@serializable("sweep", SpecError)
@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment sweep: base specs, axes, replicates.

    Attributes:
        name: sweep identifier; also the report artifact stem
            (``<name>.json`` / ``<name>.md``).
        system: base system spec every cell starts from.
        scenario: base scenario spec every cell starts from.
        axes: swept dimensions; the grid is their cross-product in order.
        baseline: optional reference system (e.g. ``"conventional"``) run
            on each cell's clip through the cache; enables the per-cell reduction
            factors the paper reports.  Baseline runs always use policy
            ``"none"``, ``window=1``, and no kept outcomes — the
            full-frame per-frame reference, one cache key per clip.
        replicates: runs per grid cell; replicate ``r`` offsets the
            scenario seed by ``r`` (after axis overrides).
        executor: default executor name for :class:`SweepRunner`.
        workers: default worker count.
        report: paper-report key from :data:`REPORT_KEYS`, or ``""`` for
            the generic tidy report.
    """

    name: str = "sweep"
    system: SystemSpec = field(default_factory=SystemSpec)
    scenario: ScenarioSpec = field(default_factory=ScenarioSpec)
    axes: tuple[SweepAxis, ...] = ()
    baseline: SystemSpec | None = None
    replicates: int = 1
    executor: str = "process"
    workers: int = 2
    report: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpecError(f"sweep.name: expected a non-empty str, got {self.name!r}")
        # The name becomes the artifact filename stem (<name>.json/.md):
        # a path separator or dot-name must never escape the --out dir.
        if not _NAME_RE.fullmatch(self.name) or set(self.name) == {"."}:
            raise SpecError(
                f"sweep.name: {self.name!r} must be a filename-safe slug "
                "(letters, digits, '.', '_', '-')"
            )
        if self.replicates < 1:
            raise SpecError(
                f"sweep.replicates: must be >= 1, got {self.replicates}"
            )
        if self.workers < 1:
            raise SpecError(f"sweep.workers: must be >= 1, got {self.workers}")
        if self.executor not in EXECUTOR_NAMES:
            raise SpecError(
                f"sweep.executor: unknown executor {self.executor!r}; "
                f"known executors: {list(EXECUTOR_NAMES)}"
            )
        if self.report and self.report not in REPORT_KEYS:
            raise SpecError(
                f"sweep.report: unknown report {self.report!r}; "
                f"known reports: {list(REPORT_KEYS)}"
            )
        seen = set()
        for axis in self.axes:
            if axis.path in seen:
                raise SpecError(f"sweep.axes: duplicate axis path {axis.path!r}")
            seen.add(axis.path)

    def __hash__(self) -> int:
        return hash((self.name, self.system, self.scenario, self.axes,
                     self.baseline, self.replicates, self.report))

    # -- grid expansion ----------------------------------------------------------

    @property
    def grid_size(self) -> int:
        """Total cell count: axis cross-product times replicates."""
        size = self.replicates
        for axis in self.axes:
            size *= len(axis.values)
        return size

    def cells(self) -> tuple[SweepCell, ...]:
        """Expand the grid into validated cells, in grid order.

        Raises:
            SpecError: an axis value produced an invalid spec; the message
                names the axis path and value plus the underlying field
                error.
        """
        base_system = self.system.to_dict()
        base_scenario = self.scenario.to_dict()
        cells = []
        combos = itertools.product(*(axis.values for axis in self.axes))
        index = 0
        for combo in combos:
            overrides = tuple(
                (axis.path, value) for axis, value in zip(self.axes, combo)
            )
            context = ", ".join(
                f"{path}={_format_value(value)}" for path, value in overrides
            )
            base_label = ",".join(
                f"{path.rsplit('.', 1)[-1]}={_format_value(value)}"
                for path, value in overrides
            ) or "base"
            # The system is replicate-independent: build and validate it
            # once per combo; only the scenario varies per replicate.
            system_data = _json_copy(base_system)
            scenario_template = _json_copy(base_scenario)
            for path, value in overrides:
                target = (
                    system_data if path.startswith("system.") else scenario_template
                )
                _apply_override(target, path, value)
            try:
                system = SystemSpec.from_dict(system_data)
            except SpecError as exc:
                raise SpecError(f"sweep cell [{context}]: {exc}") from None
            for replicate in range(self.replicates):
                label = base_label
                if self.replicates > 1:
                    label = f"{label}/r{replicate}"
                scenario_data = _json_copy(scenario_template)
                scenario_data["name"] = label
                try:
                    scenario = ScenarioSpec.from_dict(scenario_data)
                except SpecError as exc:
                    raise SpecError(f"sweep cell [{context}]: {exc}") from None
                if replicate:
                    # Replicates re-seed the clip — applied after from_dict
                    # so axis values get the spec layer's strict validation;
                    # derived frame seeds must move with the clip seed or
                    # every replicate shares one noise draw.
                    scenario = dataclasses.replace(
                        scenario,
                        seed=scenario.seed + replicate,
                        frame_seeds=(
                            None
                            if scenario.frame_seeds is None
                            else tuple(s + replicate for s in scenario.frame_seeds)
                        ),
                    )
                cells.append(
                    SweepCell(index, label, overrides, replicate, system, scenario)
                )
                index += 1
        return tuple(cells)

    def baseline_scenario(self, scenario: ScenarioSpec) -> ScenarioSpec:
        """The full-frame reference request for one cell's clip.

        Same source/frames/seeds — the identical rendered clip — but no
        reuse policy (the conventional baseline supports none), and
        ``window=1`` and no kept outcomes, which change no row, so every
        cell on one clip asks for one baseline key.
        """
        return dataclasses.replace(
            scenario,
            name="",
            policy=type(scenario.policy)("none"),
            keep_outcomes=False,
            window=1,
        )

    # -- tiny mode ---------------------------------------------------------------

    def tiny(self) -> "SweepSpec":
        """A smoke-test-sized copy of this sweep (``repro sweep --tiny``).

        Caps clip length at :data:`TINY_FRAMES` frames and any *explicit*
        source ``resolution`` param (base or axis values) at
        :data:`TINY_RESOLUTION`, drops replicates to 1, and suffixes the
        name with ``-tiny`` so smoke artifacts never overwrite (or pass
        for) full-size ones.  Axis values
        that collapse to the same capped value are deduplicated, so a
        resolution axis may shrink to a single point.  Sources without an
        explicit resolution param are left untouched.  Deterministic: the
        tiny sweep is itself a plain :class:`SweepSpec`.
        """
        data = self.to_dict()
        if not data["name"].endswith("-tiny"):
            # Distinct artifact stem: a smoke report must never overwrite
            # (or pass for) the full-size one.
            data["name"] += "-tiny"
        data["replicates"] = 1
        scenario = data["scenario"]
        scenario["n_frames"] = min(scenario["n_frames"], TINY_FRAMES)
        if scenario.get("frame_seeds") is not None:
            scenario["frame_seeds"] = scenario["frame_seeds"][: scenario["n_frames"]]
        params = scenario["source"].setdefault("params", {})
        if "resolution" in params:
            params["resolution"] = _cap_resolution(params["resolution"])
        axes = []
        for axis in data["axes"]:
            values = axis["values"]
            if axis["path"].endswith(".resolution"):
                values = _dedupe(_cap_resolution(v) for v in values)
            elif axis["path"] == "scenario.n_frames":
                values = _dedupe(min(int(v), TINY_FRAMES) for v in values)
            elif axis["path"] == "scenario.frame_seeds":
                # Seed lists must shrink with the frame cap or every tiny
                # cell fails the seeds-vs-frames length validation.
                values = _dedupe(
                    v[: scenario["n_frames"]] if isinstance(v, list) else v
                    for v in values
                )
            axes.append({"path": axis["path"], "values": list(values)})
        data["axes"] = axes
        return SweepSpec.from_dict(data)


def _cap_resolution(value) -> list:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise SpecError(
            f"sweep: resolution must be a (width, height) pair, got {value!r}"
        )
    return [min(int(value[0]), TINY_RESOLUTION[0]), min(int(value[1]), TINY_RESOLUTION[1])]


def _dedupe(values) -> list:
    out = []
    for value in values:
        if value not in out:
            out.append(value)
    return out


def load_sweep(path: str | Path) -> SweepSpec:
    """Read a JSON sweep file into a :class:`SweepSpec`.

    Raises:
        SpecError: unreadable/invalid JSON or a failing spec field, with
            the file path in the message.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: not valid UTF-8 ({exc})") from None
    except OSError as exc:
        raise SpecError(f"{path}: cannot read sweep file ({exc})") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON ({exc})") from None
    return SweepSpec.from_dict(data)
