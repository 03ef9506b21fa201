"""repro — a full reproduction of HiRISE (DAC 2024).

HiRISE: High-Resolution Image Scaling for Edge ML via In-Sensor Compression
and Selective ROI.  The package provides:

* :mod:`repro.analog` — MNA circuit simulator + the paper's Fig. 4/5 analog
  averaging circuit and test benches.
* :mod:`repro.sensor` — behavioral image-sensor model: pixel array, analog
  grayscale and k x k pooling, ADC, full-frame and selective-ROI readout.
* :mod:`repro.datasets` — procedural stand-ins for CrowdHuman, DHDCampus,
  VisDrone and RAF-DB with ground truth.
* :mod:`repro.ml` — NumPy ML stack: layers/training, detectors, classifiers
  and mAP evaluation.
* :mod:`repro.memory` — TFLite-Micro-style peak-SRAM/flash analyzer and a
  model zoo (MCUNetV2-like, MobileNetV2).
* :mod:`repro.transfer` — the paper's three sensor<->processor flows, in
  bytes.
* :mod:`repro.core` — the HiRISE system: ROI algebra, the Table 1 cost
  model, the energy model, and end-to-end pipelines.
* :mod:`repro.stream` — the video layer: stream runner, temporal and
  keyframe ROI reuse, batched exposure, and cumulative stream accounting.
* :mod:`repro.service` — the unified service API: component registries,
  serializable :class:`SystemSpec`/:class:`ScenarioSpec` specs, and the
  :class:`Engine` façade with concurrent batch execution.
* :mod:`repro.server` — the serving layer: a long-lived daemon
  (:class:`ReproServer`) owning one warm executor + cache behind a
  newline-delimited JSON socket protocol, and its blocking
  :class:`ServerClient`.
* :mod:`repro.experiments` — declarative experiment sweeps
  (:class:`SweepSpec`/:class:`SweepRunner`) that regenerate the paper's
  figures/tables as deterministic JSON + markdown reports.
* :mod:`repro.store` — the persistence subsystem: a crash-safe
  content-addressed :class:`ArtifactStore` backing the engine cache's
  disk tier (warm restarts), plus shared-memory clip transport for the
  process executor.
* :mod:`repro.codec` — the standard-library plain-data codec behind every
  spec, sweep, fault plan, ledger row and wire frame.
* :mod:`repro.faults` — deterministic, seeded fault injection
  (:class:`FaultPlan`/:class:`FaultInjector`) driving the self-healing
  executor, the retrying client, and the resilience benchmark.

The most commonly used names are re-exported lazily at the top level so that
``import repro.analog`` does not pay for the ML stack and vice versa.
"""

__version__ = "1.1.0"

#: Top-level name -> providing submodule, resolved lazily (PEP 562).
_EXPORTS = {
    "ROI": "repro.core",
    "HiRISEConfig": "repro.core",
    "HiRISEPipeline": "repro.core",
    "ConventionalPipeline": "repro.core",
    "PipelineOutcome": "repro.core",
    "PhaseProfile": "repro.core",
    "PhaseProfiler": "repro.core",
    "classify_crops": "repro.core",
    "CropClassifier": "repro.ml",
    "CropPrediction": "repro.ml",
    "CostBreakdown": "repro.core",
    "EnergyModel": "repro.core",
    "conventional_costs": "repro.core",
    "hirise_costs": "repro.core",
    "StreamRunner": "repro.stream",
    "StreamOutcome": "repro.stream",
    "TemporalROIReuse": "repro.stream",
    "Engine": "repro.service",
    "EngineCache": "repro.service",
    "Executor": "repro.service",
    "make_executor": "repro.service",
    "BatchResult": "repro.service",
    "RunResult": "repro.service",
    "SystemSpec": "repro.service",
    "ScenarioSpec": "repro.service",
    "ServiceSpec": "repro.service",
    "ComponentRef": "repro.service",
    "list_components": "repro.service",
    "ReproServer": "repro.server",
    "ServerClient": "repro.server",
    "ServerClosedError": "repro.server",
    "ServerError": "repro.server",
    "wait_for_server": "repro.server",
    "WorkUnitRetryError": "repro.service",
    "FaultPlan": "repro.faults",
    "FaultSpec": "repro.faults",
    "FaultInjector": "repro.faults",
    "InjectedFault": "repro.faults",
    "load_fault_plan": "repro.faults",
    "SweepSpec": "repro.experiments",
    "SweepAxis": "repro.experiments",
    "SweepRunner": "repro.experiments",
    "SweepResult": "repro.experiments",
    "load_sweep": "repro.experiments",
    "run_sweep": "repro.experiments",
    "build_report": "repro.experiments",
    "ArtifactStore": "repro.store",
    "StoreStats": "repro.store",
    "Finding": "repro.lint",
    "lint_paths": "repro.lint",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        return getattr(module, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__() -> list[str]:
    return __all__
