"""The sweep runner: expand a grid, serve it, keep tidy per-cell records.

:class:`SweepRunner` turns a :class:`~repro.experiments.SweepSpec` into
Engine work: cells are grouped by their (distinct) system spec, each group
becomes one :meth:`Engine.run_batch` on a **shared executor** (one warm
pool across every group, process by default) and a **shared
:class:`~repro.service.EngineCache`** — the clip tier is system-agnostic,
so a pooling sweep over one workload renders each clip once no matter how
many systems read it (in-process executors share the cache directly;
process-pool workers share one clip cache per worker process, so a clip
is rendered at most once per worker rather than once per system).  Each
cell also asks for its baseline run (when the sweep declares one) through
the same cache, whose result tier builds it once per distinct clip.

Determinism is inherited wholesale from the engine: per-cell results are
bit-identical to fresh serial runs whatever executor or cache served them
(test- and bench-asserted), which is what makes a sweep a reproducible
paper artifact rather than a measurement session.

Each cell yields a :class:`CellRecord`: the exact specs served, a flat
``metrics`` dict distilled from the :class:`~repro.stream.StreamOutcome`,
optional stage-2 prediction labels (when the scenario keeps outcomes),
optional baseline metrics + reduction factors, and the cell's
:class:`~repro.core.PhaseProfile` when the runner profiles.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.profiling import PhaseProfile
from ..service.cache import CacheStats, EngineCache, spec_fingerprint
from ..service.engine import Engine, RunResult
from ..service.executor import Executor, make_executor
from ..stream.ledger import StreamOutcome
from .sweep import SweepCell, SweepSpec

#: StreamOutcome attributes distilled into ``CellRecord.metrics``, in
#: report-column order.  All are deterministic functions of the specs.
METRIC_NAMES = (
    "n_frames",
    "stage1_frames",
    "reused_frames",
    "total_bytes",
    "stage1_bytes",
    "roi_feedback_bytes",
    "stage2_bytes",
    "total_energy_j",
    "total_conversions",
    "peak_image_memory_bytes",
    "mean_bytes_per_frame",
    "mean_energy_per_frame_j",
)

#: metric -> baseline/cell reduction name surfaced on ``CellRecord``.
REDUCTION_METRICS = {
    "total_bytes": "transfer_reduction",
    "total_energy_j": "energy_reduction",
    "total_conversions": "conversion_reduction",
    "peak_image_memory_bytes": "memory_reduction",
}


def outcome_metrics(outcome: StreamOutcome) -> dict:
    """Flatten a stream ledger into the tidy per-cell metric dict."""
    return {name: getattr(outcome, name) for name in METRIC_NAMES}


def _prediction_labels(outcome: StreamOutcome) -> tuple[str, ...] | None:
    """Stage-2 predictions as comparable strings (``None`` = not kept)."""
    if not outcome.outcomes:
        return None
    labels = []
    for frame_outcome in outcome.outcomes:
        for prediction in frame_outcome.predictions:
            label = getattr(prediction, "label", None)
            if label is None:
                label = (
                    f"{prediction:.12g}"
                    if isinstance(prediction, float)
                    else str(prediction)
                )
            labels.append(str(label))
    return tuple(labels)


@dataclass(frozen=True)
class CellRecord:
    """One served grid cell, distilled for reporting.

    Attributes:
        cell: the grid point (specs, overrides, label, replicate).
        metrics: flat outcome numbers (see :data:`METRIC_NAMES`).
        labels: stage-2 prediction labels in stream order, when the
            scenario kept outcomes (the Table 2 parity signal).
        baseline: the reference system's metrics on the same clip, when
            the sweep declared a baseline.
        profile: per-phase wall-clock breakdown (profiled runs only).
    """

    cell: SweepCell
    metrics: dict
    labels: tuple[str, ...] | None = None
    baseline: dict | None = None
    profile: PhaseProfile | None = None

    def __hash__(self) -> int:
        return hash(self.cell)

    @property
    def reductions(self) -> dict:
        """Paper-style baseline/cell factors (empty without a baseline)."""
        if self.baseline is None:
            return {}
        out = {}
        for metric, name in REDUCTION_METRICS.items():
            cell_value = self.metrics[metric]
            if cell_value:
                out[name] = self.baseline[metric] / cell_value
        return out

    # The row deliberately flattens the cell (specs live in the sweep
    # header) and drops the profile (run metadata), and nothing parses
    # a report row back into a CellRecord.
    # repro: lint-ok[spec-roundtrip] one-way report row, never parsed back
    def to_dict(self) -> dict:
        """Deterministic plain-data row (no wall-clock, no profile)."""
        data = {
            "label": self.cell.label,
            "replicate": self.cell.replicate,
            "overrides": {path: value for path, value in self.cell.overrides},
            "metrics": dict(self.metrics),
        }
        if self.labels is not None:
            data["labels"] = list(self.labels)
        if self.baseline is not None:
            data["baseline"] = dict(self.baseline)
            data["reductions"] = self.reductions
        return data


@dataclass
class SweepResult:
    """A whole sweep's output: records in grid order plus run metadata.

    ``records`` and everything reachable from them are deterministic
    functions of the sweep spec; ``wall_time_s``, ``cache``, and
    ``profile`` describe *this* run and are deliberately excluded from
    :meth:`to_dict` so emitted artifacts are byte-stable.
    """

    spec: SweepSpec
    records: tuple[CellRecord, ...] = ()
    executor: str = "serial"
    workers: int = 1
    wall_time_s: float = 0.0
    cache: CacheStats | None = None
    profile: PhaseProfile | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_dict(self) -> dict:
        """Deterministic plain-data form (spec + per-cell records)."""
        return {
            "sweep": self.spec.to_dict(),
            "records": [record.to_dict() for record in self.records],
        }

    def describe(self) -> str:
        """One-line run summary (wall clock, cache) for logs — not artifacts."""
        pool = (
            # the serial executor runs in the calling thread regardless
            # of the requested pool size — don't report phantom workers
            f"{self.executor} executor"
            if self.executor == "serial"
            else f"{self.executor} executor x {self.workers} worker(s)"
        )
        text = (
            f"[sweep {self.spec.name}] {len(self.records)} cell(s), "
            f"{pool}, {self.wall_time_s * 1e3:.0f} ms wall"
        )
        if self.cache is not None:
            text += f"\n  cache: {self.cache.describe()}"
        return text


class SweepRunner:
    """Executes a :class:`SweepSpec` and aggregates tidy records.

    Attributes:
        spec: the sweep to run.
        executor: executor name, or a constructed
            :class:`~repro.service.Executor` to reuse a warm pool the
            caller owns (borrowed pools are not closed).  Defaults to the
            spec's executor.
        workers: pool size (defaults to the spec's).
        cache: shared :class:`~repro.service.EngineCache` for every
            engine the sweep builds; pass
            :meth:`EngineCache.disabled() <repro.service.EngineCache.disabled>`
            to force every cell to recompute.
        store: optional :class:`~repro.store.ArtifactStore` backing the
            shared cache's persistent tier — re-running a sweep against
            a populated store resumes from disk instead of recomputing
            (ignored when an explicit ``cache`` is passed).
        profile: attach per-phase profiles to every record (profiled
            requests always recompute; see the engine contract).
    """

    def __init__(
        self,
        spec: SweepSpec,
        executor: str | Executor | None = None,
        workers: int | None = None,
        cache: EngineCache | None = None,
        profile: bool = False,
        store=None,
    ):
        self.spec = spec
        self.executor = executor if executor is not None else spec.executor
        self.workers = workers if workers is not None else spec.workers
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        self.cache = cache if cache is not None else EngineCache(store=store)
        self.profile = profile

    def run(self) -> SweepResult:
        """Serve the whole grid (plus baselines) and return the records."""
        spec = self.spec
        cells = spec.cells()

        if isinstance(self.executor, Executor):
            pool, owned = self.executor, False
        else:
            pool, owned = make_executor(self.executor, self.workers), True

        start = time.perf_counter()
        stats_before = self.cache.stats()
        try:
            results = self._serve_cells(cells, pool)
            baselines = self._serve_baselines(cells, pool)
        finally:
            if owned:
                pool.close()
        wall = time.perf_counter() - start

        records = []
        for cell in cells:
            result = results[cell.index]
            baseline_result = baselines.get(cell.index)
            records.append(
                CellRecord(
                    cell=cell,
                    metrics=outcome_metrics(result.outcome),
                    labels=_prediction_labels(result.outcome),
                    baseline=(
                        None
                        if baseline_result is None
                        else outcome_metrics(baseline_result.outcome)
                    ),
                    profile=result.profile,
                )
            )
        profiles = [r.profile for r in records if r.profile is not None]
        return SweepResult(
            spec=spec,
            records=tuple(records),
            executor=pool.name,
            workers=pool.workers,
            wall_time_s=wall,
            cache=self.cache.stats() - stats_before,
            profile=PhaseProfile.merge(profiles) if profiles else None,
        )

    # -- internals ---------------------------------------------------------------

    def _serve_cells(
        self, cells: tuple[SweepCell, ...], pool: Executor
    ) -> dict[int, RunResult]:
        """Run every cell, one engine batch per distinct system spec."""
        groups: dict[str, list[SweepCell]] = {}
        for cell in cells:
            key = spec_fingerprint(cell.system.to_dict()) or repr(cell.system)
            groups.setdefault(key, []).append(cell)
        results: dict[int, RunResult] = {}
        for group in groups.values():
            engine = Engine(
                group[0].system, cache=self.cache, profile=self.profile
            )
            batch = engine.run_batch(
                [cell.scenario for cell in group],
                workers=self.workers,
                executor=pool,
            )
            for cell, result in zip(group, batch.results):
                results[cell.index] = result
        return results

    def _serve_baselines(
        self, cells: tuple[SweepCell, ...], pool: Executor
    ) -> dict[int, RunResult]:
        """Run the baseline system for every cell.

        Cells sharing a clip ask for the same baseline spec; the result
        tier single-flights them, so it is built once per clip unless the
        sweep's cache is disabled.
        """
        if self.spec.baseline is None:
            return {}
        engine = Engine(self.spec.baseline, cache=self.cache, profile=False)
        batch = engine.run_batch(
            [self.spec.baseline_scenario(cell.scenario) for cell in cells],
            workers=self.workers,
            executor=pool,
        )
        return {cell.index: result for cell, result in zip(cells, batch.results)}


def run_sweep(
    spec: SweepSpec,
    executor: str | Executor | None = None,
    workers: int | None = None,
    cache: EngineCache | None = None,
    profile: bool = False,
    store=None,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(
        spec,
        executor=executor,
        workers=workers,
        cache=cache,
        profile=profile,
        store=store,
    ).run()
