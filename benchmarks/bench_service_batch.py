"""Service batch benchmark: executor sweep + result-cache acceptance.

The service layer's promise is that one :class:`Engine` can serve a
*fleet* of declarative scenarios faster than running them one by one,
without changing a single bit of any result.  This bench serves a
six-scenario workload (pedestrian and drone clips under per-frame,
batched-stage-1, and temporal-reuse policies) through every executor and
enforces:

1. every executor — serial, thread, and the spawn-safe process pool — is
   **bit-identical** to sequential, cache-free ``engine.run`` calls;
2. on multi-core hardware the **process executor beats the thread
   executor** wall-clock on this CPU-bound fleet (best-of-N, warm pools;
   the pipeline work is GIL-bound NumPy+Python, which threads cannot
   overlap).  Skipped on single-core runners, where no executor can
   physically win, and in tiny smoke mode;
3. the **result cache** serves a repeated batch entirely from hits —
   reported on ``BatchResult.cache`` — bit-identically and faster than
   the cold batch;
4. the aggregate ledger equals the sum of its per-request parts.

Env knobs (the CI smoke uses both):
  ``REPRO_SERVICE_EXECUTORS``  comma list to sweep (default: all three)
  ``REPRO_SERVICE_TINY``       tiny workload, correctness asserts only
"""

from __future__ import annotations

import os
import time

from conftest import env_flag

from repro.bench import Table
from repro.core import HiRISEConfig
from repro.service import (
    ComponentRef,
    Engine,
    EngineCache,
    ScenarioSpec,
    SystemSpec,
    make_executor,
)

TINY = env_flag("REPRO_SERVICE_TINY")
RESOLUTION = (128, 96) if TINY else (320, 240)
N_FRAMES = 4 if TINY else 24
WORKERS = 2 if TINY else 4
ROUNDS = 1 if TINY else 3
SWEEP = [
    name.strip()
    for name in os.environ.get(
        "REPRO_SERVICE_EXECUTORS", "serial,thread,process"
    ).split(",")
    if name.strip()
]

SYSTEM = SystemSpec(
    system="hirise",
    config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05, max_rois=8),
    detector=ComponentRef("ground-truth"),
)


def workload() -> list[ScenarioSpec]:
    """Six requests over two clips: every policy, both workloads."""
    scenarios = []
    for source, seed in (("pedestrian", 4), ("drone", 11)):
        ref = ComponentRef(source, {"resolution": list(RESOLUTION)})
        common = dict(source=ref, n_frames=N_FRAMES, seed=seed)
        scenarios += [
            ScenarioSpec(name=f"{source}/per-frame", **common),
            ScenarioSpec(name=f"{source}/batched", window=8, **common),
            ScenarioSpec(
                name=f"{source}/reuse",
                policy=ComponentRef("temporal-reuse", {"max_reuse": 3}),
                **common,
            ),
        ]
    return scenarios


def compute_engine() -> Engine:
    """An engine that always recomputes results (clip sharing stays on —
    it is structural to batch serving — but nothing is memoized, so
    timings measure executor compute, not cache lookups)."""
    return Engine(SYSTEM, cache=EngineCache(clip_capacity=8, result_capacity=0))


def sweep_executors(requests):
    """Best-of-ROUNDS wall time per executor, plus each one's results."""
    timings, results = {}, {}
    for name in SWEEP:
        engine = compute_engine()
        with make_executor(name, WORKERS) as pool:
            best = None
            for _ in range(ROUNDS):
                batch = engine.run_batch(requests, executor=pool)
                best = batch.wall_time_s if best is None else min(best, batch.wall_time_s)
            timings[name] = best
            results[name] = batch
    return timings, results


def test_service_executors(benchmark, emit):
    requests = workload()
    reference = Engine(SYSTEM, cache=EngineCache.disabled())

    start = time.perf_counter()
    sequential = [reference.run(r) for r in requests]
    seq_time = time.perf_counter() - start

    timings, results = benchmark.pedantic(
        sweep_executors, args=(requests,), rounds=1, iterations=1
    )

    table = Table(
        f"service batch: {len(requests)} scenarios, {N_FRAMES} frames each "
        f"at {RESOLUTION[0]}x{RESOLUTION[1]}, {WORKERS} workers",
        ["executor", "best ms", "vs sequential"],
        aligns=["l", "r", "r"],
    )
    table.add_row("(sequential)", f"{seq_time * 1e3:.0f}", "1.00x")
    for name, best in timings.items():
        table.add_row(name, f"{best * 1e3:.0f}", f"{seq_time / best:.2f}x")
    emit("\n" + table.render())

    # 1. Every executor is bit-identical to sequential, cache-free runs.
    for name, batch in results.items():
        assert batch.executor == name
        assert len(batch) == len(sequential)
        for seq_result, batch_result in zip(sequential, batch):
            assert batch_result.scenario == seq_result.scenario
            assert batch_result.outcome.frames == seq_result.outcome.frames
    emit(f"check 1: {', '.join(results)} bit-identical to sequential run()")

    # 2. True parallelism wins where the hardware allows it: the process
    # pool must beat the GIL-bound thread pool on this CPU-bound fleet.
    # Best-of-N with persistent pools estimates each path's intrinsic
    # steady-state cost (spawn startup is amortized away, as in serving).
    cores = os.cpu_count() or 1
    if TINY or "process" not in timings or "thread" not in timings:
        emit("check 2: skipped (tiny smoke mode or partial sweep)")
    elif cores < 2:
        emit(f"check 2: skipped ({cores} core: no executor can win wall-clock)")
    else:
        assert timings["process"] < timings["thread"], (
            f"process executor ({timings['process'] * 1e3:.0f} ms) must beat "
            f"threads ({timings['thread'] * 1e3:.0f} ms) on {cores} cores"
        )
        emit(
            f"check 2: process {timings['process'] * 1e3:.0f} ms < thread "
            f"{timings['thread'] * 1e3:.0f} ms on {cores} cores "
            f"(best of {ROUNDS})"
        )

    # 3. The aggregate ledger is exactly the sum of its parts.
    some = next(iter(results.values()))
    assert some.total_bytes == sum(r.outcome.total_bytes for r in sequential)
    assert some.total_frames == len(requests) * N_FRAMES
    assert some.total_conversions == sum(
        r.outcome.total_conversions for r in sequential
    )
    emit("check 3: batch aggregate equals the sum of per-request ledgers")


def test_service_result_cache(emit):
    """Cross-request memoization: a repeated fleet costs lookups, not compute."""
    requests = workload()
    engine = Engine(SYSTEM)  # default cache: both tiers on

    cold = engine.run_batch(requests, workers=WORKERS)
    warm = engine.run_batch(requests, workers=WORKERS)

    # Hit/miss/eviction stats are surfaced per batch on BatchResult.
    assert cold.cache is not None
    assert cold.cache.results.misses == len(requests)
    assert cold.cache.clips.misses == 2  # one render per distinct clip
    assert cold.cache.clips.hits == len(requests) - 2
    assert warm.cache.results.hits == len(requests)
    assert warm.cache.results.misses == 0
    assert "cache:" in warm.report()

    # Cached results are bit-identical to the computed ones, and the warm
    # batch never touches the pipeline, so it is strictly faster (a
    # wall-clock claim — not asserted in tiny smoke mode, like check 2).
    for a, b in zip(cold, warm):
        assert a.outcome.frames == b.outcome.frames
    if not TINY:
        assert warm.wall_time_s < cold.wall_time_s
    emit(
        f"\ncheck 4: result cache — cold {cold.wall_time_s * 1e3:.0f} ms "
        f"({cold.cache.results.misses} misses) vs warm "
        f"{warm.wall_time_s * 1e3:.0f} ms ({warm.cache.results.hits} hits), "
        f"bit-identical"
    )
