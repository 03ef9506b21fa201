"""Store benchmark: warm restarts and shared-memory clip transport.

PR 7's persistence subsystem (``repro.store``) makes two promises this
bench drives end to end and gates on:

1. **Restart purity** — a daemon or sweep restarted against a populated
   ``ArtifactStore`` recomputes *nothing*: every reply is served through
   the disk tier (``disk_misses == 0``) and is bit-identical to the run
   that populated the store.
2. **Shared-memory dispatch beats pickle dispatch** — shipping a large
   rendered clip to process-pool workers through one
   ``multiprocessing.shared_memory`` segment is faster than pickling a
   copy into every chunk.  The executor-level gate needs real
   parallelism, so it is skipped on single-core runners and under
   ``REPRO_STORE_TINY``; the single-process transport microbenchmark
   (share+attach vs dumps+loads) asserts everywhere.

What it *reports* (to ``BENCH_store.json`` at the repo root): store
write/read throughput, restart speedups, and the transport walls.

Env knobs (CI smoke uses the first):
  ``REPRO_STORE_TINY``    tiny workload, correctness asserts only
"""

from __future__ import annotations

import json
import os
import pickle
import time
from pathlib import Path

import pytest

from conftest import env_flag

from repro.bench import Table
from repro.experiments import SweepSpec, run_sweep
from repro.faults import FaultPlan, FaultSpec
from repro.server import ReproServer, ServerClient
from repro.service import Engine, ScenarioSpec, SystemSpec
from repro.service.executor import ProcessExecutor
from repro.store import ArtifactStore, MISS, attach_clip, share_clip

TINY = env_flag("REPRO_STORE_TINY")
RESOLUTION = (96, 72) if TINY else (160, 120)
N_FRAMES = 3 if TINY else 10
N_SCENARIOS = 3 if TINY else 5

#: The transport race uses big clips (the payload under test) with heavy
#: temporal reuse so per-frame compute stays small relative to transport.
BIG_RESOLUTION = (128, 96) if TINY else (640, 480)
BIG_FRAMES = 3 if TINY else 8
TRANSPORT_ROUNDS = 1 if TINY else 4
TRANSPORT_VARIANTS = 2  # distinct scenarios per clip per round

SYSTEM = {"system": {"system": "hirise"}}
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def update_payload(section: str, data: dict) -> None:
    """Merge one section into ``BENCH_store.json`` (tests run in order)."""
    payload = {}
    if OUTPUT.exists():
        try:
            payload = json.loads(OUTPUT.read_text())
        except ValueError:
            payload = {}
    payload["experiment"] = "store"
    payload["tiny"] = TINY
    payload[section] = data
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")


def workload() -> list[ScenarioSpec]:
    """Distinct scenarios over both synthetic sources, shared-clip pairs."""
    scenarios = []
    for index in range(N_SCENARIOS):
        source = ("pedestrian", "drone")[index % 2]
        spec = {
            "source": {"name": source, "params": {"resolution": list(RESOLUTION)}},
            "n_frames": N_FRAMES,
            "seed": 300 + index // 2,
            "name": f"store-{source}-{index}",
        }
        if index % 3 == 2:
            spec["policy"] = {"name": "temporal-reuse", "params": {"max_reuse": 2}}
        scenarios.append(ScenarioSpec.from_dict(spec))
    return scenarios


# -- 1. raw store throughput -------------------------------------------------------


def test_store_write_read_throughput(emit, tmp_path):
    """Round-trip clips through the store; report MB/s, assert integrity."""
    engine = Engine(SystemSpec())
    clips = {
        f"clip-{seed}": engine._build_clip(
            ScenarioSpec.from_dict(
                {
                    "source": {
                        "name": "pedestrian",
                        "params": {"resolution": list(RESOLUTION)},
                    },
                    "n_frames": N_FRAMES,
                    "seed": seed,
                }
            )
        )
        for seed in range(3)
    }
    store = ArtifactStore(tmp_path / "store")

    start = time.perf_counter()
    written = sum(store.put("clip", key, clip) for key, clip in clips.items())
    write_wall = time.perf_counter() - start
    assert written > 0
    # Dedup: a second put of the same content writes nothing.
    assert store.put("clip", "clip-0", clips["clip-0"]) == 0

    start = time.perf_counter()
    for key, clip in clips.items():
        loaded = store.load("clip", key)
        assert loaded is not MISS
        for original, restored in zip(clip.frames, loaded.frames):
            assert (original == restored).all()
    read_wall = time.perf_counter() - start

    # A truncated file degrades to a quarantined miss, never an error.
    path = store._path("clip", "clip-1")
    path.write_bytes(path.read_bytes()[:-64])
    assert store.load("clip", "clip-1") is MISS
    assert store.snapshot().errors == 1

    mb = written / 1e6
    table = Table(
        f"artifact store: {len(clips)} clip(s), {mb:.1f} MB",
        ["op", "wall ms", "MB/s"],
        aligns=["l", "r", "r"],
    )
    table.add_row("put (write-through)", f"{write_wall * 1e3:.1f}",
                  f"{mb / write_wall:.0f}")
    table.add_row("load (verified read)", f"{read_wall * 1e3:.1f}",
                  f"{mb / read_wall:.0f}")
    emit("\n" + table.render())
    update_payload(
        "throughput",
        {
            "payload_mb": mb,
            "write_mb_s": mb / write_wall,
            "read_mb_s": mb / read_wall,
        },
    )


# -- 2. daemon restart purity ------------------------------------------------------


def test_daemon_restart_is_pure_disk_hits(emit, tmp_path):
    """A restarted ``serve --store-dir`` daemon replays from disk, bit-identical."""
    scenarios = workload()
    store_dir = tmp_path / "store"

    # Populating run: a cold daemon computes everything and writes through.
    with ReproServer(
        SYSTEM, workers=2, executor="thread", store=ArtifactStore(store_dir)
    ) as server:
        with ServerClient(*server.address) as client:
            start = time.perf_counter()
            first = [client.run(spec) for spec in scenarios]
            populate_wall = time.perf_counter() - start
            populate_stats = client.stats()
    assert populate_stats.cache["results"]["disk_misses"] == len(scenarios)
    assert populate_stats.cache["store"]["writes"] > 0

    # Restarted run: a NEW daemon + NEW store handle on the same root.
    with ReproServer(
        SYSTEM, workers=2, executor="thread", store=ArtifactStore(store_dir)
    ) as server:
        with ServerClient(*server.address) as client:
            start = time.perf_counter()
            second = [client.run(spec) for spec in scenarios]
            restart_wall = time.perf_counter() - start
            restart_stats = client.stats()

    # Gate (a): pure disk hits, nothing recomputed, bit-identical replies.
    results = restart_stats.cache["results"]
    assert results["disk_misses"] == 0, results
    assert results["disk_hits"] == len(scenarios)
    assert restart_stats.cache["store"]["writes"] == 0
    for a, b in zip(second, first):
        assert a.scenario == b.scenario
        assert a.outcome.frames == b.outcome.frames
        assert a.outcome.total_bytes == b.outcome.total_bytes
    speedup = populate_wall / restart_wall if restart_wall > 0 else float("inf")
    emit(
        f"\ndaemon restart: {len(scenarios)} request(s) replayed from disk "
        f"in {restart_wall * 1e3:.0f} ms vs {populate_wall * 1e3:.0f} ms cold "
        f"({speedup:.1f}x), 0 disk misses, bit-identical"
    )
    update_payload(
        "daemon_restart",
        {
            "requests": len(scenarios),
            "populate_wall_s": populate_wall,
            "restart_wall_s": restart_wall,
            "speedup": speedup,
            "disk_misses": results["disk_misses"],
            "bit_identical": True,
        },
    )


# -- 3. sweep restart purity -------------------------------------------------------


def test_sweep_restart_resumes_from_store(emit, tmp_path):
    """A re-run sweep against a populated store recomputes nothing."""
    spec = SweepSpec.from_dict(
        {
            "name": "store-resume",
            "system": {"system": "hirise"},
            "scenario": {
                "source": {
                    "name": "pedestrian",
                    "params": {"resolution": list(RESOLUTION)},
                },
                "n_frames": N_FRAMES,
                "seed": 7,
            },
            "axes": [{"path": "system.config.pool_k", "values": [2, 4]}],
            "executor": "serial",
            "workers": 1,
        }
    )
    store_dir = tmp_path / "store"

    start = time.perf_counter()
    first = run_sweep(spec, store=ArtifactStore(store_dir))
    populate_wall = time.perf_counter() - start

    start = time.perf_counter()
    second = run_sweep(spec, store=ArtifactStore(store_dir))
    restart_wall = time.perf_counter() - start

    # Gate (a), sweep flavor: identical artifact, zero disk misses.
    assert second.to_dict() == first.to_dict()
    assert second.cache.results.disk_misses == 0, second.cache.describe()
    assert second.cache.results.disk_hits == second.cache.results.misses
    speedup = populate_wall / restart_wall if restart_wall > 0 else float("inf")
    emit(
        f"\nsweep restart: {len(second)} cell(s) resumed from disk in "
        f"{restart_wall * 1e3:.0f} ms vs {populate_wall * 1e3:.0f} ms cold "
        f"({speedup:.1f}x), 0 disk misses, identical artifact"
    )
    update_payload(
        "sweep_restart",
        {
            "cells": len(second),
            "populate_wall_s": populate_wall,
            "restart_wall_s": restart_wall,
            "speedup": speedup,
            "disk_misses": second.cache.results.disk_misses,
            "identical_artifact": True,
        },
    )


# -- 4. shared-memory clip transport -----------------------------------------------


def big_clip_scenarios(round_index: int) -> list[ScenarioSpec]:
    """Fresh result keys every round (names differ), same two big clips."""
    scenarios = []
    for clip_index, source in enumerate(("pedestrian", "drone")):
        for variant in range(TRANSPORT_VARIANTS):
            scenarios.append(
                ScenarioSpec.from_dict(
                    {
                        "source": {
                            "name": source,
                            "params": {"resolution": list(BIG_RESOLUTION)},
                        },
                        "n_frames": BIG_FRAMES,
                        "seed": 900 + clip_index,
                        "name": f"xport-r{round_index}-c{clip_index}-v{variant}",
                        "policy": {
                            "name": "temporal-reuse",
                            "params": {"max_reuse": 1000},
                        },
                    }
                )
            )
    return scenarios


def test_shm_transport_microbench(emit):
    """share+attach must beat a pickle round-trip on one big clip."""
    engine = Engine(SystemSpec())
    clip = engine._build_clip(big_clip_scenarios(0)[0])

    def shm_roundtrip():
        lease = share_clip(clip)
        assert lease is not None
        try:
            restored = attach_clip(lease.handle)
            # Touch one frame so lazily-mapped pages are actually read.
            assert restored.frames[0][0, 0, 0] == clip.frames[0][0, 0, 0]
        finally:
            lease.destroy()

    def pickle_roundtrip():
        restored = pickle.loads(pickle.dumps(clip, protocol=pickle.HIGHEST_PROTOCOL))
        assert restored.frames[0][0, 0, 0] == clip.frames[0][0, 0, 0]

    def best_of(fn, reps=3):
        walls = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            walls.append(time.perf_counter() - start)
        return min(walls)

    shm_wall = best_of(shm_roundtrip)
    pickle_wall = best_of(pickle_roundtrip)
    emit(
        f"\ntransport microbench ({clip.nbytes / 1e6:.1f} MB clip): "
        f"shm {shm_wall * 1e3:.2f} ms vs pickle {pickle_wall * 1e3:.2f} ms "
        f"({pickle_wall / shm_wall:.1f}x)"
    )
    update_payload(
        "transport_microbench",
        {
            "clip_mb": clip.nbytes / 1e6,
            "shm_ms": shm_wall * 1e3,
            "pickle_ms": pickle_wall * 1e3,
        },
    )
    if not TINY:
        # One segment memcpy + one mapping vs serialize + copy + rebuild.
        assert shm_wall < pickle_wall


@pytest.mark.skipif(TINY, reason="REPRO_STORE_TINY: timing gates disabled")
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="transport race needs >= 2 cores"
)
def test_shm_dispatch_beats_pickle(emit):
    """Executor-level gate (b): shm dispatch beats pickle on large clips.

    The pickle side makes every ``share_clip`` fail (an ``shm.share``
    fault at rate 1), so the executor pickles each clip into every chunk.
    """
    no_share = FaultPlan(
        name="no-share",
        seed=0,
        faults=(FaultSpec("shm.share", "shm-attach-gone", rate=1.0),),
    )
    walls = {}
    reference: list | None = None
    for transport in ("pickle", "shm"):
        engine = Engine(
            SystemSpec(), faults=no_share if transport == "pickle" else None
        )
        with ProcessExecutor(workers=2) as pool:
            # Untimed warmup: spawn the pool, render the clips into the
            # parent tier (workers render this round; the timed rounds
            # ship those rendered clips).
            warm = pool.execute(engine, big_clip_scenarios(99))
            for scenario in big_clip_scenarios(98):
                engine.run(scenario)  # parent memory tier now holds both clips
            start = time.perf_counter()
            outputs = []
            for round_index in range(TRANSPORT_ROUNDS):
                outputs.append(
                    pool.execute(engine, big_clip_scenarios(round_index))
                )
            walls[transport] = time.perf_counter() - start
        frames = [
            result.outcome.frames for batch in outputs for result in batch
        ]
        if reference is None:
            reference = frames
        else:
            assert frames == reference  # transports are bit-identical
        del warm

    dispatched = TRANSPORT_ROUNDS * 2 * TRANSPORT_VARIANTS
    table = Table(
        f"clip transport: {dispatched} dispatches of 2 big clips "
        f"({BIG_RESOLUTION[0]}x{BIG_RESOLUTION[1]} x {BIG_FRAMES} frames), "
        "2 workers",
        ["transport", "wall ms", "vs pickle"],
        aligns=["l", "r", "r"],
    )
    for transport in ("pickle", "shm"):
        table.add_row(
            transport,
            f"{walls[transport] * 1e3:.0f}",
            f"{walls['pickle'] / walls[transport]:.2f}x",
        )
    emit("\n" + table.render())
    update_payload(
        "transport_dispatch",
        {
            "dispatches": dispatched,
            "pickle_wall_s": walls["pickle"],
            "shm_wall_s": walls["shm"],
            "speedup": walls["pickle"] / walls["shm"],
        },
    )
    # Gate (b): one shared segment per clip beats per-chunk pickled copies.
    assert walls["shm"] < walls["pickle"], walls
