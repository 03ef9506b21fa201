"""Streaming extension benchmark: frames/sec and data transfer over video.

The paper (Tables 1/3, Figs. 6-8) costs single exposures; this bench runs
the system over a ≥30-frame synthetic pedestrian clip and compares five
policies, all declared as :mod:`repro.service` specs and served through
the :class:`~repro.service.Engine` (the unified front door this repo's
consumers use):

* **conventional** — ship every full frame (the Fig. 2a baseline, streamed);
* **hirise/frame** — the full two-stage HiRISE flow, one frame per Python
  iteration (``window=1``, the reference loop);
* **hirise/window** — same flow, but each window of frames is validated
  in one pass and each frame is exposed on demand, by the read that asks
  for it, into one reused exposure buffer (bit-identical by contract);
* **hirise/reuse** — temporal ROI reuse: IoU-gated skipping of the pooled
  conversion *and* the stage-1 detector on stable frames;
* **hirise/window+reuse** — the composition: whole windows are validated
  ahead while the policy still skips stage 1 per frame, and a reused
  frame exposes only the windows it reads.

Checks enforced here (the streaming acceptance bar):

1. **bit-identity matrix** — window sizes {1, 4, full clip} x executors
   {serial, thread, process} x reuse {off, on} all reproduce the
   per-frame serial oracle exactly (every ledger row, plus images and
   crops on the kept-outcome audit);
2. **composition gate** — under every HiRISE policy, the frames pooled
   in stage 1 are exactly the ledger's stage-1 frames: no window pools a
   frame that reuse then serves without stage 1 (a work count, so it is
   exact on shared runners and gates the tiny run too);
3. ROI reuse moves **strictly fewer bytes** and finishes **strictly
   faster** than per-frame HiRISE;
4. every HiRISE policy moves far fewer bytes than the conventional stream.

Everything measured lands in ``BENCH_stream.json`` at the repo root.
Knobs:

  ``REPRO_STREAM_TINY``  tiny workload, correctness asserts only
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from conftest import env_flag
from repro.bench import Table
from repro.core import HiRISEConfig
from repro.service import ComponentRef, Engine, ScenarioSpec, SystemSpec

TINY = env_flag("REPRO_STREAM_TINY")
N_FRAMES = 8 if TINY else 36
RESOLUTION = (128, 96) if TINY else (256, 192)
POOL_K = 4
WINDOW = 4 if TINY else 12           # the headline windowed policy
ROUNDS = 2 if TINY else 5            # best-of for wall-clock numbers

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_stream.json"

HIRISE_SYSTEM = SystemSpec(
    system="hirise",
    config=HiRISEConfig(pool_k=POOL_K, roi_pad_fraction=0.05, max_rois=8),
    detector=ComponentRef("ground-truth", {"label": "person"}),
)
CONVENTIONAL_SYSTEM = SystemSpec(
    system="conventional",
    detector=ComponentRef("ground-truth", {"label": "person"}),
)

REUSE = ComponentRef("temporal-reuse", {"max_reuse": 3})


def _scenario(name: str, **kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        source=ComponentRef("pedestrian", {"resolution": list(RESOLUTION)}),
        n_frames=N_FRAMES,
        seed=4,
        **kwargs,
    )


def _timed_run(engine: Engine, scenario: ScenarioSpec, clip) -> float:
    """One fresh wall-clock sample of a policy (for the speed gates).

    ``wall_time_s`` covers only the stream processing, so handing every
    sample the same pre-rendered clip changes nothing but the bench's own
    run time.
    """
    return engine.run(scenario, clip=clip).outcome.wall_time_s


#: The HiRISE policies by name, as scenario knobs.
HIRISE_POLICIES = {
    "hirise/frame": {},
    "hirise/window": {"window": WINDOW},
    "hirise/reuse": {"policy": REUSE},
    "hirise/window+reuse": {"window": WINDOW, "policy": REUSE},
}


def run_policies():
    hirise = Engine(HIRISE_SYSTEM)
    conventional = Engine(CONVENTIONAL_SYSTEM)
    # One batch call: the hirise scenarios share a (source, n_frames,
    # seed) triple, so the clip renders once.  The two runs without reuse
    # keep their outcomes for the image-level audit of check 1.
    batch = hirise.run_batch(
        [
            _scenario(name, keep_outcomes="policy" not in kwargs, **kwargs)
            for name, kwargs in HIRISE_POLICIES.items()
        ],
        workers=1,
    )
    results = {r.label: r.outcome for r in batch}
    results["conventional"] = conventional.run(_scenario("conventional")).outcome
    return results


def check_identity_matrix(emit) -> dict:
    """Acceptance grid: {1, 4, full} x {serial, thread, process} x reuse."""
    oracle_engine = Engine(HIRISE_SYSTEM)
    oracles = {
        policy: oracle_engine.run(
            _scenario(f"oracle/{policy.name}", policy=policy)
        ).outcome
        for policy in (ComponentRef("none"), REUSE)
    }
    windows = sorted({1, 4, N_FRAMES})
    grid = [
        _scenario(f"id/{policy.name}/w{window}", window=window, policy=policy)
        for policy in (ComponentRef("none"), REUSE)
        for window in windows
    ]
    cells = 0
    for executor in ("serial", "thread", "process"):
        engine = Engine(HIRISE_SYSTEM)
        for request, result in zip(grid, engine.run_batch(
            grid, workers=2, executor=executor
        )):
            want = oracles[request.policy]
            assert result.outcome.frames == want.frames, (
                f"{request.label} on {executor} diverged from the "
                "per-frame serial oracle"
            )
            assert result.outcome.system == want.system
            cells += 1
    emit(
        f"check 1: bit-identity across windows {windows} x 3 executors "
        f"x reuse on/off ({cells} cells)"
    )
    return {"windows": windows, "executors": 3, "cells": cells}


def test_stream_throughput(benchmark, emit):
    if not TINY:
        assert N_FRAMES >= 30

    results = benchmark.pedantic(run_policies, rounds=1, iterations=1)

    table = Table(
        f"streaming: {N_FRAMES} frames at {RESOLUTION[0]}x{RESOLUTION[1]}, "
        f"k={POOL_K}, window={WINDOW}",
        ["policy", "stage-1 runs", "kB/frame", "uJ/frame", "frames/s", "vs conv"],
        aligns=["l", "r", "r", "r", "r", "r"],
    )
    policies = (
        "conventional",
        "hirise/frame",
        "hirise/window",
        "hirise/reuse",
        "hirise/window+reuse",
    )
    conv_bytes = results["conventional"].total_bytes
    for name in policies:
        r = results[name]
        table.add_row(
            name,
            r.stage1_frames if r.system == "hirise" else "-",
            f"{r.mean_bytes_per_frame / 1024:.1f}",
            f"{r.mean_energy_per_frame_j * 1e6:.2f}",
            f"{r.frames_per_second:.0f}",
            f"{conv_bytes / r.total_bytes:.1f}x",
        )
    emit("\n" + table.render())

    per, win, reuse = (
        results["hirise/frame"],
        results["hirise/window"],
        results["hirise/reuse"],
    )
    win_reuse = results["hirise/window+reuse"]

    # 1. The bit-identity matrix (windows x executors x reuse), plus the
    # deep kept-outcome audit on the headline windowed run.
    matrix = check_identity_matrix(emit)
    assert len(win.outcomes) == len(per.outcomes) == N_FRAMES
    for a, b in zip(per.outcomes, win.outcomes):
        assert np.array_equal(a.stage1_image, b.stage1_image)
        assert len(a.roi_crops) == len(b.roi_crops)
        for ca, cb in zip(a.roi_crops, b.roi_crops):
            assert np.array_equal(ca, cb)
        assert a.ledger.breakdown() == b.ledger.breakdown()
        assert a.stage1_conversions == b.stage1_conversions
        assert a.stage2_conversions == b.stage2_conversions
    assert win.frames == per.frames
    assert win.total_bytes == per.total_bytes
    assert win_reuse.frames == reuse.frames

    # 2. The composition gate: the profiler's stage1.read span counts each
    # pooled stage-1 readout, which must be exactly the ledger's stage-1
    # frames under every HiRISE policy.
    profiled = Engine(HIRISE_SYSTEM, profile=True)
    pooled = {}
    for name, kwargs in HIRISE_POLICIES.items():
        result = profiled.run(_scenario(name, **kwargs))
        reads = result.profile.get("stage1.read")
        pooled[name] = reads.calls if reads is not None else 0
        stage1 = result.outcome.stage1_frames
        assert pooled[name] == stage1 == results[name].stage1_frames, (
            f"{name} pooled {pooled[name]} frames for {stage1} stage-1 frames"
        )
    emit(
        "check 2: pooled stage-1 frames == ledger stage-1 frames under every "
        "HiRISE policy (" + ", ".join(f"{n} {c}" for n, c in pooled.items()) + ")"
    )

    # 3. Temporal ROI reuse strictly beats per-frame HiRISE on both axes.
    # Wall-clock samples on a shared CI runner can be stalled by the
    # scheduler, so compare the best of ROUNDS fresh runs per policy — the
    # minimum estimates each policy's intrinsic cost.
    hirise = Engine(HIRISE_SYSTEM)
    from repro.stream import pedestrian_clip

    clip = pedestrian_clip(n_frames=N_FRAMES, resolution=RESOLUTION, seed=4)
    per_time = min(
        per.wall_time_s,
        *(_timed_run(hirise, _scenario("t"), clip) for _ in range(ROUNDS)),
    )
    assert reuse.reused_frames > 0
    assert reuse.total_bytes < per.total_bytes
    assert reuse.total_energy_j < per.total_energy_j
    for frame in reuse.frames:
        if frame.reused_rois:
            assert frame.stage1_bytes == 0 and frame.stage1_conversions == 0
    reuse_time = min(
        reuse.wall_time_s,
        *(
            _timed_run(hirise, _scenario("t", policy=REUSE), clip)
            for _ in range(ROUNDS)
        ),
    )
    if not TINY:
        assert reuse_time < per_time
    emit(
        f"check 3: reuse skipped stage 1 on {reuse.reused_frames}/{reuse.n_frames} "
        f"frames -> {per.total_bytes / reuse.total_bytes:.2f}x fewer bytes, "
        f"{per_time / reuse_time:.2f}x faster (best of {ROUNDS + 1})"
    )

    # 4. Every HiRISE policy transfers far less than the conventional stream.
    for name in policies[1:]:
        assert results[name].total_bytes * 2 < conv_bytes
    emit("check 4: every HiRISE policy moves <50% of the conventional bytes")

    payload = {
        "tiny": TINY,
        "n_frames": N_FRAMES,
        "resolution": list(RESOLUTION),
        "pool_k": POOL_K,
        "window": WINDOW,
        "identity_matrix": matrix,
        "policies": {
            name: {
                "stage1_frames": results[name].stage1_frames,
                "reused_frames": results[name].reused_frames,
                "total_bytes": results[name].total_bytes,
                "total_energy_j": results[name].total_energy_j,
                "frames_per_second": results[name].frames_per_second,
                "bytes_vs_conventional": conv_bytes / results[name].total_bytes,
            }
            for name in policies
        },
        "gate": {
            "pooled_stage1_frames": pooled,
            "reuse_speedup": per_time / reuse_time,
            "rounds": ROUNDS + 1,
            "enforced": not TINY,
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    emit(f"wrote {OUTPUT.name}")
