#!/usr/bin/env python
"""Streaming HiRISE through the service Engine, one spec per policy.

The paper evaluates single frames; real deployments stream video.  This
script declares the same pedestrian clip under four policies as *specs* —
plain data, no hand-wired pipelines — and serves them all through one
:class:`repro.service.Engine` call:

* **conventional**   — ship every full frame (Fig. 2a, streamed);
* **hirise/frame**   — the two-stage HiRISE flow on every frame;
* **hirise/window**  — same results bit-for-bit, but exposure vectorized
  over 12-frame windows into a preallocated exposure buffer
  (``window=12``);
* **hirise/reuse**   — temporal ROI reuse: frames whose stage-1 results
  proved stable (IoU-gated) skip the pooled conversion *and* the detector,
  reading only tracker-predicted windows (composes with ``window=``: a
  frame is pooled only if it runs stage 1).  ``policy="keyframe"`` swaps
  in a fixed stage-1 cadence instead.

Run:  python examples/video_stream.py
"""

from __future__ import annotations

from repro.bench import Table
from repro.core import HiRISEConfig
from repro.service import ComponentRef, Engine, ScenarioSpec, SystemSpec

N_FRAMES = 32
RESOLUTION = (256, 192)


def scenario(name: str, **kwargs) -> ScenarioSpec:
    """One request against the shared pedestrian clip."""
    return ScenarioSpec(
        name=name,
        source=ComponentRef("pedestrian", {"resolution": list(RESOLUTION)}),
        n_frames=N_FRAMES,
        seed=4,
        **kwargs,
    )


def main() -> None:
    hirise = Engine(
        SystemSpec(
            system="hirise",
            config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05, max_rois=8),
            detector=ComponentRef("ground-truth", {"label": "person"}),
        )
    )
    conventional = Engine(
        SystemSpec(
            system="conventional",
            detector=ComponentRef("ground-truth", {"label": "person"}),
        )
    )

    policies = {"conventional": conventional.run(scenario("conventional")).outcome}
    batch = hirise.run_batch(
        [
            scenario("hirise/frame"),
            scenario("hirise/window", window=12),
            scenario(
                "hirise/reuse",
                policy=ComponentRef("temporal-reuse", {"max_reuse": 3}),
            ),
        ],
        workers=2,
    )
    policies.update({r.label: r.outcome for r in batch})

    table = Table(
        f"stream policies: {N_FRAMES} frames at {RESOLUTION[0]}x{RESOLUTION[1]}",
        ["policy", "stage-1 runs", "reused", "kB/frame", "uJ/frame", "frames/s"],
        aligns=["l", "r", "r", "r", "r", "r"],
    )
    for name, outcome in policies.items():
        table.add_row(
            name,
            outcome.stage1_frames if outcome.system == "hirise" else "-",
            outcome.reused_frames,
            f"{outcome.mean_bytes_per_frame / 1024:.1f}",
            f"{outcome.mean_energy_per_frame_j * 1e6:.2f}",
            f"{outcome.frames_per_second:.0f}",
        )
    table.print()

    reuse = policies["hirise/reuse"]
    print()
    print(reuse.report())
    print()
    print("reused frames pay zero stage-1 bytes/conversions — the pooled\n"
          "readout and the detector are skipped outright; the reuse policy\n"
          "revalidates with a full stage-1 run whenever stability decays.\n"
          "The same scenarios, as data: examples/specs/pedestrian_reuse.json\n"
          "(python -m repro run examples/specs/pedestrian_reuse.json).")


if __name__ == "__main__":
    main()
