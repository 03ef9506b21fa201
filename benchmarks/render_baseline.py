"""Clip-render timing shared by ``bench_hotpath.py`` and its baseline rows.

``bench_hotpath.py`` times the clip shapes the repository benchmark
(``perfbench``) renders, through the frame-batched renderer and through
the single-canvas API one frame at a time, and writes them to
``BENCH_hotpath.json``.  Run this file against another checkout's ``src``
to add that tree's render times to those rows as "before" figures:

    PYTHONPATH=src python -m pytest benchmarks/bench_hotpath.py -q
    python benchmarks/render_baseline.py /path/to/other/src --label <commit>

It imports no ``repro`` at module level, so the bench shares its shapes
and timing loop while this script loads the other tree instead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

#: name -> (source function, kwargs): a serve-mix miss (8 frames at
#: 160x120, pedestrian or drone, default actors) and the set-up clips of
#: the two stream workloads.
RENDER_CLIPS = {
    "serve-mix pedestrian": (
        "pedestrian_clip",
        {"n_frames": 8, "resolution": (160, 120), "n_walkers": 3, "speed": 2.0},
    ),
    "serve-mix drone": (
        "drone_traffic_clip",
        {"n_frames": 8, "resolution": (160, 120), "n_vehicles": 4, "speed": 3.0},
    ),
    "stream-classify": (
        "pedestrian_clip",
        {"n_frames": 12, "resolution": (256, 192), "n_walkers": 10, "speed": 2.0},
    ),
    "stream-reuse": (
        "pedestrian_clip",
        {"n_frames": 12, "resolution": (320, 240), "n_walkers": 6, "speed": 2.0},
    ),
}
RENDER_SEED = 5
RENDER_ROUNDS = 7
#: A dataset scene sweep (independent single-canvas scenes, one per
#: frame, at the source's default 640x480): the single-canvas API's load.
SCENE_SWEEP = ("crowdhuman-scenes", 4)
#: The serve-mix misses alternate between these two shapes.
SERVE_PAIR = ("serve-mix pedestrian", "serve-mix drone")


def settle_allocator() -> None:
    """Free one 30 MiB block, so later clip-sized buffers are reused.

    glibc maps a large block fresh and raises its mmap threshold to the
    largest mapped block freed so far.  Until that threshold is above a
    clip's frames, each render pays first-touch page faults whose count
    depends on what the process freed before, not on the renderer; both
    sides of a comparison settle the same way first.
    """
    import numpy as np

    block = np.ones(30 * 2**20 // 8)
    del block


def best_ms(render, rounds: int = RENDER_ROUNDS) -> float:
    """Best wall-clock of ``rounds`` calls, in milliseconds."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        render()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", type=Path, help="the other tree's src directory")
    parser.add_argument("--label", default="before", help="names the other tree")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    from repro.service import SOURCES
    from repro.stream import source

    payload = json.loads(OUTPUT.read_text())
    rows = payload["clip_render"]["rows"]
    settle_allocator()
    for name, (function, kwargs) in RENDER_CLIPS.items():
        make = getattr(source, function)
        row = rows[name]
        row["before_ms"] = best_ms(lambda: make(seed=RENDER_SEED, **kwargs))
        row["speedup_vs_before"] = row["before_ms"] / row["batched_ms"]
        print(f"{name:22s} before {row['before_ms']:7.2f} ms  "
              f"batched {row['batched_ms']:7.2f} ms  x{row['speedup_vs_before']:.2f}")
    summary = payload["clip_render"]
    sweep = summary["scene_sweep"]
    name, n_frames = SCENE_SWEEP
    make = SOURCES.get(name)
    sweep["before_ms"] = best_ms(lambda: make(n_frames, RENDER_SEED))
    sweep["speedup_vs_before"] = sweep["before_ms"] / sweep["render_ms"]
    print(f"{name:22s} before {sweep['before_ms']:7.2f} ms  "
          f"now     {sweep['render_ms']:7.2f} ms  x{sweep['speedup_vs_before']:.2f}")
    pair = [rows[name] for name in SERVE_PAIR]
    summary["before_label"] = args.label
    summary["serve_pair_speedup_vs_before"] = (
        sum(r["before_ms"] for r in pair) / sum(r["batched_ms"] for r in pair)
    )
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"serve-mix pair x{summary['serve_pair_speedup_vs_before']:.2f}; "
          f"wrote {OUTPUT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
