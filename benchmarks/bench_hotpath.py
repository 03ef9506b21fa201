"""Hot-path benchmark: phase breakdown + batched stage-2 vs per-crop loop.

PR 3 made *batches of requests* fast; this bench measures the single
request itself.  It enforces the hot-path contract introduced with
batched stage-2 inference:

1. **bit-identity** — in float64 compute mode, batched classification
   (``classify_crops``: bucket by post-resize shape, one forward per
   bucket) is bit-identical to the per-crop loop, on raw crops and
   through a full served scenario;
2. **parity** — float32 compute mode produces identical argmax and
   logits within the documented tolerances
   (``repro.ml.classifier.crop.FLOAT32_LOGIT_ATOL/RTOL``);
3. **speed** — with >= 8 ROIs per frame, the batched path is strictly
   faster than the per-crop loop (skipped in tiny smoke mode, where
   only the correctness gates run);
4. **observability** — a profiled engine run yields the per-phase
   wall-clock breakdown (source / expose / stage1.read / detect /
   condition / stage2.read / stage2.classify);
5. **clip render** — for the clip shapes the repository benchmark renders
   (``render_baseline.RENDER_CLIPS``), the frame-batched renderer is
   bit-identical to the same clip drawn one frame at a time through the
   single-canvas API (gated in tiny mode too) and, at full size, faster
   by the ``RENDER_GATES`` ratios (best of 7 each, after
   ``render_baseline.settle_allocator``).  ``render_baseline.py`` adds
   another tree's render times to these rows;
6. **clip bind** — for the stream-classify and stream-reuse clip shapes,
   ``BatchSensorReadout.from_images(frames, out=buf)`` is timed on the
   clip's own checked frames (no range check) and on a ``list`` of the
   same arrays (range-checked), best of 7 each.  Both bindings must give
   bit-identical whole-frame voltages and ``region`` windows (gated in
   tiny mode too);
7. **sensor reads** — for the same clip shapes, on a noiseless sensor
   (each frame bound as its own voltages) and on ``BIND_NOISE`` (fixed
   pattern plus the default temporal noise, so every read exposes),
   ``read_compressed(4)`` and a ROI read over each frame's ground-truth
   boxes are timed against an in-bench reference that exposes the whole
   frame or each box alone and digitizes each read out of place, best of
   7 each.  Every pooled frame and crop must be byte-identical to the
   reference (gated in tiny mode too); at full size the noisy reads must
   not be slower than the reference, within a 5% timing allowance;
8. **kernels** — ``block_reduce_mean`` at k in ``KERNEL_KS`` on a frame
   of each ``KERNEL_CLIPS`` clip as float64, float32 and uint8, and
   ``resize_bilinear`` of every clip's ground-truth crops to
   ``RESIZE_HW``, against in-bench copies of the channel-last kernels
   they replaced (``reference_block_mean``, ``reference_resize``), best
   of ``KERNEL_ROUNDS`` each, timed alternately so that both sides see
   the same host load.  Every output must be byte-identical to the
   copy's, with its dtype and shape (gated in tiny mode too); at full
   size the block mean at k = 4 must be ``BLOCK_MEAN_GATE`` times faster
   than the copy on every frame, and the resize no slower.

Everything measured lands in ``BENCH_hotpath.json`` at the repo root —
the first entry of the ROADMAP's perf trajectory.

Env knobs:
  ``REPRO_HOTPATH_TINY``  tiny workload, correctness asserts only
"""

from __future__ import annotations

import json
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from conftest import env_flag
from render_baseline import (
    RENDER_CLIPS,
    RENDER_ROUNDS,
    RENDER_SEED,
    SCENE_SWEEP,
    SERVE_PAIR,
    best_ms,
    settle_allocator,
)

from repro.bench import Table
from repro.core import HiRISEConfig, classify_crops
from repro.datasets.shapes import draw_person, draw_vehicle
from repro.ml import CropClassifier, resize_bilinear, tiny_cnn
from repro.ml.classifier.crop import FLOAT32_LOGIT_ATOL, FLOAT32_LOGIT_RTOL
from repro.sensor import (
    ADCModel,
    AnalogPoolingModel,
    BatchSensorReadout,
    NoiseModel,
    as_box,
    block_reduce_mean,
    clip_box,
)
from repro.sensor.pooling import _mismatch_maps
from repro.service import (
    SOURCES,
    ComponentRef,
    Engine,
    EngineCache,
    ScenarioSpec,
    SystemSpec,
)
from repro.stream import source

TINY = env_flag("REPRO_HOTPATH_TINY")
N_CROPS = 8 if TINY else 24          # ROIs per "frame" for the speed claim
INPUT_SIZE = 16 if TINY else 32      # classifier input side
ROUNDS = 2 if TINY else 5            # best-of for wall-clock numbers
N_FRAMES = 3 if TINY else 8
RESOLUTION = (128, 96) if TINY else (256, 192)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

CLASSES = ("pedestrian", "cyclist", "vehicle", "background")

#: Full-size floors on (one frame at a time) / (frame-batched) render time.
RENDER_GATES = {
    "serve-mix pedestrian": 1.5,
    "serve-mix drone": 1.5,
    "stream-classify": 2.5,
    "stream-reuse": 2.0,
}
#: The clip shapes whose binding check 6 times (the stream workloads).
BIND_CLIPS = ("stream-classify", "stream-reuse")
#: Fixed-pattern noise, so both bindings apply the same per-pixel maps.
BIND_NOISE = NoiseModel(prnu=0.01, dsnu=0.001, seed=7)
#: Check 7's sensors: noiseless (every exposure step is an identity) and
#: ``BIND_NOISE``, whose default temporal noise makes every read draw.
READ_NOISES = {"noiseless": None, "noisy": BIND_NOISE}
READ_K = 4
#: Timing noise a noisy read may show over its reference before it counts
#: as slower: both draw the same normals, which are most of a noisy read.
READ_NOISE_ALLOWANCE = 1.05
SCENES = {
    "pedestrian_clip": (source._pedestrian_scene, "n_walkers"),
    "drone_traffic_clip": (source._drone_scene, "n_vehicles"),
}
#: Check 8: one frame per resolution the benchmark streams (160x120,
#: 256x192, 320x240), each pooled at every k and as each frame dtype.
KERNEL_CLIPS = ("serve-mix pedestrian", "stream-classify", "stream-reuse")
KERNEL_KS = (1, 2, 4, 8)
#: The classifier input side check 8 resizes ground-truth crops to.
RESIZE_HW = (32, 32)
#: Full-size floor on (channel-last copy) / ``block_reduce_mean`` at k = 4.
BLOCK_MEAN_GATE = 1.3
#: Check 8's best-of count per side (each call is well under 10 ms).
KERNEL_ROUNDS = 25


def make_classifier(dtype: str = "float64") -> CropClassifier:
    clf = CropClassifier(
        tiny_cnn(INPUT_SIZE, len(CLASSES), width=8, seed=0),
        (INPUT_SIZE, INPUT_SIZE),
        CLASSES,
    )
    return clf.set_compute_dtype(dtype)


def make_crops(n: int) -> list[np.ndarray]:
    """Deterministic variable-size RGB crops (what stage 2 hands over)."""
    rng = np.random.default_rng(7)
    sizes = [(int(rng.integers(12, 64)), int(rng.integers(12, 64))) for _ in range(n)]
    return [rng.random((h, w, 3)) for h, w in sizes]


def best_of(fn, rounds: int = ROUNDS) -> float:
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def render_frame_by_frame(function: str, seed: int, n_frames, resolution, speed, **count):
    """The same clip drawn one frame at a time through the single-canvas API.

    Each frame starts from a copy of the backdrop, redraws every actor from
    a fresh ``(seed, index)`` appearance generator and is clipped: the
    loop the frame-batched renderer replaced (motion without jitter).
    """
    scene, count_name = SCENES[function]
    backdrop, actors = scene(resolution, count[count_name], seed, speed)
    frames, ground_truth = [], []
    for t in range(n_frames):
        canvas = backdrop.copy()
        boxes = []
        for i, actor in enumerate(actors):
            appearance = np.random.default_rng((seed, i))
            x, y = actor.x + actor.vx * t, actor.y + actor.vy * t
            if actor.kind == "person":
                body, _ = draw_person(canvas, appearance, x, y, actor.size, 0.3, 0.55)
                boxes.append(body)
            else:
                boxes.append(draw_vehicle(canvas, appearance, actor.kind, x, y, actor.size))
        frames.append(np.clip(canvas, 0.0, 1.0))
        ground_truth.append(boxes)
    return frames, ground_truth


def reference_exposure(frame, noise, rows, cols) -> np.ndarray:
    """Voltages of one window of a float64 frame at vdd 1, exposed alone:
    copy, scale by vdd, fixed pattern, clip."""
    out = np.empty(frame[rows, cols].shape)
    np.copyto(out, frame[rows, cols])
    out *= 1.0
    if noise is not None:
        gain, offset = noise.fixed_pattern_maps(frame.shape)
        out *= gain[rows, cols]
        out += offset[rows, cols]
    np.clip(out, 0.0, 1.0, out=out)
    return out


def reference_digitize(voltages, noise, rng) -> np.ndarray:
    """One read out of place: temporal noise, clip, round to codes,
    normalize (the pipeline's 8-bit ADC has no input-referred noise)."""
    adc = ADCModel()
    if rng is not None:
        voltages = voltages + noise.temporal_noise(voltages, 1.0, rng)
    codes = np.rint(np.clip(voltages, 0.0, adc.v_ref) / adc.lsb).astype(np.uint16)
    return codes.astype(np.float64) / (adc.levels - 1)


def reference_block_mean(values, k: int) -> np.ndarray:
    """The channel-last block mean ``block_reduce_mean`` replaced: the k²
    sub-grids ``values[i::k, j::k]`` added in row-major ``(i, j)`` order
    into the first, whose inner loop runs along the C channels, then
    divided in place by k².  A byte-exact oracle that does not move when
    the kernel under test does."""
    h = (values.shape[0] // k) * k
    w = (values.shape[1] // k) * k
    floating = np.issubdtype(values.dtype, np.floating)
    total = values[:h:k, :w:k].astype(values.dtype if floating else np.float64)
    for i in range(k):
        for j in range(k):
            if i or j:
                total += values[i:h:k, j:w:k]
    total /= k * k
    return total


@lru_cache(maxsize=64)
def _reference_resize_plan(in_hw, out_hw):
    """``reference_resize``'s memoized row/column indices and ``(1 - f, f)``
    weights, shaped to broadcast over ``(rows, cols, C)``."""
    h, w = in_hw
    oh, ow = out_hw
    ys = np.clip((np.arange(oh) + 0.5) * h / oh - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(ow) + 0.5) * w / ow - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[:, None]
    return (
        y0, np.minimum(y0 + 1, h - 1), np.stack([1 - fy, fy]),
        x0, np.minimum(x0 + 1, w - 1), np.stack([1 - fx, fx]),
    )


def reference_resize(image, out_hw) -> np.ndarray:
    """The channel-last separable resize ``resize_bilinear`` replaced:
    columns of ``(H, W, C)`` blended by ``np.take`` along the W axis, then
    rows, each product and sum broadcast over the C channels."""
    squeeze = image.ndim == 2
    img = np.asarray(image, dtype=np.float64)
    img = img[:, :, None] if squeeze else img
    h, w, _ = img.shape
    if (h, w) == tuple(out_hw):
        out = img.copy()
        return out[:, :, 0] if squeeze else out
    y0, y1, fy, x0, x1, fx = _reference_resize_plan((h, w), tuple(out_hw))
    cols = np.take(img, x0, axis=1) * fx[0] + np.take(img, x1, axis=1) * fx[1]
    out = np.take(cols, y0, axis=0) * fy[0] + np.take(cols, y1, axis=0) * fy[1]
    return out[:, :, 0] if squeeze else out


def best_pair_ms(first, second, rounds: int = KERNEL_ROUNDS) -> tuple[float, float]:
    """Best wall-clock of ``rounds`` calls of each of two callables, in
    milliseconds, called in alternating order so that a burst of host
    load lands on both sides rather than on one."""
    best = [float("inf"), float("inf")]
    for turn in range(rounds):
        for side in (0, 1) if turn % 2 == 0 else (1, 0):
            start = time.perf_counter()
            (first, second)[side]()
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0] * 1e3, best[1] * 1e3


def kernel_frames(frame) -> dict:
    """A float64 clip frame as float64, float32 and uint8 (rounded to
    0..255) frames."""
    return {
        "float64": frame,
        "float32": frame.astype(np.float32),
        "uint8": np.rint(frame * 255).astype(np.uint8),
    }


def ground_truth_crops(clip) -> list:
    """Every clipped ground-truth box of every frame, cut from the frame."""
    crops = []
    for frame, boxes in zip(clip.frames, clip.ground_truth):
        height, width = frame.shape[:2]
        for box in boxes:
            clipped = clip_box(as_box(box), width, height)
            if clipped:
                x, y, w, h = clipped
                crops.append(frame[y : y + h, x : x + w])
    return crops


def reference_pool(voltages) -> np.ndarray:
    """The default pooling circuit's chain at vdd 1, out of place."""
    model = AnalogPoolingModel()
    merged = reference_block_mean(voltages, READ_K)
    normalized = np.clip(merged / 1.0, 0.0, 1.0)
    normalized = normalized - model.compression * normalized * (1.0 - normalized)
    shared = model.gain * normalized * 1.0 + model.offset_per_vdd * 1.0
    gain_map, offset_map = _mismatch_maps(model, merged.shape, 1.0)
    shared = shared * gain_map + offset_map
    calibrated = (shared - model.offset_per_vdd * 1.0) / model.gain
    return np.clip(calibrated, 0.0, 1.0)


def reference_reads(frames, ground_truth, noise, stage1: bool) -> list:
    """Each frame's pooled frame (``stage1``) or ROI crops (each clipped box
    exposed and digitized alone), in order, from reads ``(seed, 1)``,
    ``(seed, 2)``, ..."""
    whole = slice(None)
    reads = []
    for seed, (frame, boxes) in enumerate(zip(frames, ground_truth)):
        def rng(n):
            return None if noise is None else np.random.default_rng((seed, n))

        if stage1:
            pooled = reference_pool(reference_exposure(frame, noise, whole, whole))
            reads.append(reference_digitize(pooled, noise, rng(1)))
        else:
            height, width = frame.shape[:2]
            clipped = [clip_box(as_box(b), width, height) for b in boxes]
            for n, (x, y, w, h) in enumerate((b for b in clipped if b), start=1):
                window = reference_exposure(frame, noise, slice(y, y + h), slice(x, x + w))
                reads.append(reference_digitize(window, noise, rng(n)))
    return reads


def sensor_reads(frames, ground_truth, noise, buf, stage1: bool) -> list:
    """The same reads through a fresh binding of the clip's frames."""
    readouts = BatchSensorReadout.from_images(frames, noise=noise, out=buf).readouts
    if stage1:
        return [r.read_compressed(READ_K).images for r in readouts]
    return [
        crop
        for r, boxes in zip(readouts, ground_truth)
        for crop in r.read_rois(boxes).images
    ]


def profiled_scenario() -> tuple[SystemSpec, ScenarioSpec]:
    system = SystemSpec(
        config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05),
        detector=ComponentRef("ground-truth"),
        classifier=ComponentRef(
            "tiny-cnn", {"input_size": INPUT_SIZE, "classes": list(CLASSES)}
        ),
    )
    scenario = ScenarioSpec(
        name="hotpath",
        source=ComponentRef(
            "pedestrian", {"resolution": list(RESOLUTION), "n_walkers": 10}
        ),
        n_frames=N_FRAMES,
        seed=4,
        keep_outcomes=True,
    )
    return system, scenario


def test_hotpath(benchmark, emit):
    classifier = make_classifier()
    crops = make_crops(N_CROPS)
    assert len(crops) >= 8, "the speed claim is defined at >= 8 ROIs/frame"

    # -- 1. bit-identity on raw crops (always gated, tiny mode included) -----
    batched = benchmark.pedantic(
        classify_crops, args=(classifier, crops), rounds=1, iterations=1
    )
    looped = [classifier(crop) for crop in crops]
    for a, b in zip(batched, looped):
        assert a.label == b.label and a.index == b.index
        assert np.array_equal(a.logits, b.logits), "float64 batched != per-crop"
    emit(f"\ncheck 1: batched == per-crop bit-identical ({len(crops)} crops)")

    # -- 2. float32 parity within the documented tolerances ------------------
    f32 = classify_crops(make_classifier("float32"), crops)
    max_diff = 0.0
    for a, b in zip(batched, f32):
        assert b.logits.dtype == np.float32
        assert a.index == b.index, "float32 argmax must match float64"
        assert np.allclose(
            b.logits, a.logits, atol=FLOAT32_LOGIT_ATOL, rtol=FLOAT32_LOGIT_RTOL
        )
        max_diff = max(max_diff, float(np.abs(b.logits - a.logits).max()))
    emit(
        f"check 2: float32 parity — identical argmax, max |dlogit| "
        f"{max_diff:.2e} (atol {FLOAT32_LOGIT_ATOL:g})"
    )

    # -- 3. wall-clock: batched must beat the loop (skipped in tiny mode) ----
    looped_s = best_of(lambda: [classifier(crop) for crop in crops])
    batched_s = best_of(lambda: classify_crops(classifier, crops))
    f32_clf = make_classifier("float32")
    batched_f32_s = best_of(lambda: classify_crops(f32_clf, crops))
    speedup = looped_s / batched_s if batched_s > 0 else float("inf")
    table = Table(
        f"stage-2 classification of {len(crops)} crops "
        f"(resize to {INPUT_SIZE}x{INPUT_SIZE}, best of {ROUNDS})",
        ["path", "best ms", "speedup"],
        aligns=["l", "r", "r"],
    )
    table.add_row("per-crop loop (f64)", f"{looped_s * 1e3:.2f}", "1.00x")
    table.add_row("batched (f64)", f"{batched_s * 1e3:.2f}", f"{speedup:.2f}x")
    table.add_row(
        "batched (f32)",
        f"{batched_f32_s * 1e3:.2f}",
        f"{looped_s / batched_f32_s:.2f}x",
    )
    emit("\n" + table.render())
    if TINY:
        emit("check 3: skipped (tiny smoke mode gates on bit-identity only)")
    else:
        assert batched_s < looped_s, (
            f"batched stage-2 ({batched_s * 1e3:.2f} ms) must beat the "
            f"per-crop loop ({looped_s * 1e3:.2f} ms) at {len(crops)} ROIs/frame"
        )
        emit(f"check 3: batched beats per-crop loop ({speedup:.2f}x)")

    # -- 4. served scenario: phase breakdown + end-to-end bit-identity -------
    system, scenario = profiled_scenario()
    engine = Engine(system, cache=EngineCache.disabled(), profile=True)
    result = engine.run(scenario)
    profile = result.profile
    assert profile is not None
    for path in ("source", "expose", "stage1.read", "detect", "condition",
                 "stage2.read", "stage2.classify"):
        assert profile.get(path) is not None, f"missing phase {path}"
    emit("\nphase breakdown (one served request):")
    emit(profile.report())

    # The served predictions equal a per-crop loop over the served crops:
    # batching changed execution, not results.
    served = [
        (outcome.roi_crops, outcome.predictions)
        for outcome in result.outcome.outcomes
    ]
    reference = make_classifier()
    n_rois = 0
    for roi_crops, predictions in served:
        n_rois += len(roi_crops)
        for crop, prediction in zip(roi_crops, predictions):
            expected = reference(crop)
            assert prediction.label == expected.label
            assert np.array_equal(prediction.logits, expected.logits)
    emit(
        f"check 4: served scenario bit-identical to per-crop reference "
        f"({n_rois} ROIs over {N_FRAMES} frames)"
    )

    # -- 5. clip render: frame-batched vs one frame at a time ---------------
    settle_allocator()
    rows = {}
    table = Table(
        f"clip render, best of {RENDER_ROUNDS} (frame-batched vs one frame "
        "at a time through the single-canvas API)",
        ["clip", "frames", "resolution", "per-frame ms", "batched ms", "speedup"],
        aligns=["l", "r", "r", "r", "r", "r"],
    )
    for name, (function, kwargs) in RENDER_CLIPS.items():
        make = getattr(source, function)
        clip = make(seed=RENDER_SEED, **kwargs)
        frames, ground_truth = render_frame_by_frame(function, RENDER_SEED, **kwargs)
        assert len(clip.frames) == len(frames)
        for a, b in zip(clip.frames, frames):
            assert a.tobytes() == b.tobytes(), f"{name}: frame-batched != per-frame"
        assert repr(clip.ground_truth) == repr(ground_truth), name
        looped_ms = best_ms(lambda: render_frame_by_frame(function, RENDER_SEED, **kwargs))
        batched_ms = best_ms(lambda: make(seed=RENDER_SEED, **kwargs))
        rows[name] = {
            "source": function,
            "n_frames": kwargs["n_frames"],
            "resolution": list(kwargs["resolution"]),
            "per_frame_ms": looped_ms,
            "batched_ms": batched_ms,
            "speedup": looped_ms / batched_ms,
            "bit_identical": True,
        }
        width, height = kwargs["resolution"]
        table.add_row(
            name, str(kwargs["n_frames"]), f"{width}x{height}", f"{looped_ms:.2f}",
            f"{batched_ms:.2f}", f"{looped_ms / batched_ms:.2f}x",
        )
    sweep_name, sweep_frames = SCENE_SWEEP
    make_sweep = SOURCES.get(sweep_name)
    sweep_ms = best_ms(lambda: make_sweep(sweep_frames, RENDER_SEED))
    table.add_row(sweep_name, str(sweep_frames), "640x480", "", f"{sweep_ms:.2f}", "")
    emit("\n" + table.render())
    emit(f"check 5: frame-batched clips bit-identical to per-frame ({len(rows)} shapes)")
    if TINY:
        emit("check 5: speed gates skipped (tiny smoke mode)")
    else:
        for name, floor in RENDER_GATES.items():
            assert rows[name]["speedup"] >= floor, (
                f"{name}: frame-batched render {rows[name]['speedup']:.2f}x "
                f"the per-frame loop, below the {floor}x floor"
            )
        emit("check 5: frame-batched render beats the per-frame loop on every shape")
    pair = [rows[name] for name in SERVE_PAIR]

    # -- 6. clip bind: the clip's checked frames vs a list of the same arrays -
    bind_rows = {}
    table = Table(
        f"clip bind, best of {RENDER_ROUNDS} (BatchSensorReadout.from_images on "
        "a list of the frames vs the clip's checked frames)",
        ["clip", "frames", "resolution", "list ms", "checked ms", "speedup"],
        aligns=["l", "r", "r", "r", "r", "r"],
    )
    for name in BIND_CLIPS:
        function, kwargs = RENDER_CLIPS[name]
        clip = getattr(source, function)(seed=RENDER_SEED, **kwargs)
        frames = list(clip.frames)
        width, height = kwargs["resolution"]
        buf = np.empty((height, width, 3))
        listed = BatchSensorReadout.from_images(frames, noise=BIND_NOISE, out=buf)
        checked = BatchSensorReadout.from_images(clip.frames, noise=BIND_NOISE)
        for a, b in zip(listed.readouts, checked.readouts, strict=True):
            # The window first, while neither whole frame is exposed yet.
            window = (width // 3, height // 4, width // 2, height // 3)
            assert a.array.region(*window).tobytes() == b.array.region(*window).tobytes()
            assert a.array.voltages.tobytes() == b.array.voltages.tobytes(), name
        list_ms = best_ms(
            lambda: BatchSensorReadout.from_images(frames, noise=BIND_NOISE, out=buf)
        )
        checked_ms = best_ms(
            lambda: BatchSensorReadout.from_images(clip.frames, noise=BIND_NOISE, out=buf)
        )
        bind_rows[name] = {
            "n_frames": kwargs["n_frames"],
            "resolution": list(kwargs["resolution"]),
            "list_ms": list_ms,
            "checked_ms": checked_ms,
            "speedup": list_ms / checked_ms,
            "bit_identical": True,
        }
        table.add_row(
            name, str(kwargs["n_frames"]), f"{width}x{height}", f"{list_ms:.3f}",
            f"{checked_ms:.3f}", f"{list_ms / checked_ms:.1f}x",
        )
    emit("\n" + table.render())
    emit(f"check 6: checked and listed bindings bit-identical ({len(bind_rows)} shapes)")

    # -- 7. sensor reads: one pass per read vs each read exposed alone -------
    read_rows = {}
    table = Table(
        f"sensor reads, best of {RENDER_ROUNDS} per clip (read_compressed({READ_K}) "
        "and a ROI read over the ground-truth boxes vs each read exposed alone)",
        ["clip", "sensor", "read", "reference ms", "ms", "speedup"],
        aligns=["l", "l", "l", "r", "r", "r"],
    )
    for name in BIND_CLIPS:
        function, kwargs = RENDER_CLIPS[name]
        clip = getattr(source, function)(seed=RENDER_SEED, **kwargs)
        width, height = kwargs["resolution"]
        buf = np.empty((height, width, 3))
        for sensor, noise in READ_NOISES.items():
            row = {"n_frames": kwargs["n_frames"], "resolution": [width, height]}
            bound = BatchSensorReadout.from_images(clip.frames, noise=noise, out=buf)
            row["frames_are_voltages"] = all(
                np.shares_memory(r.array.voltages, f)
                for r, f in zip(bound.readouts, clip.frames)
            )
            for read, stage1 in (("stage1", True), ("roi", False)):
                args = (clip.frames, clip.ground_truth, noise)
                got = sensor_reads(*args, buf, stage1)
                want = reference_reads(*args, stage1)
                assert len(got) == len(want) > 0, (name, sensor, read)
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes(), f"{name} {sensor} {read}: != reference"
                ms = best_ms(lambda: sensor_reads(*args, buf, stage1))
                reference_ms = best_ms(lambda: reference_reads(*args, stage1))
                row[f"{read}_ms"] = ms
                row[f"{read}_reference_ms"] = reference_ms
                row[f"{read}_speedup"] = reference_ms / ms
                table.add_row(
                    name, sensor, read, f"{reference_ms:.2f}", f"{ms:.2f}",
                    f"{reference_ms / ms:.2f}x",
                )
            row["bit_identical"] = True
            read_rows[f"{name} {sensor}"] = row
    emit("\n" + table.render())
    emit(f"check 7: sensor reads byte-identical to the reference ({len(read_rows)} rows)")
    if TINY:
        emit("check 7: speed gate skipped (tiny smoke mode)")
    else:
        for key, row in read_rows.items():
            if key.endswith("noisy"):
                for read in ("stage1", "roi"):
                    limit = row[f"{read}_reference_ms"] * READ_NOISE_ALLOWANCE
                    assert row[f"{read}_ms"] <= limit, (
                        f"{key} {read}: {row[f'{read}_ms']:.2f} ms, slower than "
                        f"the reference's {row[f'{read}_reference_ms']:.2f} ms"
                    )
        emit("check 7: noisy reads no slower than the reference (5% timing allowance)")

    # -- 8. kernels: each against a copy of the channel-last kernel it replaced
    kernel_rows = {}
    table = Table(
        f"kernels, best of {KERNEL_ROUNDS} alternating (block_reduce_mean and resize_bilinear "
        "vs in-bench copies of the channel-last kernels they replaced)",
        ["kernel", "input", "reference ms", "ms", "speedup"],
        aligns=["l", "l", "r", "r", "r"],
    )

    def compare(kernel, reference, inputs, label, **row):
        for args in inputs:
            got, want = kernel(*args), reference(*args)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), label
            assert got.tobytes() == want.tobytes(), f"{kernel.__name__} {label}: != reference"
        reference_ms, ms = best_pair_ms(
            lambda: [reference(*args) for args in inputs],
            lambda: [kernel(*args) for args in inputs],
        )
        kernel_rows[f"{kernel.__name__} {label}"] = {
            **row,
            "reference_ms": reference_ms,
            "ms": ms,
            "speedup": reference_ms / ms,
            "bit_identical": True,
        }
        table.add_row(
            kernel.__name__, label, f"{reference_ms:.3f}", f"{ms:.3f}",
            f"{reference_ms / ms:.2f}x",
        )

    for name in KERNEL_CLIPS:
        function, kwargs = RENDER_CLIPS[name]
        frame = getattr(source, function)(seed=RENDER_SEED, **kwargs).frames[0]
        width, height = kwargs["resolution"]
        for dtype, values in kernel_frames(frame).items():
            for k in KERNEL_KS:
                compare(
                    block_reduce_mean, reference_block_mean, [(values, k)],
                    f"{width}x{height} {dtype} k={k}",
                    resolution=[width, height], dtype=dtype, k=k,
                )
    for name, (function, kwargs) in RENDER_CLIPS.items():
        gt_crops = ground_truth_crops(getattr(source, function)(seed=RENDER_SEED, **kwargs))
        assert gt_crops, name
        compare(
            resize_bilinear, reference_resize, [(crop, RESIZE_HW) for crop in gt_crops],
            f"{name} ({len(gt_crops)} crops)",
            clip=name, n_crops=len(gt_crops), out_hw=list(RESIZE_HW),
        )
    emit("\n" + table.render())
    emit(f"check 8: kernels byte-identical to the channel-last copies ({len(kernel_rows)} rows)")
    if TINY:
        emit("check 8: speed gates skipped (tiny smoke mode)")
    else:
        for key, row in kernel_rows.items():
            if "k" not in row:
                floor = 1.0  # a resize row
            elif row["k"] == READ_K:
                floor = BLOCK_MEAN_GATE
            else:
                continue
            assert row["speedup"] >= floor, (
                f"{key}: {row['speedup']:.2f}x the channel-last copy, "
                f"below the {floor}x floor"
            )
        emit(
            f"check 8: block mean at k={READ_K} >= {BLOCK_MEAN_GATE}x the copy on "
            "every frame; resize no slower than the copy on every clip"
        )

    payload = {
        "experiment": "hotpath",
        "tiny": TINY,
        "config": {
            "n_crops": len(crops),
            "input_size": INPUT_SIZE,
            "rounds": ROUNDS,
            "n_frames": N_FRAMES,
            "resolution": list(RESOLUTION),
        },
        "batched_vs_looped": {
            "looped_ms": looped_s * 1e3,
            "batched_ms": batched_s * 1e3,
            "batched_float32_ms": batched_f32_s * 1e3,
            "speedup": speedup,
            "bit_identical_float64": True,
        },
        "float32_parity": {
            "argmax_identical": True,
            "max_abs_logit_diff": max_diff,
            "atol": FLOAT32_LOGIT_ATOL,
            "rtol": FLOAT32_LOGIT_RTOL,
        },
        "phases": profile.to_dict(),
        "clip_render": {
            "rounds": RENDER_ROUNDS,
            "seed": RENDER_SEED,
            "gates": RENDER_GATES,
            "serve_pair_speedup": (
                sum(r["per_frame_ms"] for r in pair) / sum(r["batched_ms"] for r in pair)
            ),
            "rows": rows,
            "scene_sweep": {
                "source": sweep_name,
                "n_frames": sweep_frames,
                "render_ms": sweep_ms,
            },
        },
        "clip_bind": {"rounds": RENDER_ROUNDS, "seed": RENDER_SEED, "rows": bind_rows},
        "sensor_reads": {
            "rounds": RENDER_ROUNDS,
            "seed": RENDER_SEED,
            "pool_k": READ_K,
            "rows": read_rows,
        },
        "kernels": {
            "rounds": KERNEL_ROUNDS,
            "seed": RENDER_SEED,
            "block_mean_gate": BLOCK_MEAN_GATE,
            "rows": kernel_rows,
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    emit(f"wrote {OUTPUT.name}")
