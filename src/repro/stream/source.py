"""Synthetic video sources: the paper's workloads, set in motion.

HiRISE targets always-on vision — pedestrian surveillance (CrowdHuman /
DHDCampus-flavored) and aerial monitoring (VisDrone-flavored).  The seed
repo synthesizes those as single scenes; streaming needs *clips*, so this
module animates the same procedural actors over a textured backdrop with
per-actor constant velocities plus optional jitter.

Every clip comes with per-frame ground-truth boxes and a matching
stand-in stage-1 detector (:func:`ground_truth_detector`) so stream
experiments can isolate the *system* costs (transfer, energy, reuse
behavior) from detector quality, exactly like the single-frame benchmarks
do.  Swap in ``repro.ml.CorrelationDetector`` for a learned stage 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..datasets.shapes import draw_person_stack, draw_vehicle_stack
from ..datasets.textures import colorize, value_noise
from ..ml import Detection
from ..sensor import CheckedFrames

#: ``(x, y, w, h)`` ground-truth box in array coordinates.
Box = tuple[float, float, float, float]


@dataclass(frozen=True)
class Actor:
    """One moving object in a synthetic clip.

    Attributes:
        kind: "person" or a :data:`repro.datasets.shapes.VEHICLE_STYLES` key.
        x, y: start position (person: center-x / head-top; vehicle: center).
        size: person height or vehicle length, in pixels.
        vx, vy: velocity in px/frame.
    """

    kind: str
    x: float
    y: float
    size: float
    vx: float
    vy: float = 0.0


@dataclass(frozen=True)
class SyntheticClip:
    """A generated clip plus its ground truth.

    A clip checks its frames once, when it is built (a render, a scene
    sweep, any source) or enters a process (:meth:`__setstate__`: pickle,
    a disk-tier load, a shared-memory attach).  Its ``frames`` are then a
    :class:`~repro.sensor.CheckedFrames`, each frozen read-only, so no
    request that streams the clip checks them again.  A frame that
    cannot become voltages fails the build with a ``ValueError``.

    Attributes:
        frames: ``(H, W, 3)`` float images in [0, 1] (any sequence of
            scene images is accepted and checked).
        ground_truth: per-frame actor boxes, aligned with ``frames``.
        resolution: ``(width, height)``.
    """

    frames: Sequence[np.ndarray]
    ground_truth: list[list[Box]]
    resolution: tuple[int, int]

    def __post_init__(self) -> None:
        if not isinstance(self.frames, CheckedFrames):
            object.__setattr__(self, "frames", CheckedFrames(self.frames))

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def nbytes(self) -> int:
        """Total frame-buffer size (what a pickle would have to move)."""
        return sum(f.nbytes for f in self.frames)

    # Clips cross process boundaries (the service layer's process
    # executor, spawn-safe work units), so pickling must be cheap: a
    # uniform clip serializes as ONE contiguous (N, H, W, C) block
    # instead of N separately-framed arrays.  Restored frames are views
    # into that block, checked once more (the bytes came from outside
    # this process) and frozen read-only like the originals.

    def __getstate__(self) -> dict:
        state = {"ground_truth": self.ground_truth, "resolution": self.resolution}
        uniform = len({(f.shape, f.dtype.str) for f in self.frames}) == 1
        if self.frames and uniform:
            state["frame_stack"] = np.stack(self.frames)
        else:
            # A plain list: unpickling then checks it once, below.
            state["frames"] = list(self.frames)
        return state

    def __setstate__(self, state: dict) -> None:
        stack = state.pop("frame_stack", None)
        frames = stack if stack is not None else state.pop("frames")
        object.__setattr__(self, "frames", CheckedFrames(frames))
        object.__setattr__(self, "ground_truth", state["ground_truth"])
        object.__setattr__(self, "resolution", state["resolution"])


def _render_clip(
    actors: Sequence[Actor],
    n_frames: int,
    resolution: tuple[int, int],
    backdrop: np.ndarray,
    seed: int,
    jitter: float,
) -> SyntheticClip:
    """Draw every actor on all frames at once, actor by actor.

    Each frame receives the same operations, in the same order, as drawing
    it alone would give it, so frames and boxes do not depend on how many
    frames are drawn together.  Jitter is drawn frame by frame, then actor,
    then ``dx``, ``dy``; each actor's appearance comes from its own
    ``(seed, index)`` generator.

    Only the backdrop is clipped to [0, 1].  Every color and coverage is
    in [0, 1] too, and a blend ``r + c * (color - r)`` of such values
    rounds back into [0, 1], so the frames need no clip of their own.
    """
    np.clip(backdrop, 0.0, 1.0, out=backdrop)
    frames = [backdrop.copy() for _ in range(n_frames)]
    if not frames:
        return SyntheticClip(frames, [], resolution)
    steps = np.arange(n_frames)
    offsets = np.zeros((n_frames, len(actors), 2))
    if jitter:
        jitter_rng = np.random.default_rng((seed, 999_331))
        offsets = jitter * jitter_rng.normal(size=offsets.shape)
    ground_truth: list[list[Box]] = [[] for _ in frames]
    for i, actor in enumerate(actors):
        x = actor.x + actor.vx * steps + offsets[:, i, 0]
        y = actor.y + actor.vy * steps + offsets[:, i, 1]
        appearance = np.random.default_rng((seed, i))
        if actor.kind == "person":
            people = draw_person_stack(frames, appearance, x, y, actor.size, 0.3, 0.55)
            track = [body for body, _ in people]
        else:
            track = draw_vehicle_stack(frames, appearance, actor.kind, x, y, actor.size)
        for boxes, box in zip(ground_truth, track):
            boxes.append(box)
    return SyntheticClip(frames, ground_truth, resolution)


def require_int(name: str, value, minimum: int | None = None) -> None:
    """Reject a component param that is not an integer (at least
    ``minimum``, if given).

    One spelling per value, as in :mod:`repro.codec`: an integer is never
    a bool or a float.  NumPy integers count as integers.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def require_real(name: str, value) -> None:
    """Reject a component param that is not a real number; a bool is not
    one (NumPy scalars count as their kind)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_motion(count_name: str, count: int, speed: float, jitter: float) -> None:
    """Reject source parameters that would render garbage or nothing: a
    count is an integer >= 0, ``speed`` and ``jitter`` are finite reals."""
    require_int(count_name, count, minimum=0)
    for name, value in (("speed", speed), ("jitter", jitter)):
        require_real(name, value)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")


def pedestrian_clip(
    n_frames: int = 32,
    resolution: tuple[int, int] = (256, 192),
    n_walkers: int = 3,
    seed: int = 4,
    speed: float = 2.0,
    jitter: float = 0.0,
) -> SyntheticClip:
    """Pedestrians crossing a textured plaza (CrowdHuman-flavored).

    Args:
        n_frames: clip length.
        resolution: ``(width, height)`` of the pixel array.
        n_walkers: number of pedestrians.
        seed: master seed (layout, appearance, texture).
        speed: nominal walking speed in px/frame (sign alternates).
        jitter: sigma of per-frame position jitter (0 = perfectly linear
            motion, the friendliest case for ROI reuse).

    Raises:
        ValueError: an ``n_walkers`` that is not a non-negative int, a
            ``speed`` or ``jitter`` that is not a finite real (a bool
            included), or a negative ``jitter``.
    """
    _check_motion("n_walkers", n_walkers, speed, jitter)
    backdrop, actors = _pedestrian_scene(resolution, n_walkers, seed, speed)
    return _render_clip(actors, n_frames, resolution, backdrop, seed, jitter)


def _pedestrian_scene(
    resolution: tuple[int, int], n_walkers: int, seed: int, speed: float
) -> tuple[np.ndarray, list[Actor]]:
    """The plaza backdrop and its walkers (what :func:`pedestrian_clip` animates)."""
    width, height = resolution
    rng = np.random.default_rng(seed)
    backdrop = colorize(
        value_noise((height, width), rng, octaves=4),
        (0.5, 0.49, 0.47),
        (0.66, 0.64, 0.61),
    )
    actors = []
    for i in range(n_walkers):
        h = height * rng.uniform(0.14, 0.26)
        direction = 1.0 if i % 2 == 0 else -1.0
        margin = 0.15 * width
        x0 = rng.uniform(margin, width - margin)
        y0 = rng.uniform(0.05 * height, height - 1.3 * h)
        actors.append(
            Actor(
                kind="person",
                x=x0,
                y=y0,
                size=h,
                vx=direction * speed * rng.uniform(0.7, 1.3),
            )
        )
    return backdrop, actors


def drone_traffic_clip(
    n_frames: int = 32,
    resolution: tuple[int, int] = (256, 192),
    n_vehicles: int = 4,
    seed: int = 11,
    speed: float = 3.0,
    jitter: float = 0.0,
) -> SyntheticClip:
    """Top-down road traffic under a drone (VisDrone-flavored).

    Vehicles drive along horizontal lanes at lane-dependent speeds.

    Raises:
        ValueError: an ``n_vehicles`` that is not a non-negative int, a
            ``speed`` or ``jitter`` that is not a finite real (a bool
            included), or a negative ``jitter``.
    """
    _check_motion("n_vehicles", n_vehicles, speed, jitter)
    backdrop, actors = _drone_scene(resolution, n_vehicles, seed, speed)
    return _render_clip(actors, n_frames, resolution, backdrop, seed, jitter)


def _drone_scene(
    resolution: tuple[int, int], n_vehicles: int, seed: int, speed: float
) -> tuple[np.ndarray, list[Actor]]:
    """The road backdrop and its vehicles (what :func:`drone_traffic_clip` animates)."""
    width, height = resolution
    rng = np.random.default_rng(seed)
    backdrop = colorize(
        value_noise((height, width), rng, octaves=3),
        (0.32, 0.33, 0.34),
        (0.45, 0.46, 0.47),
    )
    kinds = ["car", "car", "van", "truck"]
    actors = []
    for i in range(n_vehicles):
        lane_y = height * (i + 1) / (n_vehicles + 1)
        direction = 1.0 if i % 2 == 0 else -1.0
        actors.append(
            Actor(
                kind=kinds[i % len(kinds)],
                x=rng.uniform(0.2 * width, 0.8 * width),
                y=lane_y,
                size=width * rng.uniform(0.08, 0.14),
                vx=direction * speed * rng.uniform(0.8, 1.2),
            )
        )
    return backdrop, actors


def ground_truth_detector(
    clip: SyntheticClip, score: float = 0.9, label: str = "object"
) -> tuple[Callable[[np.ndarray], list[Detection]], Callable[[int], None]]:
    """A stand-in stage-1 model that reads the clip's ground truth.

    The detector receives the *pooled* stage-1 frame, so boxes are scaled
    down by the pooling factor inferred from the frame width.  Wire the
    returned ``on_frame`` callback into :meth:`StreamRunner.run` so the
    detector knows which frame each call belongs to.

    Returns:
        ``(detect, on_frame)``.
    """
    state = {"frame": 0}
    width = clip.resolution[0]

    def on_frame(index: int) -> None:
        state["frame"] = index

    def detect(pooled_frame: np.ndarray) -> list[Detection]:
        k = width // pooled_frame.shape[1]
        boxes = clip.ground_truth[min(state["frame"], len(clip.ground_truth) - 1)]
        return [
            Detection(label, score, x / k, y / k, w / k, h / k)
            for x, y, w, h in boxes
        ]

    return detect, on_frame
