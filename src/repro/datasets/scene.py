"""Scene containers and the detection-scene generator.

A :class:`Scene` is one synthetic exposure: a float RGB image in [0, 1] plus
ground-truth :class:`GroundTruthBox` annotations.  The
:class:`SceneGenerator` renders scenes according to a
:class:`~repro.datasets.profiles.DatasetProfile`, which encodes the
statistics that matter to the HiRISE experiments: object count, object
scale, how much detectability relies on color, and which classes exist.

Backgrounds are procedural (plaza / campus / aerial) with multi-octave
texture so that pooling has something to destroy.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .profiles import DatasetProfile
from .shapes import draw_cyclist, draw_person, draw_vehicle
from .textures import colorize, value_noise


@dataclass(frozen=True)
class GroundTruthBox:
    """An annotated object: class label plus ``(x, y, w, h)`` in pixels."""

    label: str
    x: float
    y: float
    w: float
    h: float

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def xywh(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)

    def scaled(self, sx: float, sy: float) -> "GroundTruthBox":
        """The same box in a resized image (sx, sy are the scale factors)."""
        return replace(self, x=self.x * sx, y=self.y * sy, w=self.w * sx, h=self.h * sy)


@dataclass
class Scene:
    """One synthetic exposure with annotations.

    Attributes:
        image: float64 ``(H, W, 3)`` in [0, 1].
        boxes: ground-truth boxes in image pixel coordinates.
        name: identifier (dataset/profile + index).
    """

    image: np.ndarray
    boxes: list[GroundTruthBox] = field(default_factory=list)
    name: str = "scene"

    @property
    def resolution(self) -> tuple[int, int]:
        """``(width, height)``."""
        return (int(self.image.shape[1]), int(self.image.shape[0]))

    def boxes_for(self, label: str) -> list[GroundTruthBox]:
        return [b for b in self.boxes if b.label == label]


def _background(
    profile: DatasetProfile, shape: tuple[int, int], rng: np.random.Generator
) -> np.ndarray:
    """Render the profile's backdrop."""
    h, w = shape
    base = value_noise(shape, rng, octaves=4, base_cells=3)
    if profile.background == "plaza":
        canvas = colorize(base, (0.52, 0.50, 0.48), (0.68, 0.66, 0.63))
        # Paving joints: subtle grid lines.
        pitch = max(min(h, w) // 14, 8)
        canvas[::pitch, :, :] *= 0.88
        canvas[:, ::pitch, :] *= 0.88
    elif profile.background == "campus":
        grass = colorize(base, (0.28, 0.42, 0.22), (0.40, 0.55, 0.30))
        path = colorize(value_noise(shape, rng, octaves=3), (0.55, 0.52, 0.48), (0.66, 0.63, 0.58))
        mask = value_noise(shape, rng, octaves=2, base_cells=2) > 0.62
        canvas = np.where(mask[:, :, None], path, grass)
    elif profile.background == "aerial":
        canvas = colorize(base, (0.38, 0.38, 0.40), (0.52, 0.52, 0.54))
        # Road grid with lane lines.
        road_w = max(min(h, w) // 12, 6)
        n_h = max(h // (road_w * 5), 1)
        n_v = max(w // (road_w * 5), 1)
        road = np.asarray((0.22, 0.22, 0.24))
        for i in range(1, n_h + 1):
            y = int(i * h / (n_h + 1))
            canvas[max(y - road_w // 2, 0) : y + road_w // 2, :, :] = road
            canvas[y, ::7, :] = (0.8, 0.8, 0.75)
        for i in range(1, n_v + 1):
            x = int(i * w / (n_v + 1))
            canvas[:, max(x - road_w // 2, 0) : x + road_w // 2, :] = road
            canvas[::7, x, :] = (0.8, 0.8, 0.75)
    else:
        raise ValueError(f"unknown background style {profile.background!r}")
    return np.clip(canvas, 0.0, 1.0)


class SceneGenerator:
    """Renders detection scenes following a dataset profile.

    Placement uses best-effort overlap rejection: candidates whose center
    falls too close to an existing object's center are resampled a few
    times, then accepted anyway (real crowd datasets contain occlusion).

    Args:
        profile: dataset statistics to follow.
        resolution: ``(width, height)`` of the rendered frames.
        seed: base seed; image ``i`` uses an independent child seed.
    """

    def __init__(
        self,
        profile: DatasetProfile,
        resolution: tuple[int, int] = (1280, 960),
        seed: int = 0,
    ):
        if resolution[0] < 32 or resolution[1] < 32:
            raise ValueError("resolution must be at least 32x32")
        self.profile = profile
        self.resolution = resolution
        self.seed = seed

    def generate(self, n_images: int) -> list[Scene]:
        """Render ``n_images`` scenes deterministically."""
        return [self.scene(i) for i in range(n_images)]

    def scene(self, index: int) -> Scene:
        """Render scene ``index`` (stable across calls)."""
        # zlib.crc32 is stable across processes (unlike hash(), which is
        # randomized per interpreter and would make scenes irreproducible).
        profile_tag = zlib.crc32(self.profile.name.encode())
        rng = np.random.default_rng((self.seed, index, profile_tag))
        w, h = self.resolution
        canvas = _background(self.profile, (h, w), rng)
        background_luma = float((canvas @ np.array([0.299, 0.587, 0.114])).mean())

        lo, hi = self.profile.objects_per_image
        n_objects = int(rng.integers(lo, hi + 1))
        boxes: list[GroundTruthBox] = []
        centers: list[tuple[float, float]] = []

        for _ in range(n_objects):
            label = self.profile.classes[rng.integers(len(self.profile.classes))]
            s_lo, s_hi = self.profile.object_scale
            size = float(rng.uniform(s_lo, s_hi)) * h
            placed = self._place(rng, w, h, size, centers)
            if placed is None:
                continue
            cx, cy = placed
            centers.append((cx, cy))
            boxes.extend(
                self._draw_object(canvas, rng, label, cx, cy, size, background_luma)
            )
        return Scene(
            image=canvas,
            boxes=boxes,
            name=f"{self.profile.name}-{self.resolution[0]}x{self.resolution[1]}-{index:04d}",
        )

    # -- internals ---------------------------------------------------------------

    @staticmethod
    def _place(
        rng: np.random.Generator,
        w: int,
        h: int,
        size: float,
        centers: list[tuple[float, float]],
        attempts: int = 8,
    ) -> tuple[float, float] | None:
        margin = size * 0.6
        for _ in range(attempts):
            cx = float(rng.uniform(margin, max(w - margin, margin + 1)))
            cy = float(rng.uniform(margin, max(h - margin, margin + 1)))
            if all((cx - ox) ** 2 + (cy - oy) ** 2 > (0.5 * size) ** 2 for ox, oy in centers):
                return cx, cy
        return cx, cy  # accept the last candidate; crowds occlude

    def _draw_object(
        self,
        canvas: np.ndarray,
        rng: np.random.Generator,
        label: str,
        cx: float,
        cy: float,
        size: float,
        background_luma: float,
    ) -> list[GroundTruthBox]:
        dep = self.profile.color_dependence
        if label == "person":
            body, head = draw_person(
                canvas, rng, cx, cy - size / 2.0, size, dep, background_luma
            )
            out = [GroundTruthBox("person", *body)]
            if self.profile.head_boxes:
                out.append(GroundTruthBox("head", *head))
            return out
        if label == "pedestrian":
            body, _ = draw_person(
                canvas, rng, cx, cy - size / 2.0, size, dep, background_luma
            )
            return [GroundTruthBox("pedestrian", *body)]
        if label == "cyclist":
            box = draw_cyclist(
                canvas, rng, cx, cy - size / 2.0, size, dep, background_luma
            )
            return [GroundTruthBox("cyclist", *box)]
        if label == "people":
            # VisDrone 'people' = non-standing humans; render shorter.
            body, _ = draw_person(
                canvas, rng, cx, cy - size * 0.35, size * 0.7, dep, background_luma
            )
            return [GroundTruthBox("people", *body)]
        # Remaining classes are vehicles (top-down).
        box = draw_vehicle(canvas, rng, label, cx, cy, size * 1.6)
        return [GroundTruthBox(label, *box)]
