"""Rasterization primitives and object renderers for synthetic scenes.

Everything draws in-place onto float64 ``(H, W, 3)`` canvases in [0, 1].
Primitives are anti-aliased by coverage (a pixel's color blends with the
shape proportionally to its analytic coverage estimate), which matters at
the VisDrone-like scale where objects are only a handful of pixels wide.

Primitives draw on a *stack*: a sequence of equally sized canvases (a
clip's frames) with one position per canvas, given as length-T arrays.
An object is a list of primitives painted through one tile per canvas,
the window around the object: the tiles are copied into one
``(T, h, w, 3)`` array, every primitive computes its coverage for all
canvases in one vectorised pass and blends it into all tiles at once, and
the tiles are copied back.  A canvas therefore gets exactly the float
operations one single-canvas call at its position gives it: outside its
own window a primitive's coverage is exactly zero, which leaves a pixel
unchanged.  An object's appearance (skin, clothing, stripe angle, vehicle
color) is drawn once for the stack (:func:`draw_person_stack`,
:func:`draw_vehicle_stack`).  The single-canvas functions
(:func:`fill_rect`, :func:`draw_person`, ...) are stacks of one, which
paint straight into the canvas.

Object renderers return the ground-truth boxes the detection datasets need:

* :func:`draw_person` — torso/legs/arms/head; returns (body_box, head_box);
* :func:`draw_cyclist` — a person over a two-wheel frame;
* :func:`draw_vehicle` — parameterized car/van/truck/bus/motor/... bodies
  for the VisDrone-like profile.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .textures import stripes

Box = tuple[float, float, float, float]


def _one(value: float) -> np.ndarray:
    """A position for a stack of one."""
    return np.array([value], dtype=np.float64)


class _Rect:
    """Axis-aligned rectangle with edge anti-aliasing."""

    def __init__(self, x, y, w: float, h: float, color):
        self.enabled = w > 0 and h > 0
        self.edges = np.array([x, x + w, y, y + h])  # (4, T): x, x + w, y, y + h
        self.bounds = (
            np.floor(self.edges[0]), np.ceil(self.edges[1]),
            np.floor(self.edges[2]), np.ceil(self.edges[3]),
        )
        self.color = np.asarray(color, dtype=np.float64)

    @staticmethod
    def coverage(rects, xs, ys, bounds) -> np.ndarray:
        # Outside a canvas's window the formula gives exactly zero already.
        edges = np.array([r.edges for r in rects])[:, :, :, None]  # (k, 4, T, 1)
        x, x_end, y, y_end = edges.transpose(1, 0, 2, 3)
        cov_x = np.clip(np.minimum(xs - x, x_end - xs) + 0.5, 0.0, 1.0)
        cov_y = np.clip(np.minimum(ys - y, y_end - ys) + 0.5, 0.0, 1.0)
        return cov_y[:, :, :, None, None] * cov_x[:, :, None, :, None]


class _Ellipse:
    """Filled ellipse with ~1px soft edge."""

    def __init__(self, cx, cy, rx: float, ry: float, color):
        self.enabled = rx > 0 and ry > 0
        self.center, self.radii = np.array([cx, cy]), (rx, ry)
        self.bounds = (
            np.floor(cx - rx - 1), np.ceil(cx + rx + 1),
            np.floor(cy - ry - 1), np.ceil(cy + ry + 1),
        )
        self.color = np.asarray(color, dtype=np.float64)

    @staticmethod
    def coverage(ellipses, xs, ys, bounds) -> np.ndarray:
        centers = np.array([e.center for e in ellipses])[:, :, :, None]  # (k, 2, T, 1)
        cx, cy = centers.transpose(1, 0, 2, 3)
        rx, ry = np.array([e.radii for e in ellipses]).T[:, :, None, None]
        x0, x1, y0, y1 = bounds[:, :, :, None].transpose(1, 0, 2, 3)
        # The window cuts the soft rim short, so a pixel outside a canvas's
        # own window gets an infinite offset and with it zero coverage.
        dx = np.where((xs > x0) & (xs < x1), (xs - cx) / rx, np.inf)
        dy = np.where((ys > y0) & (ys < y1), (ys - cy) / ry, np.inf)
        dist = np.sqrt((dy**2)[:, :, :, None] + (dx**2)[:, :, None, :])
        # Coverage falls from 1 to 0 over roughly one pixel at the rim.
        edge = np.array([1.0 / max(min(e.radii), 1.0) for e in ellipses])
        coverage = np.clip((1.0 - dist) / edge[:, None, None, None] + 0.5, 0.0, 1.0)
        return coverage[..., None]


class _Texture:
    """Rectangle filled with a striped version of ``base_color`` (fabric).

    ``pitch`` pixels sets the stripe period (fine pitch = high-frequency
    detail).  The stripe angle is drawn from ``rng`` once for the stack,
    and only if some canvas's window is non-empty.  The pattern starts at
    each window's clipped corner, so canvases whose windows share a shape
    share one patch.
    """

    def __init__(
        self, size, x, y, w: float, h: float, base_color, rng, pitch, strength
    ):
        H, W = size
        self.bounds = (
            np.floor(np.maximum(x, 0)), np.ceil(np.minimum(x + w, W)),
            np.floor(np.maximum(y, 0)), np.ceil(np.minimum(y + h, H)),
        )
        x0, x1, y0, y1 = self.bounds
        self.empty = ((x0 >= x1) | (y0 >= y1)).tolist()
        self.enabled = not all(self.empty)
        self.angle = float(rng.uniform(0, 180)) if self.enabled else None
        self.base = np.asarray(base_color, dtype=np.float64)
        self.pitch, self.strength = pitch, strength
        self.patches: dict[tuple[int, int], np.ndarray] = {}

    def _patch(self, shape: tuple[int, int]) -> np.ndarray:
        patch = self.patches.get(shape)
        if patch is None:
            field = stripes(shape, pitch=self.pitch, angle_deg=self.angle)
            strength = self.strength
            textured = self.base[None, None, :] * (
                1.0 - strength + strength * field[:, :, None] * 2.0
            )
            patch = self.patches[shape] = np.clip(textured, 0.0, 1.0)
        return patch

    def paint(self, region: np.ndarray, left: np.ndarray, top: np.ndarray) -> None:
        """Stamp each canvas's patch; ``(left, top)`` is ``region``'s corner."""
        x0, x1, y0, y1 = self.bounds
        rows = zip(
            region, self.empty, (x0 - left).tolist(), (y0 - top).tolist(),
            (x1 - x0).tolist(), (y1 - y0).tolist(),
        )
        for tile, empty, x, y, w, h in rows:
            if not empty:
                x, y, w, h = int(x), int(y), int(w), int(h)
                tile[y : y + h, x : x + w] = self._patch((h, w))


def _texture(size, x, y, w, h, base_color, rng, pitch, strength=0.25):
    """A :class:`_Texture`, or a plain :class:`_Rect` below one pixel either way."""
    if w < 1 or h < 1:
        return _Rect(x, y, w, h, base_color)
    return _Texture(size, x, y, w, h, base_color, rng, pitch, strength)


def _paint(frames: Sequence[np.ndarray], primitives: Sequence) -> None:
    """Paint ``primitives`` in order on every canvas, through one tile each.

    A canvas's tile bounds every window of every primitive on it.  The
    coverage of all rectangles, and of all ellipses, is computed in one
    pass per kind, padded to the largest window; each is then blended
    over its own window.  A stack of one paints straight into its canvas.
    """
    primitives = [p for p in primitives if p.enabled]
    if not primitives:
        return
    H, W = frames[0].shape[:2]
    # Each canvas's window of each primitive, clipped to the canvas:
    # (n, 4, T) as x0, x1, y0, y1.
    bounds = np.array([p.bounds for p in primitives])
    np.maximum(bounds[:, 0::2], 0.0, out=bounds[:, 0::2])
    np.minimum(bounds[:, 1::2], [[W], [H]], out=bounds[:, 1::2])
    empty = (bounds[:, 0::2] >= bounds[:, 1::2]).any(axis=1)
    if empty.any():
        live = ~empty.all(axis=1)
        primitives = [p for p, keep in zip(primitives, live.tolist()) if keep]
        bounds, empty = bounds[live], empty[live]
        if not primitives:
            return
    if len(frames) == 1:
        tiles = frames[0][None]
        corner = np.zeros((2, 1))
        local = bounds[:, :, 0]
    else:
        # A tile per canvas, from its windows' top-left corner.
        corner = bounds[:, 0::2].min(axis=0)
        ends = bounds[:, 1::2].max(axis=0)
        # int() raises on a NaN position, as the single-canvas code always did.
        windows = np.concatenate([corner, ends]).T.tolist()  # x0 y0 x1 y1 per canvas
        windows = [[int(v) for v in window] for window in windows]
        tw = max(x1 - x0 for x0, _, x1, _ in windows)
        th = max(y1 - y0 for _, y0, _, y1 in windows)
        tiles = np.zeros((len(frames), max(th, 0), max(tw, 0), 3))
        kept = [
            (frame, tile, np.s_[y0:y1, x0:x1], np.s_[: y1 - y0, : x1 - x0])
            for frame, tile, (x0, y0, x1, y1) in zip(frames, tiles, windows)
            if x0 < x1 and y0 < y1
        ]
        for frame, tile, window, inner in kept:
            tile[inner] = frame[window]
        # Each primitive's non-empty windows, in tile coordinates.
        offset = bounds - np.repeat(corner, 2, axis=0)
        lo = np.where(empty[:, None], np.inf, offset[:, 0::2]).min(axis=2)
        hi = np.where(empty[:, None], -np.inf, offset[:, 1::2]).max(axis=2)
        local = np.stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]], axis=1)
    local = [[int(v) for v in row] for row in local.tolist()]  # x0 x1 y0 y1

    half = np.arange(max(tiles.shape[1:3])) + 0.5
    coverage = {}
    for kind in (_Rect, _Ellipse):
        group = [i for i, p in enumerate(primitives) if type(p) is kind]
        if group:
            x0, x1, y0, y1 = np.array([local[i] for i in group]).T
            xs = (corner[0] + x0[:, None])[:, :, None] + half[: (x1 - x0).max()]
            ys = (corner[1] + y0[:, None])[:, :, None] + half[: (y1 - y0).max()]
            shapes = [primitives[i] for i in group]
            coverage.update(zip(group, kind.coverage(shapes, xs, ys, bounds[group])))
    for i, (primitive, (x0, x1, y0, y1)) in enumerate(zip(primitives, local)):
        region = tiles[:, y0:y1, x0:x1]
        if i in coverage:
            weight = coverage[i][:, : y1 - y0, : x1 - x0]
            region += weight * (primitive.color - region)
        else:
            primitive.paint(region, corner[0] + x0, corner[1] + y0)

    if len(frames) > 1:
        for frame, tile, window, inner in kept:
            frame[window] = tile[inner]


def fill_rect(
    canvas: np.ndarray, x: float, y: float, w: float, h: float, color
) -> None:
    """Axis-aligned rectangle with edge anti-aliasing."""
    _paint([canvas], [_Rect(_one(x), _one(y), w, h, color)])


def fill_ellipse(
    canvas: np.ndarray, cx: float, cy: float, rx: float, ry: float, color
) -> None:
    """Filled ellipse with ~1px soft edge."""
    _paint([canvas], [_Ellipse(_one(cx), _one(cy), rx, ry, color)])


def fill_circle(canvas: np.ndarray, cx: float, cy: float, r: float, color) -> None:
    fill_ellipse(canvas, cx, cy, r, r, color)


# -- skin/clothing palettes ------------------------------------------------------

SKIN_TONES = (
    (0.95, 0.80, 0.69),
    (0.87, 0.68, 0.53),
    (0.76, 0.57, 0.42),
    (0.55, 0.39, 0.29),
    (0.42, 0.29, 0.21),
)

HAIR_COLORS = (
    (0.08, 0.06, 0.05),
    (0.25, 0.15, 0.08),
    (0.45, 0.32, 0.14),
    (0.62, 0.55, 0.48),
    (0.12, 0.10, 0.11),
)


def clothing_color(
    rng: np.random.Generator, color_dependence: float, background_luma: float
) -> tuple[float, float, float]:
    """Sample a clothing color whose *detectability* depends on color.

    With high ``color_dependence`` the clothing is strongly chromatic but
    its *luminance* is matched to the background — so an RGB detector sees
    it clearly while a grayscale detector loses most of the contrast.  With
    low dependence the clothing contrasts in luminance too.

    Args:
        rng: random generator.
        color_dependence: 0 (luminance cue) .. 1 (pure chroma cue).
        background_luma: approximate background luminance to match against.

    Returns:
        RGB tuple.
    """
    hue = rng.uniform(0.0, 1.0)
    # Simple HSV->RGB with V chosen per the dependence knob.
    if rng.random() < color_dependence:
        target_luma = float(min(max(background_luma + rng.normal(0.0, 0.04), 0.1), 0.9))
        saturation = 0.85
    else:
        offset = rng.choice([-0.35, 0.35])
        target_luma = float(min(max(background_luma + offset, 0.05), 0.95))
        saturation = rng.uniform(0.2, 0.6)
    rgb = _hsv_to_rgb(hue, saturation, 1.0)
    luma = 0.299 * rgb[0] + 0.587 * rgb[1] + 0.114 * rgb[2]
    scale = target_luma / max(luma, 1e-6)
    return tuple(float(min(max(c * scale, 0.0), 1.0)) for c in rgb)


def _hsv_to_rgb(h: float, s: float, v: float) -> tuple[float, float, float]:
    i = int(h * 6.0) % 6
    f = h * 6.0 - int(h * 6.0)
    p, q, t = v * (1 - s), v * (1 - f * s), v * (1 - (1 - f) * s)
    return [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]


# -- object renderers --------------------------------------------------------------


def draw_person_stack(
    frames: Sequence[np.ndarray],
    rng: np.random.Generator,
    cx: np.ndarray,
    top: np.ndarray,
    height: float,
    color_dependence: float = 0.5,
    background_luma: float = 0.5,
) -> list[tuple[Box, Box]]:
    """Draw one standing person on every canvas of a stack.

    Proportions follow the classic 7.5-head figure: head diameter ~ height/6
    (a bit large, matching pedestrian-dataset head boxes), shoulder width ~
    height/3.  The appearance is drawn from ``rng`` once for the stack.

    Args:
        frames: target images.
        rng: random generator.
        cx: per-canvas horizontal center in pixels.
        top: per-canvas y of the top of the head.
        height: full body height in pixels.
        color_dependence: see :func:`clothing_color`.
        background_luma: backdrop luminance near the person.

    Returns:
        Per canvas, two ``(x, y, w, h)`` boxes: full body and head.
    """
    head_d = height / 6.0
    body_w = height / 2.8
    skin = np.asarray(SKIN_TONES[rng.integers(len(SKIN_TONES))])
    hair = np.asarray(HAIR_COLORS[rng.integers(len(HAIR_COLORS))])
    shirt = np.asarray(clothing_color(rng, color_dependence, background_luma))
    pants = np.asarray(clothing_color(rng, color_dependence, background_luma))

    head_cy = top + head_d / 2.0
    eye_r = max(head_d * 0.05, 0.4)
    eye_y = head_cy - head_d * 0.05
    torso_top = top + head_d
    torso_h = height * 0.38
    arm_w = body_w * 0.18
    legs_top = torso_top + torso_h
    leg_h = height - head_d - torso_h
    leg_w = body_w * 0.32
    _paint(frames, [
        # Head + hair cap.
        _Ellipse(cx, head_cy, head_d / 2.0, head_d / 2.0, skin),
        _Ellipse(cx, top + head_d * 0.28, head_d * 0.52, head_d * 0.33, hair),
        # Facial micro-features (visible only at high resolution).
        _Ellipse(cx - head_d * 0.18, eye_y, eye_r, eye_r, (0.05, 0.05, 0.08)),
        _Ellipse(cx + head_d * 0.18, eye_y, eye_r, eye_r, (0.05, 0.05, 0.08)),
        _Rect(
            cx - head_d * 0.15, head_cy + head_d * 0.22, head_d * 0.3,
            max(head_d * 0.05, 0.4), (0.45, 0.2, 0.2),
        ),
        # Torso with fabric stripes (pitch scales with size: fine detail).
        _texture(
            frames[0].shape[:2], cx - body_w / 2.0, torso_top, body_w, torso_h,
            shirt, rng, pitch=max(height / 40.0, 1.6), strength=0.3,
        ),
        # Arms.
        _Rect(cx - body_w / 2.0 - arm_w, torso_top, arm_w, torso_h * 0.9, shirt),
        _Rect(cx + body_w / 2.0, torso_top, arm_w, torso_h * 0.9, shirt),
        # Legs.
        _Rect(cx - body_w * 0.30, legs_top, leg_w, leg_h, pants),
        _Rect(cx + body_w * 0.30 - leg_w, legs_top, leg_w, leg_h, pants),
    ])

    body_x = (cx - body_w / 2.0 - arm_w).tolist()
    head_x = (cx - head_d * 0.55).tolist()
    return [
        (
            (bx, y, body_w + 2 * arm_w, height),
            (hx, y, head_d * 1.1, head_d * 1.1),
        )
        for bx, hx, y in zip(body_x, head_x, top.tolist())
    ]


def draw_person(
    canvas: np.ndarray,
    rng: np.random.Generator,
    cx: float,
    top: float,
    height: float,
    color_dependence: float = 0.5,
    background_luma: float = 0.5,
) -> tuple[Box, Box]:
    """Draw a standing person; returns ``(body_box, head_box)``.

    A stack of one: see :func:`draw_person_stack`.
    """
    return draw_person_stack(
        [canvas], rng, _one(cx), _one(top), height, color_dependence, background_luma
    )[0]


def draw_cyclist(
    canvas: np.ndarray,
    rng: np.random.Generator,
    cx: float,
    top: float,
    height: float,
    color_dependence: float = 0.5,
    background_luma: float = 0.5,
) -> Box:
    """Person on a bicycle; returns the enclosing box."""
    wheel_r = height * 0.18
    frame_color = np.asarray(
        clothing_color(rng, color_dependence * 0.5, background_luma)
    )
    person_h = height * 0.72
    body_box, _ = draw_person(
        canvas, rng, cx, top, person_h, color_dependence, background_luma
    )
    wheel_y = _one(top + height - wheel_r)
    tire = (0.08, 0.08, 0.08)
    parts = []
    for wx in (_one(cx - height * 0.22), _one(cx + height * 0.22)):
        parts.append(_Ellipse(wx, wheel_y, wheel_r, wheel_r, tire))
        parts.append(_Ellipse(wx, wheel_y, wheel_r * 0.55, wheel_r * 0.55, frame_color))
    parts.append(_Rect(
        _one(cx - height * 0.22), wheel_y - wheel_r * 0.2, height * 0.44,
        wheel_r * 0.3, frame_color,
    ))
    _paint([canvas], parts)
    x0 = min(body_box[0], cx - height * 0.22 - wheel_r)
    x1 = max(body_box[0] + body_box[2], cx + height * 0.22 + wheel_r)
    return (x0, top, x1 - x0, height)


#: VisDrone-like vehicle footprints: (aspect w/h, base RGB, window fraction).
VEHICLE_STYLES = {
    "car": (2.1, (0.75, 0.1, 0.1), 0.45),
    "van": (2.3, (0.85, 0.85, 0.9), 0.35),
    "truck": (2.9, (0.3, 0.4, 0.6), 0.25),
    "bus": (3.2, (0.9, 0.6, 0.1), 0.5),
    "motor": (1.9, (0.2, 0.2, 0.25), 0.0),
    "bicycle": (1.8, (0.15, 0.5, 0.2), 0.0),
    "tricycle": (1.6, (0.6, 0.3, 0.1), 0.2),
    "awning-tricycle": (1.6, (0.2, 0.5, 0.55), 0.3),
}


def draw_vehicle_stack(
    frames: Sequence[np.ndarray],
    rng: np.random.Generator,
    kind: str,
    cx: np.ndarray,
    cy: np.ndarray,
    length: float,
) -> list[Box]:
    """Top-down vehicle on every canvas of a stack; returns each box.

    Args:
        frames: target images.
        rng: random generator (the color is drawn once for the stack).
        kind: a key of :data:`VEHICLE_STYLES`.
        cx, cy: per-canvas center position in pixels.
        length: vehicle length in pixels (width derives from the aspect).

    Returns:
        Per canvas, the ``(x, y, w, h)`` box.
    """
    aspect, base, win_frac = VEHICLE_STYLES[kind]
    w = length
    h = max(length / aspect, 1.5)
    jitter = rng.normal(0.0, 0.05, size=3)
    color = np.clip(np.asarray(base) + jitter, 0.0, 1.0)
    x, y = cx - w / 2.0, cy - h / 2.0
    parts = [_Rect(x, y, w, h, color)]
    if win_frac > 0:
        parts.append(_Rect(
            x + w * 0.22, y + h * 0.18, w * win_frac, h * 0.64, (0.1, 0.12, 0.18)
        ))
    if kind in ("motor", "bicycle"):
        for wx in (x + w * 0.2, x + w * 0.8):
            parts.append(_Ellipse(wx, cy, h * 0.4, h * 0.4, (0.05, 0.05, 0.05)))
    _paint(frames, parts)
    return [(bx, by, w, h) for bx, by in zip(x.tolist(), y.tolist())]


def draw_vehicle(
    canvas: np.ndarray,
    rng: np.random.Generator,
    kind: str,
    cx: float,
    cy: float,
    length: float,
) -> Box:
    """Top-down vehicle for aerial scenes; returns its box.

    A stack of one: see :func:`draw_vehicle_stack`.
    """
    return draw_vehicle_stack([canvas], rng, kind, _one(cx), _one(cy), length)[0]
