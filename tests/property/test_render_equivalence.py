"""Frame-batched scene synthesis equals the per-canvas renderer it replaced.

The reference below is the renderer as it was before clips were drawn
frame-batched: per-canvas ``fill_rect``, ``fill_ellipse`` and
``texture_rect`` (with the four-corner bilinear value noise and the
broadcast ``colorize``), and a clip loop that redraws every actor on
every frame from a fresh appearance generator and clips each frame.
Every frame, every ground-truth box (values and Python types) and every
caller's generator state must come out bit-identical, for the animated
clips and for the single-canvas callers that share one generator
(``SceneGenerator`` scenes, ``draw_cyclist``, RAF-DB faces).
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets import rafdb, scene as scene_module, shapes
from repro.datasets.profiles import CROWDHUMAN_LIKE, DHDCAMPUS_LIKE, VISDRONE_LIKE
from repro.datasets.scene import SceneGenerator
from repro.datasets.shapes import (
    HAIR_COLORS,
    SKIN_TONES,
    VEHICLE_STYLES,
    _hsv_to_rgb,
)
from repro.datasets.textures import stripes
from repro.stream.source import Actor, _render_clip, drone_traffic_clip, pedestrian_clip

PROPERTY = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- the reference renderer ------------------------------------------------------


def ref_bilinear_upsample(grid, shape):
    gh, gw = grid.shape
    h, w = shape
    ys = np.linspace(0.0, gh - 1.0, h)
    xs = np.linspace(0.0, gw - 1.0, w)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    top = grid[np.ix_(y0, x0)] * (1 - fx) + grid[np.ix_(y0, x1)] * fx
    bottom = grid[np.ix_(y1, x0)] * (1 - fx) + grid[np.ix_(y1, x1)] * fx
    return top * (1 - fy) + bottom * fy


def ref_value_noise(shape, rng, octaves=4, base_cells=4, persistence=0.55):
    h, w = shape
    total = np.zeros(shape)
    amplitude = 1.0
    norm = 0.0
    cells = base_cells
    for _ in range(octaves):
        gh = max(2, min(h, int(round(cells * h / min(h, w)))))
        gw = max(2, min(w, int(round(cells * w / min(h, w)))))
        grid = rng.random((gh, gw))
        total += amplitude * ref_bilinear_upsample(grid, shape)
        norm += amplitude
        amplitude *= persistence
        cells *= 2
    total /= norm
    lo, hi = float(total.min()), float(total.max())
    if hi > lo:
        total = (total - lo) / (hi - lo)
    return total


def ref_colorize(field, low, high):
    low_arr = np.asarray(low, dtype=np.float64)
    high_arr = np.asarray(high, dtype=np.float64)
    return field[:, :, None] * (high_arr - low_arr) + low_arr


def ref_blend(region, color, coverage):
    region += coverage[:, :, None] * (color[None, None, :] - region)


def ref_fill_rect(canvas, x, y, w, h, color):
    if w <= 0 or h <= 0:
        return
    H, W = canvas.shape[:2]
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    x1, y1 = int(np.ceil(x + w)), int(np.ceil(y + h))
    x0c, y0c = max(x0, 0), max(y0, 0)
    x1c, y1c = min(x1, W), min(y1, H)
    if x0c >= x1c or y0c >= y1c:
        return
    xs = np.arange(x0c, x1c) + 0.5
    ys = np.arange(y0c, y1c) + 0.5
    cov_x = np.clip(np.minimum(xs - x, x + w - xs) + 0.5, 0.0, 1.0)
    cov_y = np.clip(np.minimum(ys - y, y + h - ys) + 0.5, 0.0, 1.0)
    coverage = cov_y[:, None] * cov_x[None, :]
    ref_blend(canvas[y0c:y1c, x0c:x1c], np.asarray(color, dtype=np.float64), coverage)


def ref_fill_ellipse(canvas, cx, cy, rx, ry, color):
    if rx <= 0 or ry <= 0:
        return
    H, W = canvas.shape[:2]
    x0, y0 = max(int(np.floor(cx - rx - 1)), 0), max(int(np.floor(cy - ry - 1)), 0)
    x1, y1 = min(int(np.ceil(cx + rx + 1)), W), min(int(np.ceil(cy + ry + 1)), H)
    if x0 >= x1 or y0 >= y1:
        return
    xs = (np.arange(x0, x1) + 0.5 - cx) / rx
    ys = (np.arange(y0, y1) + 0.5 - cy) / ry
    dist = np.sqrt(ys[:, None] ** 2 + xs[None, :] ** 2)
    edge = 1.0 / max(min(rx, ry), 1.0)
    coverage = np.clip((1.0 - dist) / edge + 0.5, 0.0, 1.0)
    ref_blend(canvas[y0:y1, x0:x1], np.asarray(color, dtype=np.float64), coverage)


def ref_fill_circle(canvas, cx, cy, r, color):
    ref_fill_ellipse(canvas, cx, cy, r, r, color)


def ref_texture_rect(canvas, x, y, w, h, base_color, rng, strength=0.25, pitch=None):
    if w < 1 or h < 1:
        ref_fill_rect(canvas, x, y, w, h, base_color)
        return
    x0, y0 = int(np.floor(max(x, 0))), int(np.floor(max(y, 0)))
    x1 = int(np.ceil(min(x + w, canvas.shape[1])))
    y1 = int(np.ceil(min(y + h, canvas.shape[0])))
    if x0 >= x1 or y0 >= y1:
        return
    shape = (y1 - y0, x1 - x0)
    if pitch is not None and pitch >= 1.5:
        field = stripes(shape, pitch=pitch, angle_deg=float(rng.uniform(0, 180)))
    else:
        field = ref_value_noise(shape, rng, octaves=2, base_cells=3)
    base = np.asarray(base_color, dtype=np.float64)
    textured = base[None, None, :] * (1.0 - strength + strength * field[:, :, None] * 2.0)
    canvas[y0:y1, x0:x1] = np.clip(textured, 0.0, 1.0)


def ref_clothing_color(rng, color_dependence, background_luma):
    hue = rng.uniform(0.0, 1.0)
    if rng.random() < color_dependence:
        target_luma = float(np.clip(background_luma + rng.normal(0.0, 0.04), 0.1, 0.9))
        saturation = 0.85
    else:
        offset = rng.choice([-0.35, 0.35])
        target_luma = float(np.clip(background_luma + offset, 0.05, 0.95))
        saturation = rng.uniform(0.2, 0.6)
    rgb = _hsv_to_rgb(hue, saturation, 1.0)
    luma = 0.299 * rgb[0] + 0.587 * rgb[1] + 0.114 * rgb[2]
    scale = target_luma / max(luma, 1e-6)
    return tuple(float(np.clip(c * scale, 0.0, 1.0)) for c in rgb)


def ref_draw_person(canvas, rng, cx, top, height, color_dependence=0.5, background_luma=0.5):
    head_d = height / 6.0
    body_w = height / 2.8
    skin = np.asarray(SKIN_TONES[rng.integers(len(SKIN_TONES))])
    hair = np.asarray(HAIR_COLORS[rng.integers(len(HAIR_COLORS))])
    shirt = np.asarray(ref_clothing_color(rng, color_dependence, background_luma))
    pants = np.asarray(ref_clothing_color(rng, color_dependence, background_luma))
    head_cy = top + head_d / 2.0
    ref_fill_circle(canvas, cx, head_cy, head_d / 2.0, skin)
    ref_fill_ellipse(canvas, cx, top + head_d * 0.28, head_d * 0.52, head_d * 0.33, hair)
    eye_r = max(head_d * 0.05, 0.4)
    ref_fill_circle(canvas, cx - head_d * 0.18, head_cy - head_d * 0.05, eye_r, (0.05, 0.05, 0.08))
    ref_fill_circle(canvas, cx + head_d * 0.18, head_cy - head_d * 0.05, eye_r, (0.05, 0.05, 0.08))
    ref_fill_rect(
        canvas, cx - head_d * 0.15, head_cy + head_d * 0.22, head_d * 0.3,
        max(head_d * 0.05, 0.4), (0.45, 0.2, 0.2),
    )
    torso_top = top + head_d
    torso_h = height * 0.38
    ref_texture_rect(
        canvas, cx - body_w / 2.0, torso_top, body_w, torso_h, shirt, rng,
        strength=0.3, pitch=max(height / 40.0, 1.6),
    )
    arm_w = body_w * 0.18
    ref_fill_rect(canvas, cx - body_w / 2.0 - arm_w, torso_top, arm_w, torso_h * 0.9, shirt)
    ref_fill_rect(canvas, cx + body_w / 2.0, torso_top, arm_w, torso_h * 0.9, shirt)
    legs_top = torso_top + torso_h
    leg_h = height - head_d - torso_h
    leg_w = body_w * 0.32
    ref_fill_rect(canvas, cx - body_w * 0.30, legs_top, leg_w, leg_h, pants)
    ref_fill_rect(canvas, cx + body_w * 0.30 - leg_w, legs_top, leg_w, leg_h, pants)
    body_box = (cx - body_w / 2.0 - arm_w, top, body_w + 2 * arm_w, height)
    head_box = (cx - head_d * 0.55, top, head_d * 1.1, head_d * 1.1)
    return body_box, head_box


def ref_draw_cyclist(canvas, rng, cx, top, height, color_dependence=0.5, background_luma=0.5):
    wheel_r = height * 0.18
    frame_color = np.asarray(ref_clothing_color(rng, color_dependence * 0.5, background_luma))
    person_h = height * 0.72
    body_box, _ = ref_draw_person(
        canvas, rng, cx, top, person_h, color_dependence, background_luma
    )
    wheel_y = top + height - wheel_r
    tire = (0.08, 0.08, 0.08)
    for wx in (cx - height * 0.22, cx + height * 0.22):
        ref_fill_circle(canvas, wx, wheel_y, wheel_r, tire)
        ref_fill_circle(canvas, wx, wheel_y, wheel_r * 0.55, frame_color)
    ref_fill_rect(
        canvas, cx - height * 0.22, wheel_y - wheel_r * 0.2, height * 0.44, wheel_r * 0.3,
        frame_color,
    )
    x0 = min(body_box[0], cx - height * 0.22 - wheel_r)
    x1 = max(body_box[0] + body_box[2], cx + height * 0.22 + wheel_r)
    return (x0, top, x1 - x0, height)


def ref_draw_vehicle(canvas, rng, kind, cx, cy, length):
    aspect, base, win_frac = VEHICLE_STYLES[kind]
    w = length
    h = max(length / aspect, 1.5)
    jitter = rng.normal(0.0, 0.05, size=3)
    color = np.clip(np.asarray(base) + jitter, 0.0, 1.0)
    x, y = cx - w / 2.0, cy - h / 2.0
    ref_fill_rect(canvas, x, y, w, h, color)
    if win_frac > 0:
        ref_fill_rect(
            canvas, x + w * 0.22, y + h * 0.18, w * win_frac, h * 0.64, (0.1, 0.12, 0.18)
        )
    if kind in ("motor", "bicycle"):
        ref_fill_circle(canvas, x + w * 0.2, cy, h * 0.4, (0.05, 0.05, 0.05))
        ref_fill_circle(canvas, x + w * 0.8, cy, h * 0.4, (0.05, 0.05, 0.05))
    return (x, y, w, h)


def ref_render_clip(actors, n_frames, backdrop, seed, jitter):
    frames, ground_truth = [], []
    jitter_rng = np.random.default_rng((seed, 999_331))
    for t in range(n_frames):
        canvas = backdrop.copy()
        boxes = []
        for i, actor in enumerate(actors):
            dx = jitter * jitter_rng.normal() if jitter else 0.0
            dy = jitter * jitter_rng.normal() if jitter else 0.0
            x = actor.x + actor.vx * t + dx
            y = actor.y + actor.vy * t + dy
            appearance = np.random.default_rng((seed, i))
            if actor.kind == "person":
                body, _ = ref_draw_person(canvas, appearance, x, y, actor.size, 0.3, 0.55)
                boxes.append(body)
            else:
                boxes.append(ref_draw_vehicle(canvas, appearance, actor.kind, x, y, actor.size))
        frames.append(np.clip(canvas, 0.0, 1.0))
        ground_truth.append(boxes)
    return frames, ground_truth


def ref_pedestrian_clip(n_frames, resolution, n_walkers, seed, speed, jitter):
    width, height = resolution
    rng = np.random.default_rng(seed)
    backdrop = ref_colorize(
        ref_value_noise((height, width), rng, octaves=4), (0.5, 0.49, 0.47), (0.66, 0.64, 0.61)
    )
    actors = []
    for i in range(n_walkers):
        h = height * rng.uniform(0.14, 0.26)
        direction = 1.0 if i % 2 == 0 else -1.0
        margin = 0.15 * width
        x0 = rng.uniform(margin, width - margin)
        y0 = rng.uniform(0.05 * height, height - 1.3 * h)
        actors.append(Actor("person", x0, y0, h, direction * speed * rng.uniform(0.7, 1.3)))
    return ref_render_clip(actors, n_frames, backdrop, seed, jitter)


def ref_drone_traffic_clip(n_frames, resolution, n_vehicles, seed, speed, jitter):
    width, height = resolution
    rng = np.random.default_rng(seed)
    backdrop = ref_colorize(
        ref_value_noise((height, width), rng, octaves=3), (0.32, 0.33, 0.34), (0.45, 0.46, 0.47)
    )
    kinds = ["car", "car", "van", "truck"]
    actors = []
    for i in range(n_vehicles):
        lane_y = height * (i + 1) / (n_vehicles + 1)
        direction = 1.0 if i % 2 == 0 else -1.0
        actors.append(Actor(
            kinds[i % len(kinds)],
            rng.uniform(0.2 * width, 0.8 * width),
            lane_y,
            width * rng.uniform(0.08, 0.14),
            direction * speed * rng.uniform(0.8, 1.2),
        ))
    return ref_render_clip(actors, n_frames, backdrop, seed, jitter)


# -- comparisons -------------------------------------------------------------------


def assert_same_images(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def assert_same_boxes(got, want):
    # Equal values and equal Python types: repr tells a float from an
    # np.float64.
    assert got == want
    assert repr(got) == repr(want)


resolutions = st.tuples(st.integers(1, 97), st.integers(1, 73))
jitters = st.one_of(st.just(0.0), st.floats(0.05, 3.0))


@given(
    drone=st.booleans(),
    resolution=resolutions,
    n_actors=st.integers(0, 12),
    n_frames=st.integers(1, 16),
    seed=st.integers(0, 2**16),
    speed=st.floats(-12.0, 12.0),
    jitter=jitters,
)
@PROPERTY
def test_animated_clips_match_the_per_frame_renderer(
    drone, resolution, n_actors, n_frames, seed, speed, jitter
):
    make, ref, count = (
        (drone_traffic_clip, ref_drone_traffic_clip, "n_vehicles")
        if drone
        else (pedestrian_clip, ref_pedestrian_clip, "n_walkers")
    )
    clip = make(
        n_frames=n_frames, resolution=resolution, seed=seed, speed=speed,
        jitter=jitter, **{count: n_actors},
    )
    frames, ground_truth = ref(n_frames, resolution, n_actors, seed, speed, jitter)
    assert_same_images(clip.frames, frames)
    assert_same_boxes(clip.ground_truth, ground_truth)


@st.composite
def actor_lists(draw, width, height):
    # Anywhere on or off the canvas, moving in or out of it, down to
    # sub-pixel sizes (a torso under 1 px takes the plain-rectangle path).
    kinds = st.sampled_from(["person", "person", *VEHICLE_STYLES])
    coordinate = st.floats(-40.0, 40.0 + max(width, height))
    return [
        Actor(
            draw(kinds), draw(coordinate), draw(coordinate),
            draw(st.floats(0.05, 60.0)), draw(st.floats(-9.0, 9.0)), draw(st.floats(-9.0, 9.0)),
        )
        for _ in range(draw(st.integers(0, 12)))
    ]


@given(
    resolution=resolutions,
    n_frames=st.integers(1, 16),
    seed=st.integers(0, 2**16),
    jitter=jitters,
    data=st.data(),
)
@PROPERTY
def test_any_actors_match_the_per_frame_renderer(resolution, n_frames, seed, jitter, data):
    width, height = resolution
    actors = data.draw(actor_lists(width, height))
    backdrop = np.random.default_rng(seed).random((height, width, 3))
    want_frames, want_boxes = ref_render_clip(actors, n_frames, backdrop.copy(), seed, jitter)
    clip = _render_clip(actors, n_frames, resolution, backdrop.copy(), seed, jitter)
    assert_same_images(clip.frames, want_frames)
    assert_same_boxes(clip.ground_truth, want_boxes)


@st.composite
def stacked_primitives(draw, n_frames, width, height):
    """Primitives at arbitrary per-canvas positions, as (kind, args, xs, ys)."""
    coordinate = st.floats(-30.0, 30.0 + max(width, height))
    # <= 0 draws nothing, < 1 is sub-pixel.  (Radii near the float minimum
    # overflow the offsets, in either renderer.)
    extent = st.one_of(st.floats(-1.0, 0.0), st.floats(0.01, 40.0))
    channel = st.floats(0.0, 1.0)
    out = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["rect", "ellipse", "texture"]))
        a, b = draw(extent), draw(extent)
        if kind == "texture":
            a, b = abs(a), abs(b)
        color = tuple(draw(channel) for _ in range(3))
        x0, y0 = draw(coordinate), draw(coordinate)
        # Small per-canvas moves put the windows on different pixel grids.
        steps = st.floats(-2.5, 2.5)
        xs = np.array([x0 + draw(steps) for _ in range(n_frames)])
        ys = np.array([y0 + draw(steps) for _ in range(n_frames)])
        out.append((kind, a, b, color, xs, ys, draw(st.floats(1.6, 6.0))))
    return out


@given(
    resolution=resolutions,
    n_frames=st.integers(1, 8),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(PROPERTY, max_examples=80)
def test_primitives_on_a_stack_match_each_canvas_drawn_alone(
    resolution, n_frames, seed, data
):
    # Elongated ellipses are the case the window mask exists for: their
    # soft rim reaches past the window, which cuts it off on every canvas.
    width, height = resolution
    specs = data.draw(stacked_primitives(n_frames, width, height))
    backdrop = np.random.default_rng(seed).random((height, width, 3))
    frames = [backdrop.copy() for _ in range(n_frames)]
    primitives = []
    for kind, a, b, color, xs, ys, pitch in specs:
        if kind == "rect":
            primitives.append(shapes._Rect(xs, ys, a, b, color))
        elif kind == "ellipse":
            primitives.append(shapes._Ellipse(xs, ys, a, b, color))
        else:
            primitives.append(shapes._texture(
                (height, width), xs, ys, a, b, color, np.random.default_rng(seed),
                pitch=pitch, strength=0.3,
            ))
    shapes._paint(frames, primitives)
    for t, frame in enumerate(frames):
        canvas = backdrop.copy()
        for kind, a, b, color, xs, ys, pitch in specs:
            x, y = float(xs[t]), float(ys[t])
            if kind == "rect":
                ref_fill_rect(canvas, x, y, a, b, color)
            elif kind == "ellipse":
                ref_fill_ellipse(canvas, x, y, a, b, color)
            else:
                ref_texture_rect(
                    canvas, x, y, a, b, color, np.random.default_rng(seed),
                    strength=0.3, pitch=pitch,
                )
        assert_same_images([frame], [canvas])


def reference_drawing():
    """Patch the single-canvas callers over to the reference renderer."""
    stack = ExitStack()
    for module, name, ref in (
        (scene_module, "draw_person", ref_draw_person),
        (scene_module, "draw_cyclist", ref_draw_cyclist),
        (scene_module, "draw_vehicle", ref_draw_vehicle),
        (scene_module, "value_noise", ref_value_noise),
        (scene_module, "colorize", ref_colorize),
        (rafdb, "fill_rect", ref_fill_rect),
        (rafdb, "fill_ellipse", ref_fill_ellipse),
        (rafdb, "fill_circle", ref_fill_circle),
        (rafdb, "value_noise", ref_value_noise),
    ):
        stack.enter_context(mock.patch.object(module, name, ref))
    return stack


@given(
    profile=st.sampled_from([CROWDHUMAN_LIKE, DHDCAMPUS_LIKE, VISDRONE_LIKE]),
    resolution=st.tuples(st.integers(32, 160), st.integers(32, 120)),
    seed=st.integers(0, 2**16),
    index=st.integers(0, 50),
)
@settings(PROPERTY, max_examples=25)
def test_scene_generator_matches_the_reference(profile, resolution, seed, index):
    generator = SceneGenerator(profile, resolution=resolution, seed=seed)
    got = generator.scene(index)
    with reference_drawing():
        want = generator.scene(index)
    assert_same_images([got.image], [want.image])
    assert_same_boxes(got.boxes, want.boxes)


@given(
    expression=st.sampled_from(rafdb.EXPRESSIONS),
    seed=st.integers(0, 2**16),
    size=st.sampled_from([56, 112, 224]),
)
@settings(PROPERTY, max_examples=15)
def test_faces_match_the_reference(expression, seed, size):
    rng = np.random.default_rng(seed)
    got = rafdb.render_face(expression, rng, size)
    after = rng.random()
    rng = np.random.default_rng(seed)
    with reference_drawing():
        want = rafdb.render_face(expression, rng, size)
    assert_same_images([got], [want])
    assert after == rng.random()


CALLS = {
    "person": (shapes.draw_person, ref_draw_person),
    "cyclist": (shapes.draw_cyclist, ref_draw_cyclist),
    "vehicle": (
        lambda canvas, rng, cx, top, size, *_: shapes.draw_vehicle(
            canvas, rng, "motor", cx, top, size
        ),
        lambda canvas, rng, cx, top, size, *_: ref_draw_vehicle(
            canvas, rng, "motor", cx, top, size
        ),
    ),
}


@given(
    kind=st.sampled_from(sorted(CALLS)),
    resolution=resolutions,
    cx=st.floats(-30.0, 130.0),
    top=st.floats(-30.0, 100.0),
    size=st.floats(0.05, 80.0),
    dependence=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
@settings(PROPERTY, max_examples=80)
def test_single_canvas_calls_share_the_generator_like_the_reference(
    kind, resolution, cx, top, size, dependence, seed
):
    # The stripe angle is drawn only when the torso window is non-empty
    # and at least 1 px each way, so the draw after the call shows
    # whether the new renderer consumed the generator the same way.
    width, height = resolution
    canvas = np.random.default_rng(seed).random((height, width, 3))
    expected = canvas.copy()
    new, ref = CALLS[kind]
    rng = np.random.default_rng(seed)
    got = new(canvas, rng, cx, top, size, dependence, 0.45)
    after = rng.random()
    rng = np.random.default_rng(seed)
    want = ref(expected, rng, cx, top, size, dependence, 0.45)
    assert_same_images([canvas], [expected])
    assert got == want
    assert after == rng.random()
