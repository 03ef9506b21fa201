"""Tests for procedural textures and shape rasterization."""

import numpy as np
import pytest

from repro.datasets.shapes import (
    draw_cyclist,
    draw_person,
    draw_vehicle,
    fill_circle,
    fill_ellipse,
    fill_rect,
)
from repro.datasets.textures import colorize, stripes, value_noise


class TestTextures:
    def test_value_noise_range_and_shape(self):
        rng = np.random.default_rng(0)
        field = value_noise((40, 60), rng)
        assert field.shape == (40, 60)
        assert field.min() == pytest.approx(0.0)
        assert field.max() == pytest.approx(1.0)

    def test_value_noise_not_constant(self):
        rng = np.random.default_rng(1)
        assert value_noise((32, 32), rng).std() > 0.05

    def test_stripes_period(self):
        field = stripes((4, 32), pitch=8.0, angle_deg=0.0, soft=0.01)
        row = field[0]
        assert row[:3].mean() > 0.9  # bright phase
        assert np.allclose(row[:8], row[8:16], atol=0.05)  # periodic

    def test_stripes_rejects_bad_pitch(self):
        with pytest.raises(ValueError):
            stripes((4, 4), pitch=0.0)

    def test_colorize_endpoints(self):
        field = np.array([[0.0, 1.0]])
        out = colorize(field, (0.1, 0.2, 0.3), (0.9, 0.8, 0.7))
        assert np.allclose(out[0, 0], (0.1, 0.2, 0.3))
        assert np.allclose(out[0, 1], (0.9, 0.8, 0.7))


class TestPrimitives:
    def test_fill_rect_interior(self):
        canvas = np.zeros((10, 10, 3))
        fill_rect(canvas, 2, 3, 4, 5, (1.0, 0.0, 0.0))
        assert np.allclose(canvas[5, 4], (1.0, 0.0, 0.0))
        assert np.allclose(canvas[0, 0], 0.0)

    def test_fill_rect_clipped_at_border(self):
        canvas = np.zeros((10, 10, 3))
        fill_rect(canvas, 8, 8, 10, 10, (0.0, 1.0, 0.0))
        assert canvas[9, 9, 1] > 0.5
        assert canvas[0, 0, 1] == 0.0

    def test_fill_rect_degenerate_noop(self):
        canvas = np.zeros((5, 5, 3))
        fill_rect(canvas, 1, 1, 0, 3, (1, 1, 1))
        assert canvas.sum() == 0.0

    def test_fill_circle_center_and_outside(self):
        canvas = np.zeros((20, 20, 3))
        fill_circle(canvas, 10, 10, 5, (0.0, 0.0, 1.0))
        assert canvas[10, 10, 2] > 0.9
        assert canvas[1, 1, 2] == 0.0

    def test_fill_ellipse_covers_axes(self):
        canvas = np.zeros((30, 30, 3))
        fill_ellipse(canvas, 15, 15, 10, 5, (1.0, 1.0, 1.0))
        assert canvas[15, 7, 0] > 0.5  # along x radius
        assert canvas[12, 15, 0] > 0.5  # along y radius
        assert canvas[5, 15, 0] < 0.5  # beyond y radius


class TestObjectRenderers:
    def test_person_boxes_sane(self):
        canvas = np.full((120, 120, 3), 0.5)
        rng = np.random.default_rng(3)
        body, head = draw_person(canvas, rng, cx=60, top=20, height=80)
        bx, by, bw, bh = body
        assert bh == 80
        assert 20 <= bw <= 60
        hx, hy, hw, hh = head
        assert hh < bh / 3
        assert by <= hy <= by + bh

    def test_person_modifies_canvas(self):
        canvas = np.full((100, 100, 3), 0.5)
        before = canvas.copy()
        draw_person(canvas, np.random.default_rng(4), 50, 10, 70)
        assert not np.array_equal(canvas, before)

    def test_cyclist_box_wider_than_person(self):
        canvas = np.full((120, 120, 3), 0.5)
        rng = np.random.default_rng(5)
        box = draw_cyclist(canvas, rng, cx=60, top=20, height=80)
        assert box[2] > 30  # wheels widen the box

    def test_vehicle_kinds(self):
        canvas = np.full((60, 120, 3), 0.5)
        rng = np.random.default_rng(6)
        for kind in ("car", "van", "truck", "bus", "motor"):
            box = draw_vehicle(canvas, rng, kind, cx=60, cy=30, length=30)
            assert box[2] == pytest.approx(30)
            assert box[3] < box[2]  # top-down vehicles are long

    def test_vehicle_unknown_kind(self):
        canvas = np.zeros((10, 10, 3))
        with pytest.raises(KeyError):
            draw_vehicle(canvas, np.random.default_rng(0), "tank", 5, 5, 4)
