"""Tests for table/figure rendering and the experiment registry."""

import pytest

from repro.bench import (
    EXPERIMENTS,
    Table,
    ascii_bar_chart,
    ascii_line_chart,
    series_csv,
)


class TestTable:
    def test_render_contains_cells(self):
        t = Table("demo", ["name", "value"])
        t.add_row("alpha", 1.5)
        t.add_row("beta", 2)
        text = t.render()
        assert "alpha" in text
        assert "1.5" in text
        assert "demo" in text

    def test_row_width_validation(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_alignment(self):
        t = Table("demo", ["name", "v"], aligns=["l", "r"])
        t.add_row("x", 1)
        line = t.render().splitlines()[-2]
        assert line.startswith("x")


class TestCharts:
    def test_bar_chart_scales(self):
        chart = ascii_bar_chart({"a": 1.0, "b": 2.0}, width=10)
        lines = chart.splitlines()
        assert lines[1].count("#") == 10  # b is the max
        assert lines[0].count("#") == 5

    def test_bar_chart_empty(self):
        assert ascii_bar_chart({}, title="t") == "t"

    def test_line_chart_structure(self):
        chart = ascii_line_chart(
            {"x2": [1, 4, 9, 16]}, x_labels=["1", "2", "3", "4"], height=5, width=20
        )
        assert "x2" in chart
        assert "+" in chart

    def test_line_chart_logy(self):
        chart = ascii_line_chart({"e": [1, 10, 100]}, height=4, width=10, logy=True)
        assert "100" in chart

    def test_line_chart_logy_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ascii_line_chart({"e": [0, 1]}, logy=True)

    def test_line_chart_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_line_chart({"a": [1, 2], "b": [1, 2, 3]})

    def test_series_csv(self):
        csv = series_csv({"a": [1.0, 2.0]}, ["x0", "x1"])
        assert csv.splitlines()[0] == "x,a"
        assert csv.splitlines()[1] == "x0,1"


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(EXPERIMENTS) == {
            "table1", "table2", "table3", "fig5", "fig6", "fig7", "fig8",
            "stream", "service", "hotpath", "sweep", "serving", "store",
            "resilience",
        }

    def test_benches_exist_on_disk(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        for exp in EXPERIMENTS.values():
            assert (root / exp.bench).exists(), f"missing {exp.bench}"
