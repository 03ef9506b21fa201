"""Benchmark-harness helpers: tables, ASCII figures, experiment registry."""

from .figures import ascii_bar_chart, ascii_line_chart, series_csv
from .registry import EXPERIMENTS, Experiment
from .tables import Table

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "Table",
    "ascii_bar_chart",
    "ascii_line_chart",
    "series_csv",
]
