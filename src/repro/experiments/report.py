"""Paper-style reporting over sweep results: JSON + markdown artifacts.

Each report builder turns a :class:`~repro.experiments.SweepResult` into a
:class:`SweepReport` — a deterministic plain-data ``payload`` (what the
``.json`` artifact holds), a ``markdown`` rendering built on
:class:`repro.bench.Table` / :func:`repro.bench.ascii_bar_chart`, and a
list of :class:`TrendCheck`\\ s asserting the paper's qualitative claims:

* ``fig7_transfer`` — median data transfer monotone *decreasing* in the
  pooling factor k, reductions vs the conventional baseline monotone
  *increasing* (paper Fig. 7: ~1.9x/3.0x/3.5x for k = 2/4/8);
* ``fig8_energy`` — median sensor energy and ADC conversions monotone
  decreasing in k, grayscale stage 1 cheaper than RGB when swept
  (Fig. 8 / Table 3);
* ``fig6_memory`` — median peak image memory monotone decreasing in k,
  baseline peak >= every HiRISE cell (Fig. 6);
* ``table2_accuracy`` — stage-2 predicted labels identical across the
  ``compute_dtype`` axis, per clip (Table 2: accuracy parity).

Trend checks are *reported*, not silently asserted: the payload carries
every check's pass/fail + detail, :func:`assert_trends` raises for tests
and benchmarks, and ``repro sweep`` exits non-zero when one fails.

Everything in the payload and the markdown is a deterministic function of
the sweep spec — wall-clock, cache stats, and profiles never enter the
artifacts — so regenerated reports are byte-identical across machines,
executors, and cache states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from ..bench.figures import ascii_bar_chart
from ..bench.tables import Table
from ..codec import serializable
from .runner import CellRecord, SweepResult
from .sweep import REPORT_KEYS

#: Axis paths the paper builders key on.
POOL_K_PATH = "system.config.pool_k"
GRAYSCALE_PATH = "system.config.grayscale_stage1"
DTYPE_PATH = "system.compute_dtype"


@serializable("trend")
@dataclass(frozen=True)
class TrendCheck:
    """One qualitative paper claim, verified against the sweep.

    Attributes:
        name: stable identifier (``"transfer_monotone_in_k"``).
        passed: whether the sweep satisfied the claim.
        detail: the evidence, human-readable ("430.1 > 187.3 > 121.9 kB").
    """

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SweepReport:
    """A finished report: deterministic payload + markdown + trend checks."""

    name: str
    title: str
    payload: dict
    markdown: str
    trends: tuple[TrendCheck, ...] = ()

    @property
    def failed_trends(self) -> tuple[TrendCheck, ...]:
        return tuple(t for t in self.trends if not t.passed)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.payload, indent=indent)


def assert_trends(report: SweepReport) -> None:
    """Raise ``AssertionError`` listing every failed trend check."""
    failed = report.failed_trends
    if failed:
        lines = "\n".join(f"  {t.name}: {t.detail}" for t in failed)
        raise AssertionError(
            f"report {report.name!r}: {len(failed)} trend check(s) failed:\n{lines}"
        )


def write_report(report: SweepReport, out_dir: str | Path) -> tuple[Path, Path]:
    """Write ``<name>.json`` + ``<name>.md`` under ``out_dir``; return paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{report.name}.json"
    md_path = out / f"{report.name}.md"
    json_path.write_text(report.to_json() + "\n")
    md_path.write_text(report.markdown + "\n")
    return json_path, md_path


# -- shared helpers ----------------------------------------------------------------


def _coords_excluding(record: CellRecord, *paths: str) -> tuple:
    """The cell's grid coordinates with ``paths`` (and replicate) removed.

    Canonicalized to JSON text so list-valued coordinates (resolutions)
    group reliably.
    """
    return tuple(
        (path, json.dumps(value, sort_keys=True))
        for path, value in record.cell.overrides
        if path not in paths
    )


def _group_median(records, path: str, metric: str) -> dict:
    """``coordinate value -> median(metric)`` over all matching records."""
    buckets: dict = {}
    for record in records:
        key = record.cell.coordinate(path)
        buckets.setdefault(key, []).append(record.metrics[metric])
    return {key: median(values) for key, values in buckets.items()}


def _median_reduction(records, path: str, metric: str) -> dict:
    buckets: dict = {}
    for record in records:
        if record.baseline is None or not record.metrics[metric]:
            continue
        key = record.cell.coordinate(path)
        buckets.setdefault(key, []).append(
            record.baseline[metric] / record.metrics[metric]
        )
    return {key: median(values) for key, values in buckets.items()}


def _monotone(series: dict, decreasing: bool, unit: str, scale: float = 1.0) -> tuple[bool, str]:
    """Strict-monotonicity check over a ``coordinate -> value`` series.

    A single-point series compares nothing, so it fails — a trend that
    was never tested must never read as verified.
    """
    keys = sorted(series)
    values = [series[k] for k in keys]
    if len(values) < 2:
        return False, (
            f"only one swept value (k={keys[0] if keys else '?'}) — "
            "nothing to compare"
        )
    ok = all(
        (a > b if decreasing else a < b) for a, b in zip(values, values[1:])
    )
    arrow = " > " if decreasing else " < "
    detail = arrow.join(f"{v * scale:.4g}" for v in values)
    keys_text = ", ".join(str(k) for k in keys)
    return ok, f"k={keys_text}: {detail} {unit}".rstrip()


def _require_axis(result: SweepResult, path: str, report: str) -> None:
    if not any(axis.path == path for axis in result.spec.axes):
        raise ValueError(
            f"report {report!r} needs an axis over {path!r}; "
            f"sweep {result.spec.name!r} sweeps "
            f"{[axis.path for axis in result.spec.axes]}"
        )


def _records_table(result: SweepResult) -> Table:
    """The tidy per-cell table every report embeds."""
    has_baseline = any(r.baseline is not None for r in result.records)
    columns = [
        "cell", "frames", "stage-1", "reused", "transfer kB",
        "energy uJ", "conversions", "peak mem kB",
    ]
    if has_baseline:
        columns += ["transfer red.", "energy red.", "memory red."]
    table = Table(
        f"sweep {result.spec.name}: per-cell records",
        columns,
        aligns=["l"] + ["r"] * (len(columns) - 1),
    )
    for record in result.records:
        m = record.metrics
        row = [
            record.cell.label,
            m["n_frames"],
            m["stage1_frames"],
            m["reused_frames"],
            f"{m['total_bytes'] / 1024:.1f}",
            f"{m['total_energy_j'] * 1e6:.2f}",
            f"{m['total_conversions']:,}",
            f"{m['peak_image_memory_bytes'] / 1024:.1f}",
        ]
        if has_baseline:
            reductions = record.reductions
            row += [
                f"{reductions.get('transfer_reduction', 0):.2f}x",
                f"{reductions.get('energy_reduction', 0):.2f}x",
                f"{reductions.get('memory_reduction', 0):.2f}x",
            ]
        table.add_row(*row)
    return table


def _markdown(
    title: str,
    result: SweepResult,
    sections: list[tuple[str, str]],
    trends: tuple[TrendCheck, ...],
) -> str:
    """Assemble the report markdown: title, sections, trends, records."""
    spec = result.spec
    lines = [
        f"# {title}",
        "",
        f"Sweep `{spec.name}` — {spec.grid_size} cell(s): "
        + "; ".join(
            f"`{axis.path}` over {list(axis.values)}" for axis in spec.axes
        )
        + (f"; {spec.replicates} replicate(s)." if spec.replicates > 1 else "."),
        "",
        "Generated by `repro sweep`.  The full sweep spec is embedded in "
        "the JSON artifact next to this file; every number below is an "
        "exact, machine-independent function of that spec.",
        "",
    ]
    for heading, body in sections:
        lines += [f"## {heading}", "", body, ""]
    if trends:
        lines += ["## Trend checks", ""]
        for trend in trends:
            mark = "x" if trend.passed else " "
            lines.append(f"- [{mark}] `{trend.name}` — {trend.detail}")
        lines.append("")
    lines += ["## Per-cell records", "", _records_table(result).to_markdown()]
    return "\n".join(lines)


def _payload(
    result: SweepResult,
    title: str,
    aggregates: dict,
    trends: tuple[TrendCheck, ...],
) -> dict:
    return {
        "name": result.spec.name,
        "title": title,
        "report": result.spec.report,
        "sweep": result.spec.to_dict(),
        "aggregates": aggregates,
        "trends": [t.to_dict() for t in trends],
        "records": [r.to_dict() for r in result.records],
    }


# -- builders ----------------------------------------------------------------------


def _build_generic(result: SweepResult) -> SweepReport:
    title = f"Sweep report: {result.spec.name}"
    markdown = _markdown(title, result, [], ())
    return SweepReport(
        name=result.spec.name,
        title=title,
        payload=_payload(result, title, {}, ()),
        markdown=markdown,
    )


def _k_table(series: dict, reductions: dict, value_label: str, scale: float) -> Table:
    columns = ["pool k", value_label] + (["reduction"] if reductions else [])
    table = Table("per-k medians", columns, aligns=["r"] * len(columns))
    for k in sorted(series):
        row = [k, f"{series[k] * scale:.4g}"]
        if reductions:
            row.append(f"{reductions.get(k, 0):.2f}x")
        table.add_row(*row)
    return table


def _k_chart(series: dict, unit: str, scale: float, title: str) -> str:
    values = {f"k={k}": series[k] * scale for k in sorted(series)}
    return "```\n" + ascii_bar_chart(values, unit=f" {unit}", title=title) + "\n```"


def _build_fig7_transfer(result: SweepResult) -> SweepReport:
    _require_axis(result, POOL_K_PATH, "fig7_transfer")
    records = result.records
    transfer = _group_median(records, POOL_K_PATH, "total_bytes")
    reductions = _median_reduction(records, POOL_K_PATH, "total_bytes")

    trends = []
    ok, detail = _monotone(transfer, decreasing=True, unit="kB", scale=1 / 1024)
    trends.append(TrendCheck("transfer_monotone_in_k", ok, detail))
    if reductions:
        ok, detail = _monotone(reductions, decreasing=False, unit="x")
        trends.append(TrendCheck("reduction_monotone_in_k", ok, detail))
        beats = min(reductions.values())
        trends.append(
            TrendCheck(
                "hirise_beats_baseline",
                beats > 1.0,
                f"minimum median transfer reduction {beats:.2f}x",
            )
        )
    trends = tuple(trends)

    title = "Fig. 7 (sweep): median data transfer vs pooling factor"
    aggregates = {
        "median_transfer_bytes_by_k": {str(k): transfer[k] for k in sorted(transfer)},
        "median_transfer_reduction_by_k": {
            str(k): reductions[k] for k in sorted(reductions)
        },
    }
    sections = [
        (
            "Median transfer by pooling factor",
            _k_table(transfer, reductions, "transfer kB", 1 / 1024).to_markdown(),
        ),
        (
            "Shape",
            _k_chart(transfer, "kB", 1 / 1024, "median data transfer"),
        ),
    ]
    return SweepReport(
        name=result.spec.name,
        title=title,
        payload=_payload(result, title, aggregates, trends),
        markdown=_markdown(title, result, sections, trends),
        trends=trends,
    )


def _build_fig8_energy(result: SweepResult) -> SweepReport:
    _require_axis(result, POOL_K_PATH, "fig8_energy")
    records = result.records
    energy = _group_median(records, POOL_K_PATH, "total_energy_j")
    conversions = _group_median(records, POOL_K_PATH, "total_conversions")
    reductions = _median_reduction(records, POOL_K_PATH, "total_energy_j")

    trends = []
    ok, detail = _monotone(energy, decreasing=True, unit="uJ", scale=1e6)
    trends.append(TrendCheck("energy_monotone_in_k", ok, detail))
    ok, detail = _monotone(conversions, decreasing=True, unit="conversions")
    trends.append(TrendCheck("conversions_monotone_in_k", ok, detail))
    if reductions:
        ok, detail = _monotone(reductions, decreasing=False, unit="x")
        trends.append(TrendCheck("reduction_monotone_in_k", ok, detail))

    has_gray = any(axis.path == GRAYSCALE_PATH for axis in result.spec.axes)
    if has_gray:
        per_mode: dict[bool, dict] = {}
        for record in records:
            gray = bool(record.cell.coordinate(GRAYSCALE_PATH))
            k = record.cell.coordinate(POOL_K_PATH)
            per_mode.setdefault(gray, {}).setdefault(k, []).append(
                record.metrics["total_energy_j"]
            )
        shared_ks = sorted(
            set(per_mode.get(True, {})) & set(per_mode.get(False, {}))
        )
        # No (gray, rgb) pair at a common k means nothing was compared —
        # that must read as a failed check, never a vacuous pass.
        gray_cheaper = bool(shared_ks) and all(
            median(per_mode[True][k]) < median(per_mode[False][k])
            for k in shared_ks
        )
        pairs = ", ".join(
            f"k={k}: {median(per_mode[True][k]) * 1e6:.3g} < "
            f"{median(per_mode[False][k]) * 1e6:.3g} uJ"
            for k in shared_ks
        ) or "no grayscale/RGB pair at a common pooling factor"
        trends.append(TrendCheck("grayscale_cheaper_than_rgb", gray_cheaper, pairs))
    trends = tuple(trends)

    title = "Fig. 8 (sweep): median sensor energy vs pooling factor"
    aggregates = {
        "median_energy_j_by_k": {str(k): energy[k] for k in sorted(energy)},
        "median_conversions_by_k": {
            str(k): conversions[k] for k in sorted(conversions)
        },
        "median_energy_reduction_by_k": {
            str(k): reductions[k] for k in sorted(reductions)
        },
    }
    sections = [
        (
            "Median sensor energy by pooling factor",
            _k_table(energy, reductions, "energy uJ", 1e6).to_markdown(),
        ),
        ("Shape", _k_chart(energy, "uJ", 1e6, "median sensor energy")),
    ]
    return SweepReport(
        name=result.spec.name,
        title=title,
        payload=_payload(result, title, aggregates, trends),
        markdown=_markdown(title, result, sections, trends),
        trends=trends,
    )


def _build_fig6_memory(result: SweepResult) -> SweepReport:
    _require_axis(result, POOL_K_PATH, "fig6_memory")
    records = result.records
    memory = _group_median(records, POOL_K_PATH, "peak_image_memory_bytes")
    reductions = _median_reduction(records, POOL_K_PATH, "peak_image_memory_bytes")

    trends = []
    ok, detail = _monotone(memory, decreasing=True, unit="kB", scale=1 / 1024)
    trends.append(TrendCheck("memory_monotone_in_k", ok, detail))
    if reductions:
        ok, detail = _monotone(reductions, decreasing=False, unit="x")
        trends.append(TrendCheck("reduction_monotone_in_k", ok, detail))
        with_baseline = [r for r in records if r.baseline is not None]
        dominated = all(
            r.baseline["peak_image_memory_bytes"] >= r.metrics["peak_image_memory_bytes"]
            for r in with_baseline
        )
        trends.append(
            TrendCheck(
                "baseline_dominates_every_cell",
                dominated,
                f"baseline peak >= HiRISE peak in {len(with_baseline)} cell(s)",
            )
        )
    trends = tuple(trends)

    title = "Fig. 6 (sweep): peak image memory vs pooling factor"
    aggregates = {
        "median_peak_memory_bytes_by_k": {
            str(k): memory[k] for k in sorted(memory)
        },
        "median_memory_reduction_by_k": {
            str(k): reductions[k] for k in sorted(reductions)
        },
    }
    sections = [
        (
            "Median peak image memory by pooling factor",
            _k_table(memory, reductions, "peak mem kB", 1 / 1024).to_markdown(),
        ),
        ("Shape", _k_chart(memory, "kB", 1 / 1024, "median peak image memory")),
    ]
    return SweepReport(
        name=result.spec.name,
        title=title,
        payload=_payload(result, title, aggregates, trends),
        markdown=_markdown(title, result, sections, trends),
        trends=trends,
    )


def _build_table2_accuracy(result: SweepResult) -> SweepReport:
    _require_axis(result, DTYPE_PATH, "table2_accuracy")
    dtype_axis = next(a for a in result.spec.axes if a.path == DTYPE_PATH)
    if "float64" not in dtype_axis.values:
        raise ValueError(
            "report 'table2_accuracy' compares predictions against the "
            f"float64 reference: the {DTYPE_PATH!r} axis must include "
            f"'float64', got {list(dtype_axis.values)}"
        )
    records = result.records
    if any(record.labels is None for record in records):
        raise ValueError(
            "report 'table2_accuracy' needs stage-2 predictions: set "
            '"keep_outcomes": true on the sweep scenario and use a real '
            "classifier component"
        )

    # Group cells that differ only in compute_dtype (same other coords,
    # same replicate => same clip, same ROIs) and compare label streams
    # against the float64 reference.
    groups: dict[tuple, dict[str, CellRecord]] = {}
    for record in records:
        key = (_coords_excluding(record, DTYPE_PATH), record.cell.replicate)
        groups.setdefault(key, {})[str(record.cell.coordinate(DTYPE_PATH))] = record

    comparisons = []
    total = matched = 0
    for (coords, replicate), by_dtype in sorted(
        groups.items(), key=lambda item: str(item[0])
    ):
        reference = by_dtype.get("float64")
        if reference is None:
            continue
        for dtype, record in sorted(by_dtype.items()):
            if dtype == "float64":
                continue
            # A length mismatch is a parity failure in itself (a crop was
            # classified under one dtype but not the other): the whole
            # cell counts as disagreement, in the row and the verdict.
            if len(reference.labels) == len(record.labels):
                agree = sum(
                    a == b for a, b in zip(reference.labels, record.labels)
                )
            else:
                agree = 0
            count = max(len(reference.labels), len(record.labels))
            total += count
            matched += agree
            comparisons.append(
                {
                    "cell": record.cell.label,
                    "dtype": dtype,
                    "predictions": count,
                    # null, not 100%: zero compared predictions is absence
                    # of evidence, never agreement
                    "agreement": (agree / count) if count else None,
                }
            )

    parity = (matched == total) and total > 0
    trends = (
        TrendCheck(
            "dtype_argmax_parity",
            parity,
            f"{matched}/{total} stage-2 predictions identical across "
            f"compute_dtype cells",
        ),
        TrendCheck(
            "predictions_nonempty",
            total > 0,
            f"{total} prediction pair(s) compared",
        ),
    )

    table = Table(
        "dtype parity", ["cell", "dtype", "predictions", "agreement"],
        aligns=["l", "l", "r", "r"],
    )
    for row in comparisons:
        table.add_row(
            row["cell"], row["dtype"], row["predictions"],
            "n/a" if row["agreement"] is None
            else f"{row['agreement'] * 100:.1f}%",
        )

    title = "Table 2 (sweep): stage-2 prediction parity across compute dtypes"
    aggregates = {
        "compared_predictions": total,
        "matching_predictions": matched,
        "comparisons": comparisons,
    }
    sections = [("Prediction agreement vs float64", table.to_markdown())]
    return SweepReport(
        name=result.spec.name,
        title=title,
        payload=_payload(result, title, aggregates, trends),
        markdown=_markdown(title, result, sections, trends),
        trends=trends,
    )


#: report key -> builder; keys mirror ``repro.experiments.REPORT_KEYS``.
PAPER_REPORTS = {
    "fig6_memory": _build_fig6_memory,
    "fig7_transfer": _build_fig7_transfer,
    "fig8_energy": _build_fig8_energy,
    "table2_accuracy": _build_table2_accuracy,
}

assert set(PAPER_REPORTS) == set(REPORT_KEYS)


def build_report(result: SweepResult) -> SweepReport:
    """Build the report the sweep spec declared (generic when unset)."""
    builder = PAPER_REPORTS.get(result.spec.report, _build_generic)
    return builder(result)
