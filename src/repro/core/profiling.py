"""Phase-level wall-clock profiling for the serving hot path.

The perf trajectory the ROADMAP asks for needs *observability* before
optimization claims mean anything: where does one request actually spend
its time?  :class:`PhaseProfiler` is a tiny nested phase timer the
pipelines thread through their phase methods:

* a **phase** is a named ``with profiler.phase("detect"):`` span;
* phases **nest** — opening a phase inside another records the inner span
  under the dotted path of the stack (``"stage2" -> "stage2.classify"``);
  dotted names are also accepted directly (``"stage1.read"``) when the
  parent span has no useful time of its own;
* repeated spans **accumulate** (calls + total seconds per path), so one
  profiler carries a whole stream's per-frame phases.

:meth:`PhaseProfiler.snapshot` freezes the counters into a
:class:`PhaseProfile` — plain data (picklable, JSON-ready via
:meth:`PhaseProfile.to_dict`) that rides on
:class:`~repro.service.RunResult` and merges across a batch.  The
canonical taxonomy (see ``docs/architecture.md``): the engine's
``source`` (clip render, recorded only when the clip tier misses), then
the pipelines' ``expose`` (scene -> pixel array), ``stage1.read``
(pool + ADC), ``detect``, ``condition``, ``stage2.read``,
``stage2.classify``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable

from ..codec import serializable


@serializable("phase")
@dataclass(frozen=True)
class PhaseStats:
    """Accumulated wall-clock for one phase path.

    Attributes:
        path: dotted phase path (``"stage2.classify"``).
        calls: how many spans were recorded under this path.
        total_s: summed wall-clock seconds across those spans.
    """

    path: str
    calls: int
    total_s: float

    @property
    def depth(self) -> int:
        """Nesting depth (0 for a top-level phase)."""
        return self.path.count(".")


@serializable("profile", derived={"total_s": float})
@dataclass(frozen=True)
class PhaseProfile:
    """A frozen snapshot of a profiler: one row per phase path.

    Rows are in hierarchical order: parents before their children,
    siblings in first-recorded order — for the pipelines, dataflow order
    (expose -> stage1 -> detect -> ...).  The plain-data form (what
    ``BENCH_hotpath.json`` embeds) leads with the derived ``total_s``,
    which is re-checked against the rows on read to catch hand-edited
    payloads.
    """

    phases: tuple[PhaseStats, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.phases)

    def __iter__(self):
        return iter(self.phases)

    def get(self, path: str) -> PhaseStats | None:
        """The row for ``path``, or ``None`` if it never ran."""
        for stats in self.phases:
            if stats.path == path:
                return stats
        return None

    @property
    def total_s(self) -> float:
        """Summed top-level wall-clock (nested rows are already inside)."""
        return sum(p.total_s for p in self.phases if p.depth == 0)

    @classmethod
    def merge(cls, profiles: Iterable["PhaseProfile"]) -> "PhaseProfile":
        """Fold many profiles into one (calls and seconds add per path)."""
        order: list[str] = []
        acc: dict[str, list] = {}
        for profile in profiles:
            for stats in profile.phases:
                entry = acc.get(stats.path)
                if entry is None:
                    order.append(stats.path)
                    acc[stats.path] = [stats.calls, stats.total_s]
                else:
                    entry[0] += stats.calls
                    entry[1] += stats.total_s
        return cls(
            tuple(PhaseStats(path, acc[path][0], acc[path][1]) for path in order)
        )

    def report(self) -> str:
        """Human-readable breakdown, nested rows indented under parents."""
        if not self.phases:
            return "  (no phases recorded)"
        total = self.total_s or 1.0
        width = max(len(p.path) for p in self.phases) + 4
        lines = [f"  {'phase':<{width}}{'calls':>7}{'ms':>10}{'share':>8}"]
        for stats in self.phases:
            name = "  " * stats.depth + stats.path.rsplit(".", 1)[-1]
            lines.append(
                f"  {name:<{width}}{stats.calls:>7}"
                f"{stats.total_s * 1e3:>10.2f}"
                f"{stats.total_s / total:>7.0%}"
            )
        lines.append(f"  {'total (top-level)':<{width}}{'':>7}{self.total_s * 1e3:>10.2f}")
        return "\n".join(lines)


class PhaseProfiler:
    """Accumulating nested phase timer (see module docstring).

    Not thread-safe by design: one profiler belongs to one request, which
    the engine serves on one thread.  ``clock`` is injectable for tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: list[str] = []
        self._order: list[str] = []
        self._acc: dict[str, list] = {}

    @contextmanager
    def phase(self, name: str):
        """Time a span under ``name``, nested inside any open phases."""
        if not name:
            raise ValueError("phase name must be non-empty")
        self._stack.append(name)
        path = ".".join(self._stack)
        start = self._clock()
        try:
            yield self
        finally:
            elapsed = self._clock() - start
            entry = self._acc.get(path)
            if entry is None:
                self._order.append(path)
                self._acc[path] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed
            self._stack.pop()

    def snapshot(self) -> PhaseProfile:
        """Freeze the counters recorded so far into a :class:`PhaseProfile`.

        Rows come out in hierarchical order.  Nested spans *complete*
        (and are first recorded) before their parents, so raw recording
        order would list ``stage2.read`` above ``stage2``; sorting each
        path by the first-appearance indices of its prefixes puts parents
        first while keeping siblings in dataflow order.
        """
        index = {path: i for i, path in enumerate(self._order)}

        def sort_key(path: str) -> tuple:
            parts = path.split(".")
            return tuple(
                index.get(".".join(parts[: i + 1]), index[path])
                for i in range(len(parts))
            )

        return PhaseProfile(
            tuple(
                PhaseStats(path, self._acc[path][0], self._acc[path][1])
                for path in sorted(self._order, key=sort_key)
            )
        )


def profiled(profiler: PhaseProfiler | None, name: str):
    """A phase span on ``profiler``, or a no-op when profiling is off.

    The pipelines call this on every frame; the ``None`` fast path keeps
    the unprofiled hot path free of profiler overhead.
    """
    if profiler is None:
        return nullcontext()
    return profiler.phase(name)
