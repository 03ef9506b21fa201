"""Time-domain stimulus waveforms for the analog simulator.

These mirror the standard SPICE source functions (``DC``, ``PWL``, ``PULSE``)
that the paper's HSPICE test benches use to drive the in-sensor compression
circuit (Fig. 5).  A waveform is simply a callable mapping time in seconds
to a voltage; the classes below are small, picklable, and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class DC:
    """Constant source: ``value`` at every time point."""

    value: float

    def __call__(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class PWL:
    """Piece-wise-linear source defined by ``(time, value)`` breakpoints.

    Before the first breakpoint the first value is held; after the last
    breakpoint the last value is held.  Breakpoints must be sorted by time.
    """

    points: tuple[tuple[float, float], ...]

    def __init__(self, points: Sequence[tuple[float, float]]):
        if len(points) < 1:
            raise ValueError("PWL needs at least one (time, value) point")
        times = [p[0] for p in points]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("PWL breakpoints must be sorted by time")
        object.__setattr__(self, "points", tuple((float(t), float(v)) for t, v in points))

    def __call__(self, t: float) -> float:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            if t <= t1:
                if t1 == t0:
                    return v1
                frac = (t - t0) / (t1 - t0)
                return v0 + frac * (v1 - v0)
        return pts[-1][1]


@dataclass(frozen=True)
class Pulse:
    """SPICE-style periodic pulse.

    Parameters follow ``PULSE(v1 v2 delay rise fall width period)``:
    the source sits at ``v1``, ramps to ``v2`` over ``rise`` seconds after
    ``delay``, holds for ``width``, ramps back over ``fall``, and repeats
    every ``period`` seconds.
    """

    v1: float
    v2: float
    delay: float = 0.0
    rise: float = 1e-9
    fall: float = 1e-9
    width: float = 1e-6
    period: float = 2e-6

    def __call__(self, t: float) -> float:
        if t < self.delay:
            return self.v1
        tau = (t - self.delay) % self.period
        if tau < self.rise:
            return self.v1 + (self.v2 - self.v1) * tau / self.rise
        tau -= self.rise
        if tau < self.width:
            return self.v2
        tau -= self.width
        if tau < self.fall:
            return self.v2 + (self.v1 - self.v2) * tau / self.fall
        return self.v1


def as_waveform(value) -> "DC | PWL | Pulse":
    """Coerce a plain number into a :class:`DC` waveform.

    Callables are returned unchanged so users may pass any ``f(t)``.
    """
    if callable(value):
        return value
    return DC(float(value))
