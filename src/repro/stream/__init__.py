"""Streaming video subsystem: HiRISE over frame sequences.

The paper evaluates single exposures; deployments watch video.  This
package scales the single-frame pipelines to streams along three axes:

* :class:`StreamRunner` — drives a pipeline over any frame iterable with
  per-frame seeds, exposing ``window`` frames per pass, with optional ROI
  reuse;
* :class:`TemporalROIReuse` / :class:`KeyframeReuse` — reuse policies
  that skip the pooled readout *and* the stage-1 detector on temporally
  stable frames (IoU-gated) or between keyframes (fixed cadence);
* :class:`StreamOutcome` / :class:`FrameStats` — the cumulative ledger:
  transfer, energy, conversions, memory, and throughput across the stream;
* :mod:`repro.stream.source` — synthetic pedestrian/drone clips with ground
  truth, the moving counterparts of the paper's workloads.
"""

from .ledger import FrameStats, StreamOutcome
from .reuse import KeyframeReuse, ReuseDecision, TemporalROIReuse, rois_stable
from .runner import StreamRunner
from .source import (
    Actor,
    SyntheticClip,
    drone_traffic_clip,
    ground_truth_detector,
    pedestrian_clip,
)

__all__ = [
    "Actor",
    "FrameStats",
    "KeyframeReuse",
    "ReuseDecision",
    "StreamOutcome",
    "StreamRunner",
    "SyntheticClip",
    "TemporalROIReuse",
    "drone_traffic_clip",
    "ground_truth_detector",
    "pedestrian_clip",
    "rois_stable",
]
