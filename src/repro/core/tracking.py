"""Temporal ROI tracking: amortizing stage 1 across video frames.

The paper evaluates single exposures; the natural deployment is a video
stream, where running the stage-1 detector on *every* frame wastes the
energy HiRISE just saved.  :class:`ROITracker` is the box bookkeeping that
lets a stream skip it:

* confirm tracks against each fresh stage-1 detection set;
* on skipped frames, *predict* the ROIs from recent motion (constant-
  velocity extrapolation of matched boxes) and inflate them by a safety
  margin, so the sensor reads slightly larger windows instead of paying for
  a full stage-1 conversion;
* report its own health, so a policy can fall back to stage 1 early when
  too few recently confirmed tracks remain.

The tracker is deliberately simple — greedy IoU matching plus constant-
velocity prediction — because its role is cost amortization, not SOTA MOT.
*When* its predictions may replace stage 1 is a reuse policy's decision
(:mod:`repro.stream.reuse`: a fixed keyframe cadence or an IoU stability
gate), driven per frame by :class:`repro.stream.StreamRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .roi import ROI


@dataclass
class Track:
    """One tracked object: current box plus a velocity estimate.

    Attributes:
        roi: last confirmed/predicted box.
        vx, vy: estimated center velocity in px/frame.
        age: frames since the track was last confirmed by a detector.
        track_id: stable identifier.
        hits: number of detector confirmations received so far.
        anchor_cx, anchor_cy: box center at the last *confirmation*.  The
            velocity observation must be measured from here — ``roi`` may
            have been advanced by :meth:`ROITracker.predict` in between, and
            measuring displacement from an already-advanced box would
            under-estimate the velocity by exactly the part applied.
    """

    roi: ROI
    vx: float = 0.0
    vy: float = 0.0
    age: int = 0
    track_id: int = 0
    hits: int = 1
    anchor_cx: float = field(default=0.0, init=False, repr=False)
    anchor_cy: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.rebase_anchor()

    def rebase_anchor(self) -> None:
        """Pin the velocity-observation anchor to the current box center."""
        self.anchor_cx = self.roi.x + self.roi.w / 2.0
        self.anchor_cy = self.roi.y + self.roi.h / 2.0


@dataclass
class ROITracker:
    """Greedy-IoU multi-object tracker over ROI sets.

    Matching prefers IoU, but a moving object can fully vacate its old box
    between keyframes, so a center-distance gate (scaled by the box size
    and the frames elapsed, i.e. the plausible travel) acts as fallback —
    that is what lets the tracker *learn* velocities at keyframes.

    Attributes:
        match_iou: minimum IoU to associate a detection with a track.
        match_dist: distance-gate factor: a detection within
            ``match_dist * max(w, h) * frames_elapsed`` of the track center
            may match even with zero IoU.
        max_age: drop tracks not confirmed for this many frames.
        inflate_per_frame: safety margin added per predicted frame (each
            side grows by this fraction for every frame of age).
        velocity_smoothing: EMA factor for the velocity estimate.
    """

    match_iou: float = 0.3
    match_dist: float = 0.8
    max_age: int = 4
    inflate_per_frame: float = 0.08
    velocity_smoothing: float = 0.5
    _tracks: list[Track] = field(default_factory=list)
    _next_id: int = 0

    @property
    def tracks(self) -> tuple[Track, ...]:
        return tuple(self._tracks)

    def reset(self) -> None:
        """Drop all tracks and identifiers (e.g. at a new clip boundary)."""
        self._tracks = []
        self._next_id = 0

    def confirm(self, detections: Sequence[ROI]) -> list[Track]:
        """Update tracks with a fresh stage-1 detection set (keyframe).

        Greedy best-IoU matching; unmatched detections start new tracks,
        unmatched old tracks age out.

        Returns:
            The live track list after the update.
        """
        detections = list(detections)
        unmatched = set(range(len(detections)))
        survivors: list[Track] = []
        for track in sorted(self._tracks, key=lambda t: -(t.roi.score or 0.0)):
            best_j, best_iou = -1, self.match_iou
            for j in unmatched:
                iou = track.roi.iou(detections[j])
                if iou > best_iou:
                    best_j, best_iou = j, iou
            if best_j < 0:
                # Distance-gate fallback: closest detection within the
                # plausible travel of this track since its last confirm.
                # Plausible travel spans the frames since the last confirm
                # plus the confirming frame itself (the ``age + 1``
                # convention of the velocity estimate below).
                gate = (
                    self.match_dist
                    * max(track.roi.w, track.roi.h)
                    * (track.age + 1)
                )
                best_d = gate
                cx = track.roi.x + track.roi.w / 2.0
                cy = track.roi.y + track.roi.h / 2.0
                for j in unmatched:
                    det = detections[j]
                    d = float(
                        np.hypot(
                            det.x + det.w / 2.0 - cx, det.y + det.h / 2.0 - cy
                        )
                    )
                    if d < best_d:
                        best_j, best_d = j, d
            if best_j >= 0:
                det = detections[best_j]
                unmatched.discard(best_j)
                new_cx = det.x + det.w / 2.0
                new_cy = det.y + det.h / 2.0
                # Displacement since the last confirmation (the anchor) —
                # not since the possibly prediction-advanced current box.
                # ``age`` counts the frames *between* the two confirmations
                # (predictions and misses); the confirming frame itself is
                # one more step.
                frames = track.age + 1
                raw_vx = (new_cx - track.anchor_cx) / frames
                raw_vy = (new_cy - track.anchor_cy) / frames
                if track.hits == 1:
                    # First re-confirmation: adopt the observed velocity
                    # outright (EMA from the zero prior would halve it).
                    track.vx, track.vy = raw_vx, raw_vy
                else:
                    alpha = self.velocity_smoothing
                    track.vx = alpha * track.vx + (1 - alpha) * raw_vx
                    track.vy = alpha * track.vy + (1 - alpha) * raw_vy
                track.roi = det
                track.rebase_anchor()
                track.age = 0
                track.hits += 1
                survivors.append(track)
            else:
                track.age += 1
                if track.age <= self.max_age:
                    survivors.append(track)
        for j in sorted(unmatched):
            survivors.append(Track(roi=detections[j], track_id=self._next_id))
            self._next_id += 1
        self._tracks = survivors
        return survivors

    def predict(self) -> list[ROI]:
        """Advance every track one frame and return the readout windows."""
        rois: list[ROI] = []
        for track in self._tracks:
            track.age += 1
            track.roi = ROI(
                int(round(track.roi.x + track.vx)),
                int(round(track.roi.y + track.vy)),
                track.roi.w,
                track.roi.h,
                track.roi.score,
                track.roi.label,
            )
            rois.append(track.roi.pad(self.inflate_per_frame * track.age))
        return rois

    def healthy(self, min_tracks: int = 1) -> bool:
        """True while enough recently-confirmed tracks remain."""
        fresh = [t for t in self._tracks if t.age <= self.max_age]
        return len(fresh) >= min_tracks
