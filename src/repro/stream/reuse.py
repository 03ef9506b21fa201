"""Reuse policies: skipping stage 1 on frames whose ROIs can be predicted.

On a reused frame the sensor never converts the pooled frame and the
processor never runs the stage-1 detector, so the frame costs only the
descriptor feedback plus the ROI pixels — a saving the paper only hints at.
Two policies decide which frames qualify, on one ``propose``/``observe``/
``reset`` protocol driven by :class:`repro.stream.StreamRunner`:

* :class:`KeyframeReuse` — a fixed cadence: stage 1 every ``interval``
  frames, tracked windows in between;
* :class:`TemporalROIReuse` — adaptive: stage 1 is skipped only while the
  scene has proven itself temporally stable (the last two stage-1 results
  matched box-for-box above an IoU gate), and re-run the moment stability
  is lost or a reuse budget is exhausted.  The risk is bounded by three
  knobs: the stability gate (``stability_iou``), the consecutive-reuse
  budget (``max_reuse``), and the tracker's own health check
  (``min_tracks``).

The box bookkeeping (matching, velocities, window inflation) is delegated
to :class:`repro.core.tracking.ROITracker`; the policies add only *when*
its predictions may replace a stage-1 run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.roi import ROI
from ..core.tracking import ROITracker


@dataclass(frozen=True)
class ReuseDecision:
    """The policy's verdict for one upcoming frame.

    Attributes:
        reuse: when True, process the frame with ``rois`` and no stage 1.
        reason: why — "stable" or "tracked" on reuse; "warmup",
            "unstable", "revalidate", "keyframe", "lost-tracks" or
            "no-tracks" when stage 1 must run.
        rois: predicted readout windows (non-empty only when ``reuse``).
    """

    reuse: bool
    reason: str
    rois: list[ROI] = field(default_factory=list)


def rois_stable(
    previous: Sequence[ROI], current: Sequence[ROI], iou_threshold: float
) -> bool:
    """True when two consecutive ROI sets describe the same scene.

    Stability means the same number of boxes and a one-to-one greedy
    matching in which every current box overlaps a distinct previous box
    above ``iou_threshold``.  Appearing, disappearing, or fast-moving
    objects all break the condition.
    """
    if len(previous) != len(current) or not current:
        return False
    unmatched = list(previous)
    for roi in current:
        best_i, best_iou = -1, iou_threshold
        for i, prev in enumerate(unmatched):
            iou = roi.iou(prev)
            if iou >= best_iou:
                best_i, best_iou = i, iou
        if best_i < 0:
            return False
        unmatched.pop(best_i)
    return True


@dataclass
class TemporalROIReuse:
    """IoU-gated policy deciding, per frame, whether stage 1 may be skipped.

    Protocol (driven by :class:`repro.stream.StreamRunner`): call
    :meth:`propose` before each frame; if it grants reuse, read only its
    predicted windows; otherwise run the full pipeline and feed the fresh
    stage-1 ROIs back through :meth:`observe`.  A granted proposal *must* be
    used — it advances the tracker's motion state by one frame.

    Attributes:
        tracker: box matcher/predictor shared with :class:`KeyframeReuse`.
            The default inflates predicted windows by only 3% per side per
            frame — far less than the keyframe policy's 8% — because this
            policy only ever reuses ROIs it has just proven stable and
            revalidates within ``max_reuse`` frames, so the prediction
            horizon (and therefore the needed safety margin) is short.
        stability_iou: IoU gate two consecutive stage-1 results must clear,
            box for box, before any reuse is allowed.
        min_score: minimum stage-1 confidence; any weaker box in the latest
            result blocks reuse (low-confidence scenes re-detect every frame).
        max_reuse: consecutive reused frames before a forced revalidation.
        warmup: stage-1 results required before the first reuse (two are
            the minimum for both the stability test and velocity estimates).
        min_tracks: below this many fresh tracks, fall back to stage 1.
    """

    tracker: ROITracker = field(
        default_factory=lambda: ROITracker(inflate_per_frame=0.03)
    )
    stability_iou: float = 0.5
    min_score: float = 0.0
    max_reuse: int = 3
    warmup: int = 2
    min_tracks: int = 1
    _confirmations: int = field(default=0, init=False, repr=False)
    _streak: int = field(default=0, init=False, repr=False)
    _stable: bool = field(default=False, init=False, repr=False)
    _last_rois: list[ROI] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_reuse < 1:
            raise ValueError("max_reuse must be >= 1")
        if self.warmup < 2:
            raise ValueError("warmup must be >= 2 (stability needs two results)")

    def reset(self) -> None:
        """Forget everything (stream boundary): tracks, stability, warmup.

        :meth:`StreamRunner.run` calls this at the start of every run, so
        one runner can process independent clips without the previous
        clip's tracks granting reuse on scenes never detected.
        """
        self.tracker.reset()
        self._confirmations = 0
        self._streak = 0
        self._stable = False
        self._last_rois = []

    def observe(self, rois: Sequence[ROI]) -> None:
        """Record a fresh stage-1 result and update the stability verdict."""
        rois = list(rois)
        confident = all((r.score is None or r.score >= self.min_score) for r in rois)
        self._stable = confident and rois_stable(
            self._last_rois, rois, self.stability_iou
        )
        self._last_rois = rois
        self._confirmations += 1
        self._streak = 0
        self.tracker.confirm(rois)

    def propose(self) -> ReuseDecision:
        """Decide the upcoming frame; advances the tracker when reusing."""
        if self._confirmations < self.warmup:
            return ReuseDecision(False, "warmup")
        if not self._stable:
            return ReuseDecision(False, "unstable")
        if self._streak >= self.max_reuse:
            return ReuseDecision(False, "revalidate")
        if not self.tracker.healthy(self.min_tracks):
            return ReuseDecision(False, "lost-tracks")
        # Only tracks confirmed at the last stage-1 run drive reuse: a
        # track whose object vanished lingers in the tracker (age-based
        # retention) but reading its window would waste stage-2 pixels and
        # polluting the stability reference with it would flag the next
        # revalidation "unstable" even when the detections never changed.
        # Before predict(), fresh tracks have aged exactly once per frame
        # of the current streak.  Reject *before* predicting so a declined
        # proposal leaves the tracker untouched.
        if not any(t.age == self._streak for t in self.tracker.tracks):
            return ReuseDecision(False, "no-tracks")
        predicted = self.tracker.predict()
        fresh_age = self._streak + 1
        rois = [
            roi
            for roi, track in zip(predicted, self.tracker.tracks)
            if track.age == fresh_age
        ]
        self._streak += 1
        # Keep the stability reference moving with the fresh tracks (their
        # un-inflated boxes), so the revalidating stage-1 run after a reuse
        # streak is compared against where the objects should be *now*, not
        # where they were before the streak.
        self._last_rois = [
            t.roi for t in self.tracker.tracks if t.age == fresh_age
        ]
        return ReuseDecision(True, "stable", rois)


@dataclass
class KeyframeReuse:
    """Fixed-cadence policy: stage 1 every ``interval`` frames.

    The first ``warmup`` frames run stage 1; after that a keyframe runs
    ``interval`` frames after the previous one, and the frames in between
    read only the tracker's predicted windows — unless fewer than
    ``min_tracks`` fresh tracks remain, which forces an early keyframe.
    Same protocol as :class:`TemporalROIReuse`.

    Attributes:
        interval: run stage 1 every N frames (1 = every frame).
        tracker: the ROI tracker used between keyframes.
        min_tracks: force an early keyframe when fewer fresh tracks remain.
        warmup: consecutive keyframes at clip start (>= 1: the first frame
            has nothing to track; two are needed before any velocity can be
            estimated).
    """

    interval: int = 4
    tracker: ROITracker = field(default_factory=ROITracker)
    min_tracks: int = 1
    warmup: int = 2
    _confirmations: int = field(default=0, init=False, repr=False)
    _since_key: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        if self.warmup < 1:
            raise ValueError("warmup must be >= 1 (the first frame has nothing to track)")

    def reset(self) -> None:
        """Forget everything (stream boundary): tracks, cadence, warmup."""
        self.tracker.reset()
        self._confirmations = 0
        self._since_key = 0

    def observe(self, rois: Sequence[ROI]) -> None:
        """Record a keyframe's stage-1 result."""
        self.tracker.confirm(rois)
        self._confirmations += 1
        self._since_key = 1

    def propose(self) -> ReuseDecision:
        """Decide the upcoming frame; advances the tracker when reusing."""
        if self._confirmations < self.warmup:
            return ReuseDecision(False, "warmup")
        if self._since_key >= self.interval:
            return ReuseDecision(False, "keyframe")
        if not self.tracker.healthy(self.min_tracks):
            return ReuseDecision(False, "lost-tracks")
        self._since_key += 1
        return ReuseDecision(True, "tracked", self.tracker.predict())
