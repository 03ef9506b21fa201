"""Cumulative accounting for video runs: per-frame stats and stream totals.

A single :class:`~repro.core.PipelineOutcome` answers "what did this frame
cost"; a stream needs the same answer over thousands of frames without
keeping thousands of images alive.  :class:`FrameStats` strips one outcome
down to its numbers (a few hundred bytes per frame), and
:class:`StreamOutcome` accumulates them into the quantities a deployment
cares about: total bytes on the link, total sensor energy, peak processor
image memory, achieved frames/sec, and how many frames temporal ROI reuse
managed to run without any stage-1 work at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..codec import hook, serializable
from ..core.pipeline import PipelineOutcome


@serializable("frame_stats")
@dataclass(frozen=True)
class FrameStats:
    """One frame's costs, decoupled from its images.

    The serving protocol's per-frame payload: every field is a JSON scalar
    and Python floats round-trip exactly through JSON text, so a row that
    crosses a socket compares bit-equal to the one that was sent.

    Attributes:
        frame_index: position in the stream.
        ran_stage1: whether the pooled-frame conversion + detector ran.
        reused_rois: whether the frame's windows came from temporal reuse.
        reason: the reuse policy's decision label ("stable", "warmup",
            "unstable", "revalidate", ...) or "" outside reuse mode.
        n_rois: readout windows used for stage 2.
        stage1_bytes / roi_feedback_bytes / stage2_bytes: the paper's three
            link flows (D1 S->P, D1 P->S, D2 S->P) for this frame.
        stage1_conversions / stage2_conversions: ADC conversion counts.
        energy_j: total sensor energy for the frame.
        peak_image_memory_bytes: Eq. 2 resident-image peak for the frame.
    """

    frame_index: int
    ran_stage1: bool
    reused_rois: bool
    reason: str
    n_rois: int
    stage1_bytes: int
    roi_feedback_bytes: int
    stage2_bytes: int
    stage1_conversions: int
    stage2_conversions: int
    energy_j: float
    peak_image_memory_bytes: int

    @classmethod
    def from_outcome(
        cls,
        frame_index: int,
        outcome: PipelineOutcome,
        ran_stage1: bool,
        reused_rois: bool = False,
        reason: str = "",
    ) -> "FrameStats":
        """Condense a pipeline outcome into its per-frame ledger row."""
        ledger = outcome.ledger
        return cls(
            frame_index=frame_index,
            ran_stage1=ran_stage1,
            reused_rois=reused_rois,
            reason=reason,
            n_rois=len(outcome.rois),
            stage1_bytes=ledger.stage1_s2p,
            roi_feedback_bytes=ledger.stage1_p2s,
            stage2_bytes=ledger.stage2_s2p,
            stage1_conversions=outcome.stage1_conversions,
            stage2_conversions=outcome.stage2_conversions,
            energy_j=outcome.energy.total,
            peak_image_memory_bytes=outcome.peak_image_memory_bytes,
        )

    @property
    def total_bytes(self) -> int:
        """All three flows for this frame (paper Eq. 1, per frame)."""
        return self.stage1_bytes + self.roi_feedback_bytes + self.stage2_bytes


@serializable("stream_outcome")
@dataclass
class StreamOutcome:
    """Everything a stream run produced and cost, cumulatively.

    The serving protocol's whole-result payload; ``outcomes`` stays local.

    Attributes:
        system: "hirise" or "conventional".
        frames: per-frame ledger rows, in stream order.
        outcomes: full per-frame outcomes when the runner was asked to keep
            them (``keep_outcomes=True``); empty otherwise to bound memory.
            They hold live images and never cross the wire: encoding an
            outcome that kept them raises, so a caller never silently
            loses data.
        wall_time_s: measured wall-clock time of the run.
    """

    system: str
    frames: list[FrameStats] = field(default_factory=list)
    outcomes: list[PipelineOutcome] = field(
        default_factory=list,
        metadata=hook(
            local="full per-frame outcomes are not serializable; run "
            "without keep_outcomes to send this result over the wire"
        ),
    )
    wall_time_s: float = 0.0

    def append(
        self,
        stats: FrameStats,
        outcome: PipelineOutcome | None = None,
    ) -> None:
        self.frames.append(stats)
        if outcome is not None:
            self.outcomes.append(outcome)

    # -- aggregates -------------------------------------------------------------

    @property
    def n_frames(self) -> int:
        return len(self.frames)

    @property
    def stage1_frames(self) -> int:
        """Frames that paid for the pooled conversion + detector."""
        return sum(f.ran_stage1 for f in self.frames)

    @property
    def reused_frames(self) -> int:
        """Frames served entirely from temporal ROI reuse."""
        return sum(f.reused_rois for f in self.frames)

    @property
    def stage1_bytes(self) -> int:
        return sum(f.stage1_bytes for f in self.frames)

    @property
    def roi_feedback_bytes(self) -> int:
        return sum(f.roi_feedback_bytes for f in self.frames)

    @property
    def stage2_bytes(self) -> int:
        return sum(f.stage2_bytes for f in self.frames)

    @property
    def total_bytes(self) -> int:
        return sum(f.total_bytes for f in self.frames)

    @property
    def total_energy_j(self) -> float:
        return sum(f.energy_j for f in self.frames)

    @property
    def total_conversions(self) -> int:
        return sum(f.stage1_conversions + f.stage2_conversions for f in self.frames)

    @property
    def peak_image_memory_bytes(self) -> int:
        """Worst single-frame resident-image peak across the stream."""
        return max((f.peak_image_memory_bytes for f in self.frames), default=0)

    @property
    def frames_per_second(self) -> float:
        """Achieved simulation throughput (0 when untimed)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.n_frames / self.wall_time_s

    @property
    def mean_bytes_per_frame(self) -> float:
        return self.total_bytes / self.n_frames if self.frames else 0.0

    @property
    def mean_energy_per_frame_j(self) -> float:
        return self.total_energy_j / self.n_frames if self.frames else 0.0

    def breakdown(self) -> dict[str, int]:
        """Cumulative byte counts per flow, mirrored on the ledger API."""
        return {
            "stage1_s2p": self.stage1_bytes,
            "stage1_p2s": self.roi_feedback_bytes,
            "stage2_s2p": self.stage2_bytes,
            "total": self.total_bytes,
        }

    def report(self) -> str:
        """Human-readable stream summary."""
        lines = [
            f"[{self.system}] {self.n_frames} frames "
            f"({self.stage1_frames} stage-1, {self.reused_frames} reused)",
            f"  transfer: {self.total_bytes / 1024:.1f} kB total, "
            f"{self.mean_bytes_per_frame / 1024:.1f} kB/frame "
            f"(S->P1 {self.stage1_bytes / 1024:.1f}, "
            f"P->S {self.roi_feedback_bytes} B, "
            f"S->P2 {self.stage2_bytes / 1024:.1f})",
            f"  energy: {self.total_energy_j * 1e3:.4f} mJ total, "
            f"{self.mean_energy_per_frame_j * 1e6:.2f} uJ/frame",
            f"  ADC conversions: {self.total_conversions:,}",
            f"  peak image memory: {self.peak_image_memory_bytes / 1024:.1f} kB",
        ]
        if self.wall_time_s > 0:
            lines.append(
                f"  throughput: {self.frames_per_second:.1f} frames/s "
                f"({self.wall_time_s * 1e3:.0f} ms wall)"
            )
        return "\n".join(lines)
