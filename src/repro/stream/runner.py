"""The stream runner: HiRISE (or the baseline) over multi-frame video.

:class:`StreamRunner` turns the single-exposure pipelines into a video
engine with one loop body for every window size and both pipelines:

* **bind** — each flush of ``window`` frames (``window=1`` is a window of
  one) is bound in one call (:class:`~repro.sensor.BatchSensorReadout`),
  which checks every frame's shape and range, so a bad frame fails
  before any frame of its window is served.  A clip's frames
  (:class:`~repro.sensor.CheckedFrames`) passed the range check when
  the clip was built, so binding checks only their shapes;
* **serve** — each frame's :class:`~repro.sensor.PixelArray` then goes to
  ``pipeline.run``, or, when a reuse policy
  (:class:`~repro.stream.TemporalROIReuse`,
  :class:`~repro.stream.KeyframeReuse`) grants it, to
  ``pipeline.run_stage2_only``, which reads only the predicted ROI windows.

A frame is exposed by the read that asks for it: a stage-1 frame exposes
its whole frame into one ``(H, W, 3)`` buffer the runner reuses, frame
after frame; a reused frame exposes only its windows.  So a frame is
exposed whole, pooled and digitized only when it runs stage 1, exactly as
the sensor converts only what the processor will use.

Every run returns a :class:`~repro.stream.StreamOutcome` whose per-frame
rows and cumulative totals make policies directly comparable — the
quantities ``benchmarks/bench_stream_throughput.py`` reports.  Whatever
the window size, per-frame results are **bit-identical** to a plain
per-frame loop over the pipeline (the contract
``tests/property/test_stream_equivalence.py`` states as a property).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.pipeline import ConventionalPipeline, HiRISEPipeline
from ..core.profiling import profiled
from ..sensor import BatchSensorReadout, CheckedFrames
from .ledger import FrameStats, StreamOutcome
from .reuse import KeyframeReuse, TemporalROIReuse


_EXHAUSTED = object()


def _seeded(
    frames: Iterable[np.ndarray], frame_seeds, label: str = ""
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(index, seed, frame)``; seeds default to the frame index.

    Never materializes ``frames`` — generators stream through untouched, so
    the runner's bounded-memory contract holds with explicit seeds too.  A
    length mismatch is raised eagerly when both sizes are known, otherwise
    at the point one iterable runs dry; ``label`` (the scenario/source
    name) prefixes the error so a failing stream is identifiable in a
    batch.
    """
    where = f"stream {label!r}: " if label else ""
    if frame_seeds is None:
        for idx, frame in enumerate(frames):
            yield idx, idx, frame
        return
    if hasattr(frame_seeds, "__len__") and hasattr(frames, "__len__"):
        if len(frame_seeds) != len(frames):
            raise ValueError(
                f"{where}{len(frame_seeds)} frame seeds for {len(frames)} frames"
            )
    # Explicit dual iteration rather than zip(strict=True): the strict-zip
    # mismatch error is only distinguishable from a ValueError raised
    # *inside* the iterables by its message text, and an error from a frame
    # source must surface untouched with its own traceback.
    frame_it, seed_it = iter(frames), iter(frame_seeds)
    idx = 0
    while True:
        frame = next(frame_it, _EXHAUSTED)
        seed = next(seed_it, _EXHAUSTED)
        if frame is _EXHAUSTED and seed is _EXHAUSTED:
            return
        if frame is _EXHAUSTED or seed is _EXHAUSTED:
            raise ValueError(
                f"{where}frame seeds and frames have different lengths"
            )
        yield idx, seed, frame
        idx += 1


@dataclass
class StreamRunner:
    """Runs a pipeline over a frame sequence and keeps the books.

    Attributes:
        pipeline: a :class:`~repro.core.HiRISEPipeline` (all modes) or a
            :class:`~repro.core.ConventionalPipeline` (any window, no
            reuse).
        reuse: optional reuse policy; when set, frames the policy grants
            skip stage 1 entirely and read only its predicted windows.
        keep_outcomes: retain every full :class:`PipelineOutcome` on the
            stream outcome (costs memory; off by default so long streams
            stay ledger-sized).
        on_stats: optional callback invoked with each frame's
            :class:`~repro.stream.FrameStats` the moment it is recorded —
            the hook the serving layer uses to stream ledgers to a client
            while the run is still in flight.  Called in stream order, on
            the thread driving the run — whatever the window size.
        window: frames validated per flush (the most held at a time).
            Any window is bit-identical to ``window=1``, for either
            pipeline.
        label: scenario/source name used in error messages ("" = unnamed);
            the engine sets it to the scenario label.
    """

    pipeline: HiRISEPipeline | ConventionalPipeline
    reuse: TemporalROIReuse | KeyframeReuse | None = None
    keep_outcomes: bool = False
    on_stats: Callable[[FrameStats], None] | None = None
    window: int = 1
    label: str = ""
    #: Reusable (H, W, 3) float64 buffer each stage-1 frame exposes its
    #: whole frame into; allocated on the first flush, re-used for every
    #: later frame (and run).
    _expose_buf: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window: must be >= 1, got {self.window}")
        if isinstance(self.pipeline, ConventionalPipeline) and self.reuse is not None:
            raise ValueError(
                "reuse is a HiRISE feature; the conventional baseline ships "
                "every frame in full"
            )

    def run(
        self,
        frames: Iterable[np.ndarray],
        frame_seeds: Sequence[int] | None = None,
        on_frame: Callable[[int], None] | None = None,
    ) -> StreamOutcome:
        """Process a frame sequence end to end.

        Args:
            frames: the clip — any iterable of ``(H, W, 3)`` or ``(H, W)``
                images (a list, a generator, a dataset loader).  At most
                ``window`` frames are materialized at a time.  A clip's
                :class:`~repro.sensor.CheckedFrames` are not range-checked
                again; any other iterable is, frame by frame.
            frame_seeds: per-frame temporal-noise seeds (default: indices).
            on_frame: optional callback invoked with the frame index before
                the frame is served (stateful detectors, loggers): it
                precedes the frame's exposure, its reads and its detector
                call.  Only the binding of its window (the frames' checks)
                runs earlier.

        Returns:
            :class:`StreamOutcome` with per-frame stats and totals.
        """
        outcome = StreamOutcome(
            system="conventional"
            if isinstance(self.pipeline, ConventionalPipeline)
            else "hirise"
        )
        if self.reuse is not None:
            # Each run() is an independent stream: stale tracks from a
            # previous clip must never grant reuse on scenes that were
            # never detected.
            self.reuse.reset()
        start = time.perf_counter()
        # A clip's frames were checked when it was built: each window is
        # then bound as a slice of them, which skips the range check.
        checked = frames if isinstance(frames, CheckedFrames) else None
        chunk: list[tuple[int, int, np.ndarray]] = []
        for item in _seeded(frames, frame_seeds, self.label):
            chunk.append(item)
            if len(chunk) == self.window:
                self._flush(chunk, on_frame, outcome, checked)
        if chunk:
            self._flush(chunk, on_frame, outcome, checked)
        outcome.wall_time_s = time.perf_counter() - start
        return outcome

    def _exposure_buffer(self, chunk) -> np.ndarray:
        """The ``(H, W, 3)`` float64 buffer the window's frames expose into.

        One buffer lives for the runner's lifetime and each frame's
        whole-frame exposure overwrites the last one's, which in-order
        serving allows.  A resolution change mid-stream simply
        reallocates.  A frame that is not an image gets a buffer all the
        same, and binding rejects the frame itself.
        """
        shape = (*np.shape(chunk[0][2])[:2], 3)
        if self._expose_buf is None or self._expose_buf.shape != shape:
            self._expose_buf = np.empty(shape, dtype=np.float64)
        return self._expose_buf

    def _flush(self, chunk, on_frame, stream: StreamOutcome, checked) -> None:
        """Bind one window, then serve its frames in stream order.

        ``checked`` is the run's :class:`~repro.sensor.CheckedFrames`, or
        ``None`` when its frames came as any other iterable.
        """
        pipeline, policy = self.pipeline, self.reuse
        if checked is None:
            frames = [frame for _, _, frame in chunk]
        else:
            first = chunk[0][0]
            frames = checked[first : first + len(chunk)]
        # One span per flush: it checks the window and binds a readout
        # chain to each frame; each read exposes what it reads.
        with profiled(pipeline.profiler, "expose"):
            batch = BatchSensorReadout.from_images(
                frames, noise=pipeline.noise, out=self._exposure_buffer(chunk)
            )
        for (idx, seed, _), readout in zip(chunk, batch.readouts):
            if on_frame is not None:
                on_frame(idx)
            decision = None if policy is None else policy.propose()
            reused = decision is not None and decision.reuse
            if reused:
                result = pipeline.run_stage2_only(
                    readout.array, decision.rois, frame_seed=seed
                )
            else:
                result = pipeline.run(readout.array, frame_seed=seed)
                if policy is not None:
                    policy.observe(result.rois)
            stats = FrameStats.from_outcome(
                idx,
                result,
                # The conventional baseline has no pooled-readout stage.
                ran_stage1=not reused and isinstance(pipeline, HiRISEPipeline),
                reused_rois=reused,
                reason="" if decision is None else decision.reason,
            )
            stream.append(stats, result if self.keep_outcomes else None)
            if self.on_stats is not None:
                self.on_stats(stats)
        chunk.clear()
