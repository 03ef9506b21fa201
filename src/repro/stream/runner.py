"""The stream runner: HiRISE (or the baseline) over multi-frame video.

:class:`StreamRunner` turns the single-exposure pipelines into a video
engine, all modes sharing the phase methods of
:class:`~repro.core.HiRISEPipeline`:

* **per-frame** (``window=1``) — the reference: every frame pays the full
  two-stage flow, one Python iteration per frame;
* **windowed** (``window > 1``) — stage-1 exposure + analog pooling + ADC
  for a window of frames runs as one vectorized NumPy pass
  (:class:`~repro.sensor.BatchSensorReadout`) into a preallocated exposure
  buffer, bit-identical to the per-frame loop but without its Python
  overhead;
* **reuse** (``reuse=...``) — a :class:`~repro.stream.TemporalROIReuse`
  policy skips the pooled conversion *and* the stage-1 detector on frames
  where recent results proved stable, reading only predicted ROI windows.
  Reuse composes with ``window > 1``: the sensor exposes the whole window
  ahead of the processor, and each frame's pooled stage-1 result is used
  only where the policy demands a fresh detection — reused frames read
  their ROI crops straight from the window's exposure buffer.

Every mode returns a :class:`~repro.stream.StreamOutcome` whose per-frame
rows and cumulative totals make the modes directly comparable — the
quantities ``benchmarks/bench_stream_throughput.py`` reports.  Whatever
the window size, per-frame results are **bit-identical** to the
``window=1`` loop (the contract ``tests/property/test_stream_equivalence.py``
states as a property).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.pipeline import ConventionalPipeline, HiRISEPipeline, PipelineOutcome
from ..core.profiling import profiled
from ..sensor import BatchSensorReadout
from ..transfer import TransferLedger
from .ledger import FrameStats, StreamOutcome
from .reuse import TemporalROIReuse


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
            :class:`~repro.core.ConventionalPipeline` (per-frame only).
        reuse: optional temporal ROI reuse policy; when set, frames the
            policy deems stable skip stage 1 entirely.  Composes with
            ``window > 1`` (the window is exposed ahead speculatively;
            pooled results are discarded on reused frames).
        keep_outcomes: retain every full :class:`PipelineOutcome` on the
            stream outcome (costs memory; off by default so long streams
            stay ledger-sized).
        on_stats: optional callback invoked with each frame's
            :class:`~repro.stream.FrameStats` the moment it is recorded —
            the hook the serving layer uses to stream ledgers to a client
            while the run is still in flight.  Called in stream order, on
            the thread driving the run — whatever the window size.
        window: stage-1 frames vectorized per NumPy pass (HiRISE only).
            ``window=1`` reproduces the per-frame loop exactly; any window
            is bit-identical to it.
        label: scenario/source name used in error messages ("" = unnamed);
            the engine sets it to the scenario label.
    """

    pipeline: HiRISEPipeline | ConventionalPipeline
    reuse: TemporalROIReuse | None = None
    keep_outcomes: bool = False
    on_stats: Callable[[FrameStats], None] | None = None
    window: int = 1
    label: str = ""
    #: Reusable (window, H, W, 3) float64 exposure stack for windowed mode;
    #: allocated on first flush, re-used for every later window (and run).
    _expose_buf: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window: must be >= 1, got {self.window}")
        if isinstance(self.pipeline, ConventionalPipeline):
            if self.reuse is not None or self.window > 1:
                raise ValueError(
                    "reuse/windowing are HiRISE features; the conventional "
                    "baseline ships every frame in full"
                )

    def run(
        self,
        frames: Iterable[np.ndarray],
        frame_seeds: Sequence[int] | None = None,
        on_frame: Callable[[int], None] | None = None,
    ) -> StreamOutcome:
        """Process a frame sequence end to end.

        Args:
            frames: the clip — any iterable of ``(H, W, 3)`` images (a list,
                a generator, a dataset loader).  Windowed mode materializes
                at most ``window`` frames at a time.
            frame_seeds: per-frame temporal-noise seeds (default: indices).
            on_frame: optional callback invoked with the frame index before
                the frame's *processor-side* work — detector, stage 2 —
                runs (stateful detectors, loggers).  In windowed mode the
                window's sensor-side exposure + pooling happens first, like
                a real sensor streaming exposures ahead of the processor;
                per frame, the callback still precedes the detector call.

        Returns:
            :class:`StreamOutcome` with per-frame stats and totals.
        """
        conventional = isinstance(self.pipeline, ConventionalPipeline)
        outcome = StreamOutcome(
            system="conventional" if conventional else "hirise"
        )
        if self.reuse is not None:
            # Each run() is an independent stream: stale tracks from a
            # previous clip must never grant reuse on scenes that were
            # never detected.
            self.reuse.reset()
        window = 1 if conventional else self.window
        start = time.perf_counter()
        self._drive(frames, frame_seeds, on_frame, outcome, window)
        outcome.wall_time_s = time.perf_counter() - start
        return outcome

    # -- the one dispatch loop ---------------------------------------------------

    def _drive(
        self,
        frames,
        frame_seeds,
        on_frame,
        stream: StreamOutcome,
        window: int,
    ) -> None:
        """Drive every mode through one window-chunked loop.

        ``window=1`` degenerates to the classic per-frame iteration (each
        chunk is a single frame served by the scalar phase methods);
        ``window>1`` flushes whole chunks through the vectorized sensor
        path.  Mode differences live in :meth:`_serve_frame` /
        :meth:`_serve_window`, not in the loop.
        """
        chunk: list[tuple[int, int, np.ndarray]] = []
        for item in _seeded(frames, frame_seeds, self.label):
            chunk.append(item)
            if len(chunk) >= window:
                self._flush(chunk, on_frame, stream, window)
        self._flush(chunk, on_frame, stream, window)

    def _flush(self, chunk, on_frame, stream: StreamOutcome, window: int) -> None:
        if not chunk:
            return
        if window > 1:
            self._serve_window(chunk, on_frame, stream)
        else:
            self._serve_frame(*chunk[0], on_frame, stream)
        chunk.clear()

    # -- recording ---------------------------------------------------------------

    def _record(
        self,
        stream: StreamOutcome,
        idx: int,
        result: PipelineOutcome,
        ran_stage1: bool,
        reused: bool = False,
        reason: str = "",
    ) -> None:
        stats = FrameStats.from_outcome(
            idx, result, ran_stage1=ran_stage1, reused_rois=reused, reason=reason
        )
        stream.append(stats, result if self.keep_outcomes else None)
        if self.on_stats is not None:
            self.on_stats(stats)

    # -- scalar path (window == 1): exactly the classic per-frame loop ----------

    def _serve_frame(self, idx, seed, frame, on_frame, stream: StreamOutcome) -> None:
        if on_frame is not None:
            on_frame(idx)
        pipeline = self.pipeline
        if self.reuse is not None:
            decision = self.reuse.propose()
            if decision.reuse:
                result = pipeline.run_stage2_only(
                    frame, decision.rois, frame_seed=seed
                )
                self._record(
                    stream, idx, result,
                    ran_stage1=False, reused=True, reason=decision.reason,
                )
            else:
                result = pipeline.run(frame, frame_seed=seed)
                self.reuse.observe(result.rois)
                self._record(
                    stream, idx, result, ran_stage1=True, reason=decision.reason
                )
            return
        result = pipeline.run(frame, frame_seed=seed)
        # The conventional baseline has no pooled-readout stage to count.
        self._record(
            stream, idx, result, ran_stage1=isinstance(pipeline, HiRISEPipeline)
        )

    # -- windowed path (window > 1): vectorized stage-1 over the chunk ----------

    def _exposure_buffer(self, chunk) -> np.ndarray | None:
        """The preallocated slice the window's scenes are written into.

        One ``(window, H, W, 3)`` float64 block lives for the runner's
        lifetime; partial windows (the stream's tail) borrow a leading
        slice.  A resolution change mid-stream simply reallocates.  Frames
        that are not plain arrays (e.g. pre-exposed ``PixelArray`` inputs)
        fall back to the allocating path.
        """
        first = chunk[0][2]
        if not isinstance(first, np.ndarray) or first.ndim not in (2, 3):
            return None
        shape = (self.window, first.shape[0], first.shape[1], 3)
        if self._expose_buf is None or self._expose_buf.shape != shape:
            self._expose_buf = np.empty(shape, dtype=np.float64)
        return self._expose_buf[: len(chunk)]

    def _serve_window(self, chunk, on_frame, stream: StreamOutcome) -> None:
        pipeline = self.pipeline
        cfg = pipeline.config
        policy = self.reuse
        # Sensor side first: expose/pool/ADC the whole window in one
        # vectorized pass, writing scenes into the preallocated buffer.
        # Under a reuse policy this is speculative — the policy's verdicts
        # depend on detections inside this very window — but the per-frame
        # random streams are keyed by (frame_seed, readout counter), so an
        # unused pooled result perturbs nothing.  Same phase taxonomy as
        # the per-frame path; windowed sensor work counts one profiler
        # span per flush, not per frame.
        with profiled(pipeline.profiler, "expose"):
            batch = BatchSensorReadout.from_images(
                [frame for _, _, frame in chunk],
                adc_bits=cfg.adc_bits,
                noise=pipeline.noise,
                pooling=pipeline.pooling_model,
                frame_seeds=[seed for _, seed, _ in chunk],
                out=self._exposure_buffer(chunk),
            )
        with profiled(pipeline.profiler, "stage1"), profiled(
            pipeline.profiler, "read"
        ):
            stage1_results = batch.read_compressed(
                cfg.pool_k, grayscale=cfg.grayscale_stage1
            )
        for (idx, seed, _), readout, stage1 in zip(
            chunk, batch.readouts, stage1_results
        ):
            if on_frame is not None:
                on_frame(idx)
            if policy is not None:
                decision = policy.propose()
                if decision.reuse:
                    # The window's exposure is already in the buffer:
                    # read the ROI crops straight from it through a fresh
                    # readout chain (counter 0 — exactly the random
                    # stream the scalar run_stage2_only path draws).
                    result = pipeline.run_stage2_only(
                        readout.array, decision.rois, frame_seed=seed
                    )
                    self._record(
                        stream, idx, result,
                        ran_stage1=False, reused=True, reason=decision.reason,
                    )
                    continue
                ledger = TransferLedger(link=pipeline.link)
                ledger.add_stage1_frame(stage1.data_bytes)
                result = pipeline.complete_from_stage1(readout, stage1, ledger)
                policy.observe(result.rois)
                self._record(
                    stream, idx, result, ran_stage1=True, reason=decision.reason
                )
                continue
            ledger = TransferLedger(link=pipeline.link)
            ledger.add_stage1_frame(stage1.data_bytes)
            result = pipeline.complete_from_stage1(readout, stage1, ledger)
            self._record(stream, idx, result, ran_stage1=True)
