"""End-to-end pipelines: HiRISE and the conventional baseline.

:class:`HiRISEPipeline` wires the substrates together exactly as the
paper's Fig. 3 dataflow:

1. expose the scene onto an analog :class:`~repro.sensor.PixelArray`;
2. **stage 1** — analog grayscale/pooling in the sensor, ADC of the pooled
   frame only, transfer to the processor, run the stage-1 detector;
3. feed the ROI descriptors back to the sensor (D1 P->S);
4. **stage 2** — selective full-resolution readout of the ROIs, transfer,
   and (optionally) the stage-2 task model over the crops — batched by
   post-resize shape via :func:`classify_crops`, one forward per bucket.

:class:`ConventionalPipeline` is the baseline: convert and ship the whole
frame, then run the models on the processor.

Both produce a :class:`PipelineOutcome` carrying the images *and* the
measured transfer/energy/memory accounting, so every number in Tables 1/3
and Figs. 6-8 can be read off a single run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..sensor import (
    ADCModel,
    NoiseModel,
    PixelArray,
    ReadoutResult,
    SensorReadout,
)
from ..transfer import TransferLedger
from .config import HiRISEConfig
from .energy import EnergyBreakdown, EnergyModel
from .profiling import PhaseProfiler, profiled
from .roi import ROI, prepare_rois

#: A detector is anything mapping a frame to detection-like objects.
Detector = Callable[[np.ndarray], Sequence]
#: A classifier maps an RGB crop to an arbitrary prediction.  Classifiers
#: may additionally expose the batch protocol of
#: :class:`repro.ml.CropClassifier` (``classify_batch`` + optional
#: ``preprocess``), which :func:`classify_crops` exploits to serve a whole
#: frame's crops in one forward per shape bucket.
Classifier = Callable[[np.ndarray], object]


def classify_crops(classifier: Classifier | None, crops: Sequence[np.ndarray]) -> list[object]:
    """Run the stage-2 task model over a frame's ROI crops, batched.

    Classifiers exposing ``classify_batch(stack)`` (duck-typed; see
    :class:`repro.ml.CropClassifier`) have their crops bucketed by
    post-``preprocess`` shape and served **one forward per bucket**
    instead of one per crop; plain callables keep the per-crop loop.
    Results always come back in crop order, and in float64 compute mode
    the batched path is bit-identical to the per-crop loop (asserted by
    tests and ``benchmarks/bench_hotpath.py``).

    Note this changes *processor-side execution* only: Eq. 2 peak-memory
    accounting keeps its documented per-crop semantics (crops arrive from
    the sensor one window at a time; the largest crop bounds M2).
    """
    crops = list(crops)
    if classifier is None or not crops:
        return []
    classify_batch = getattr(classifier, "classify_batch", None)
    if classify_batch is None:
        return [classifier(crop) for crop in crops]
    preprocess = getattr(classifier, "preprocess", None)
    prepped = [
        np.asarray(crop if preprocess is None else preprocess(crop))
        for crop in crops
    ]
    buckets: dict[tuple, list[int]] = {}
    for index, image in enumerate(prepped):
        buckets.setdefault(image.shape, []).append(index)
    predictions: list[object] = [None] * len(crops)
    for indices in buckets.values():
        outputs = list(classify_batch(np.stack([prepped[i] for i in indices])))
        if len(outputs) != len(indices):
            raise ValueError(
                f"classify_batch returned {len(outputs)} predictions "
                f"for a stack of {len(indices)} crops"
            )
        for index, output in zip(indices, outputs):
            predictions[index] = output
    return predictions


@dataclass
class PipelineOutcome:
    """Everything one pipeline run produced and cost.

    Attributes:
        system: "hirise" or "conventional".
        array_resolution: ``(width, height)`` of the pixel array.
        stage1_image: the frame the stage-1 model saw (pooled for HiRISE,
            full for the baseline).
        rois: conditioned ROIs in array coordinates.
        roi_crops: full-resolution digital crops aligned with ``rois``
            (for the baseline these are digital crops of the full frame).
        predictions: per-crop stage-2 outputs (when a classifier ran).
        detections: raw stage-1 detections in stage-1 frame coordinates.
        ledger: link-transfer accounting.
        energy: sensor energy breakdown.
        stage1_conversions / stage2_conversions: ADC conversion counts.
        peak_image_memory_bytes: max resident image memory on the processor
            (Table 1 Eq. 2 — model activations are accounted separately by
            :mod:`repro.memory`).
    """

    system: str
    array_resolution: tuple[int, int]
    stage1_image: np.ndarray
    rois: list[ROI] = field(default_factory=list)
    roi_crops: list[np.ndarray] = field(default_factory=list)
    predictions: list[object] = field(default_factory=list)
    detections: list[object] = field(default_factory=list)
    ledger: TransferLedger = field(default_factory=TransferLedger)
    energy: EnergyBreakdown = field(default_factory=lambda: EnergyBreakdown(0.0, 0.0))
    stage1_conversions: int = 0
    stage2_conversions: int = 0
    peak_image_memory_bytes: int = 0

    def report(self) -> str:
        """Human-readable one-run summary."""
        w, h = self.array_resolution
        lines = [
            f"[{self.system}] {w}x{h} pixel array",
            f"  stage-1 frame: {self.stage1_image.shape}",
            f"  ROIs read out: {len(self.rois)}"
            + (f" (e.g. {self.rois[0].xywh})" if self.rois else ""),
            f"  data transfer: {self.ledger.total_bytes / 1024:.1f} kB "
            f"(S->P1 {self.ledger.stage1_s2p / 1024:.1f}, "
            f"P->S {self.ledger.stage1_p2s} B, "
            f"S->P2 {self.ledger.stage2_s2p / 1024:.1f})",
            f"  ADC conversions: stage1={self.stage1_conversions:,} "
            f"stage2={self.stage2_conversions:,}",
            f"  sensor energy: {self.energy.total_mj:.4f} mJ",
            f"  peak image memory: {self.peak_image_memory_bytes / 1024:.1f} kB",
        ]
        return "\n".join(lines)


def _build_readout(
    image_or_array: np.ndarray | PixelArray,
    adc_bits: int,
    noise: NoiseModel | None,
    frame_seed: int,
    profiler: PhaseProfiler | None,
) -> SensorReadout:
    """Bind a readout chain, binding the scene to a :class:`PixelArray`
    first unless it is one already (which records no ``expose`` span).
    The reads expose what they read."""
    if isinstance(image_or_array, PixelArray):
        array = image_or_array
    else:
        with profiled(profiler, "expose"):
            array = PixelArray.from_image(
                image_or_array, noise=noise or NoiseModel.noiseless()
            )
    return SensorReadout(
        array=array,
        adc=ADCModel(bits=adc_bits, v_ref=array.vdd),
        frame_seed=frame_seed,
    )


@dataclass
class HiRISEPipeline:
    """The proposed system (paper Figs. 2b and 3).

    Attributes:
        detector: stage-1 model run on the pooled frame; must return
            detection-like objects (``x/y/w/h/score/label``).  May be
            ``None`` when ``rois`` are passed to :meth:`run` directly
            (analytical experiments).
        classifier: optional stage-2 model applied to each ROI crop.
        config: system configuration.
        energy_model: energy coefficients.
        noise: sensor noise model baked into exposures.
        profiler: optional :class:`~repro.core.PhaseProfiler`; when set,
            every phase method records its wall-clock under the hot-path
            taxonomy (``expose``, ``stage1.read``, ``detect``,
            ``condition``, ``stage2.read``, ``stage2.classify``).
    """

    detector: Detector | None = None
    classifier: Classifier | None = None
    config: HiRISEConfig = field(default_factory=HiRISEConfig)
    energy_model: EnergyModel = field(default_factory=EnergyModel)
    noise: NoiseModel | None = None
    profiler: PhaseProfiler | None = None

    # -- phases ------------------------------------------------------------------
    #
    # ``run()`` composes the methods below; callers that amortize work over
    # many frames (``repro.stream``) validate a window at once and hand
    # each frame's :class:`PixelArray` to ``run`` — or, under temporal ROI
    # reuse, to ``run_stage2_only``.

    def build_readout(
        self, image: np.ndarray | PixelArray, frame_seed: int = 0
    ) -> SensorReadout:
        """Bind the scene and this pipeline's readout chain to it."""
        return _build_readout(
            image, self.config.adc_bits, self.noise, frame_seed, self.profiler
        )

    def read_stage1(self, readout: SensorReadout, ledger: TransferLedger):
        """Stage-1 sensor work: pooled conversion, logged on the ledger."""
        with profiled(self.profiler, "stage1"), profiled(self.profiler, "read"):
            stage1 = readout.read_compressed(
                self.config.pool_k, grayscale=self.config.grayscale_stage1
            )
        ledger.add_stage1_frame(stage1.data_bytes)
        return stage1

    def detect(self, stage1_image: np.ndarray) -> tuple[list, list[ROI]]:
        """Run the stage-1 model and lift its boxes to array coordinates.

        Returns:
            ``(detections, candidates)`` — the raw model outputs and the
            score-filtered candidate ROIs scaled by ``pool_k``.
        """
        if self.detector is None:
            raise ValueError("pipeline has no detector; pass rois= explicitly")
        cfg = self.config
        with profiled(self.profiler, "detect"):
            detections = list(self.detector(stage1_image))
        candidates = [
            ROI.from_detection(d, scale=cfg.pool_k)
            for d in detections
            if getattr(d, "score", 1.0) >= cfg.score_threshold
        ]
        return detections, candidates

    def condition_rois(self, candidates: Sequence[ROI], width: int, height: int) -> list[ROI]:
        """Apply the selection encoder's conditioning to candidate ROIs."""
        cfg = self.config
        with profiled(self.profiler, "condition"):
            return prepare_rois(
                candidates,
                width,
                height,
                pad_fraction=cfg.roi_pad_fraction,
                min_side_px=cfg.min_roi_px,
                max_rois=cfg.max_rois,
                drop_contained=cfg.dedup_contained,
                merge_iou=cfg.merge_roi_iou,
            )

    def run_stage2(
        self,
        readout: SensorReadout,
        conditioned: Sequence[ROI],
        ledger: TransferLedger,
    ) -> tuple[ReadoutResult, list[object]]:
        """Stage-2 sensor work + task model: ROI readout, logged, classified.

        The sensor reads ``conditioned`` exactly as given, in order.  Crops
        are served to the classifier through :func:`classify_crops`:
        bucketed by post-resize shape, one forward per bucket.
        """
        with profiled(self.profiler, "stage2"):
            with profiled(self.profiler, "read"):
                stage2 = readout.read_rois(conditioned)
            ledger.add_stage2_rois(stage2.data_bytes)
            with profiled(self.profiler, "classify"):
                predictions = classify_crops(self.classifier, stage2.images)
        return stage2, predictions

    def run(
        self,
        image: np.ndarray | PixelArray,
        rois: Sequence[ROI] | None = None,
        frame_seed: int = 0,
    ) -> PipelineOutcome:
        """Process one exposure end to end.

        Args:
            image: scene image (``(H, W, 3)`` uint8/float) or a
                :class:`PixelArray` (bound as is).
            rois: override the stage-1 detector with known ROIs (in array
                coordinates); required when no detector is configured.
            frame_seed: temporal-noise seed for this exposure.

        Returns:
            :class:`PipelineOutcome`.
        """
        readout = self.build_readout(image, frame_seed)
        ledger = TransferLedger()
        stage1 = self.read_stage1(readout, ledger)
        array = readout.array
        detections: list[object] = []
        if rois is None:
            detections, candidates = self.detect(stage1.images)
        else:
            # Explicit ROIs pass through the same confidence gate as
            # detector outputs, so ``score_threshold`` means one thing
            # regardless of where the boxes came from.
            candidates = [
                r for r in rois
                if getattr(r, "score", None) is None
                or r.score >= self.config.score_threshold
            ]

        conditioned = self.condition_rois(candidates, array.width, array.height)
        return self._stage2_outcome(readout, conditioned, ledger, stage1, detections)

    def run_stage2_only(
        self,
        image: np.ndarray | PixelArray,
        rois: Sequence[ROI],
        frame_seed: int = 0,
    ) -> PipelineOutcome:
        """Selective readout of known windows with *no* stage-1 cost.

        This is the payoff of temporal ROI reuse on video: when recent
        stage-1 results already say where the objects are, the pooled-frame
        conversion and the detector are skipped entirely — the frame costs
        only the descriptor feedback and the ROI pixels.

        Args:
            image: scene image or :class:`PixelArray` for this frame.
            rois: readout windows in array coordinates (e.g. tracker
                predictions).  The selection encoder (:func:`prepare_rois`)
                clips, size-filters and, with ``dedup_contained``, drops
                contained windows, but does *not* pad them (predicted
                windows carry their own safety margin); ``max_rois`` and
                ``merge_roi_iou`` do not apply.
            frame_seed: temporal-noise seed for this exposure.

        Returns:
            :class:`PipelineOutcome` with an empty stage-1 image and zero
            stage-1 conversions/bytes.
        """
        readout = self.build_readout(image, frame_seed)
        conditioned = prepare_rois(
            rois,
            readout.array.width,
            readout.array.height,
            min_side_px=self.config.min_roi_px,
            drop_contained=self.config.dedup_contained,
        )
        return self._stage2_outcome(readout, conditioned, TransferLedger())

    def _stage2_outcome(
        self,
        readout: SensorReadout,
        conditioned: list[ROI],
        ledger: TransferLedger,
        stage1: ReadoutResult | None = None,
        detections: Sequence[object] = (),
    ) -> PipelineOutcome:
        """The frame's tail, shared by :meth:`run` and :meth:`run_stage2_only`:
        feed the descriptors back, read and classify the windows, price the
        conversions and bound Eq. 2 peak memory.  A reused frame passes no
        ``stage1`` read."""
        ledger.add_roi_descriptors(len(conditioned))
        stage2, predictions = self.run_stage2(readout, conditioned, ledger)
        stage1_conversions = 0 if stage1 is None else stage1.conversions
        energy = self.energy_model.from_conversions(
            stage1_conversions=stage1_conversions,
            stage2_conversions=stage2.conversions,
            pooled_outputs=stage1_conversions,
        )
        # Eq. 2: the pooled frame is dropped before stage-2 crops arrive;
        # crops are processed one at a time, so the largest crop bounds M2.
        # Crop memory is modeled like every other image buffer: one stored
        # sample per conversion (`.size` is an element count, not bytes).
        sample_bytes = readout.adc.bytes_per_sample()
        largest_crop = max((c.size for c in stage2.images), default=0) * sample_bytes
        stage1_bytes = 0 if stage1 is None else stage1.data_bytes

        return PipelineOutcome(
            system="hirise",
            array_resolution=readout.array.resolution,
            stage1_image=np.zeros((0, 0)) if stage1 is None else stage1.images,
            rois=conditioned,
            roi_crops=list(stage2.images),
            predictions=predictions,
            detections=list(detections),
            ledger=ledger,
            energy=energy,
            stage1_conversions=stage1_conversions,
            stage2_conversions=stage2.conversions,
            peak_image_memory_bytes=max(stage1_bytes, largest_crop),
        )


@dataclass
class ConventionalPipeline:
    """The baseline (paper Fig. 2a): convert and ship everything.

    Attributes mirror :class:`HiRISEPipeline` minus the in-sensor knobs.
    """

    detector: Detector | None = None
    classifier: Classifier | None = None
    adc_bits: int = 8
    energy_model: EnergyModel = field(default_factory=EnergyModel)
    noise: NoiseModel | None = None
    profiler: PhaseProfiler | None = None

    def run(
        self,
        image: np.ndarray | PixelArray,
        rois: Sequence[ROI] | None = None,
        frame_seed: int = 0,
    ) -> PipelineOutcome:
        """Process one exposure: full-frame conversion, then on-CPU models.

        Args:
            image: scene image or :class:`PixelArray`.
            rois: optional known ROIs; the baseline crops them *digitally*
                from the full frame (no transfer saving — it already moved
                the whole image).
            frame_seed: temporal-noise seed.

        Returns:
            :class:`PipelineOutcome`.
        """
        readout = _build_readout(
            image, self.adc_bits, self.noise, frame_seed, self.profiler
        )
        array = readout.array
        ledger = TransferLedger()

        with profiled(self.profiler, "stage1"), profiled(self.profiler, "read"):
            full = readout.read_full()
        ledger.add_stage1_frame(full.data_bytes)

        detections: list[object] = []
        if rois is None and self.detector is not None:
            with profiled(self.profiler, "detect"):
                detections = list(self.detector(full.images))
            candidates = [ROI.from_detection(d) for d in detections]
        else:
            candidates = list(rois or [])

        with profiled(self.profiler, "condition"):
            conditioned = prepare_rois(candidates, array.width, array.height)
        with profiled(self.profiler, "stage2"):
            with profiled(self.profiler, "read"):
                crops = [
                    np.ascontiguousarray(
                        full.images[r.y : r.y + r.h, r.x : r.x + r.w, :]
                    )
                    for r in conditioned
                ]
            with profiled(self.profiler, "classify"):
                predictions = classify_crops(self.classifier, crops)

        energy = self.energy_model.conventional_frame(array.width, array.height)
        return PipelineOutcome(
            system="conventional",
            array_resolution=array.resolution,
            stage1_image=full.images,
            rois=conditioned,
            roi_crops=crops,
            predictions=predictions,
            detections=detections,
            ledger=ledger,
            energy=energy,
            stage1_conversions=0,
            stage2_conversions=full.conversions,
            peak_image_memory_bytes=full.data_bytes,
        )
