"""Batched sensor readout: bit-identical to the per-frame loop."""

import numpy as np
import pytest

from repro.core import HiRISEConfig, HiRISEPipeline
from repro.sensor import (
    ADCModel,
    AnalogPoolingModel,
    BatchSensorReadout,
    NoiseModel,
    PixelArray,
    SensorReadout,
)
from repro.sensor.noise import _fixed_pattern_maps
from repro.stream import StreamRunner, ground_truth_detector, pedestrian_clip


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(5)
    return [rng.random((48, 64, 3)) for _ in range(6)]


class TestExposureBatch:
    def test_noiseless_identical(self, frames):
        batch = PixelArray.from_image_batch(frames)
        for frame, array in zip(frames, batch):
            assert np.array_equal(array.voltages, PixelArray.from_image(frame).voltages)

    def test_noisy_identical(self, frames):
        noise = NoiseModel()  # fixed-pattern maps active
        batch = PixelArray.from_image_batch(frames, noise=noise)
        for frame, array in zip(frames, batch):
            scalar = PixelArray.from_image(frame, noise=noise)
            assert np.array_equal(array.voltages, scalar.voltages)

    def test_uint8_frames(self):
        frames = [np.full((8, 8, 3), 128, dtype=np.uint8)]
        (array,) = PixelArray.from_image_batch(frames)
        assert np.array_equal(
            array.voltages, PixelArray.from_image(frames[0]).voltages
        )

    def test_grayscale_frames_promoted(self):
        (array,) = PixelArray.from_image_batch([np.full((8, 8), 0.5)])
        assert array.voltages.shape == (8, 8, 3)

    def test_mixed_resolutions_rejected(self):
        with pytest.raises(ValueError, match="one resolution"):
            PixelArray.from_image_batch([np.zeros((8, 8, 3)), np.zeros((9, 8, 3))])

    def test_empty_batch(self):
        assert PixelArray.from_image_batch([]) == []


class TestBatchSensorReadout:
    def test_read_compressed_bit_identical(self, frames):
        noise = NoiseModel()
        pooling = AnalogPoolingModel()  # mismatch + compression active
        batch = BatchSensorReadout.from_images(
            frames, adc_bits=8, noise=noise, pooling=pooling
        )
        results = batch.read_compressed(4)
        for i, frame in enumerate(frames):
            array = PixelArray.from_image(frame, noise=noise)
            scalar = SensorReadout(
                array,
                adc=ADCModel(bits=8, v_ref=array.vdd),
                pooling=pooling,
                frame_seed=i,
            ).read_compressed(4)
            assert np.array_equal(results[i].images, scalar.images)
            assert results[i].conversions == scalar.conversions
            assert results[i].data_bytes == scalar.data_bytes

    def test_grayscale_bit_identical(self, frames):
        batch = BatchSensorReadout.from_images(frames)
        results = batch.read_compressed(4, grayscale=True)
        for i, frame in enumerate(frames):
            scalar = SensorReadout(
                PixelArray.from_image(frame),
                frame_seed=i,
            ).read_compressed(4, grayscale=True)
            assert np.array_equal(results[i].images, scalar.images)

    def test_follow_on_roi_reads_identical(self, frames):
        """The batch advances each frame's RNG counter like the scalar path,
        so stage-2 reads after a batched stage-1 stay bit-identical too."""
        noise = NoiseModel()
        batch = BatchSensorReadout.from_images(frames, noise=noise)
        batch.read_compressed(4)
        for i, frame in enumerate(frames):
            array = PixelArray.from_image(frame, noise=noise)
            scalar = SensorReadout(array, frame_seed=i)
            scalar.read_compressed(4)
            a = scalar.read_rois([(8, 8, 16, 12)])
            b = batch.readouts[i].read_rois([(8, 8, 16, 12)])
            assert np.array_equal(a.images[0], b.images[0])

    def test_custom_frame_seeds(self, frames):
        batch = BatchSensorReadout.from_images(frames, frame_seeds=[7] * len(frames))
        results = batch.read_compressed(4)
        # Same seed + same-shaped pooled frames draw the same noise stream,
        # but scenes differ, so images differ while seeds agree.
        assert all(r.conversions == results[0].conversions for r in results)
        assert all(ro.frame_seed == 7 for ro in batch.readouts)

    def test_seed_count_mismatch(self, frames):
        with pytest.raises(ValueError, match="frame seeds"):
            BatchSensorReadout.from_images(frames, frame_seeds=[1, 2])

    def test_empty(self):
        assert BatchSensorReadout.from_images([]).read_compressed(2) == []


class TestRunnerBatchParity:
    def test_batched_stream_equals_per_frame(self):
        clip = pedestrian_clip(n_frames=9, resolution=(128, 96), seed=2)

        def build():
            detect, on_frame = ground_truth_detector(clip)
            pipeline = HiRISEPipeline(
                detector=detect,
                config=HiRISEConfig(pool_k=4, roi_pad_fraction=0.05),
            )
            return pipeline, on_frame

        pipeline, on_frame = build()
        per = StreamRunner(pipeline, keep_outcomes=True).run(
            clip.frames, on_frame=on_frame
        )
        pipeline, on_frame = build()
        bat = StreamRunner(pipeline, window=4, keep_outcomes=True).run(
            clip.frames, on_frame=on_frame
        )

        assert bat.total_bytes == per.total_bytes
        assert bat.total_conversions == per.total_conversions
        for a, b in zip(per.outcomes, bat.outcomes):
            assert np.array_equal(a.stage1_image, b.stage1_image)
            assert [r.xywh for r in a.rois] == [r.xywh for r in b.rois]
            for ca, cb in zip(a.roi_crops, b.roi_crops):
                assert np.array_equal(ca, cb)


class TestFixedPatternDraws:
    """One sensor has one fixed pattern: a stream draws its maps once."""

    NOISE = NoiseModel(read_noise=0.002, prnu=0.01, dsnu=0.001, seed=4243)

    @pytest.fixture
    def draws(self, monkeypatch):
        """Counts generators seeded with the noise model's own seed (the
        fixed-pattern draw; temporal reads seed with a tuple)."""
        _fixed_pattern_maps.cache_clear()
        seeds = []
        default_rng = np.random.default_rng

        def spy(seed=None):
            seeds.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        return lambda: seeds.count(self.NOISE.seed)

    def test_windowed_stream_draws_once(self, draws):
        clip = pedestrian_clip(n_frames=12, resolution=(128, 96), seed=2)
        detect, on_frame = ground_truth_detector(clip)
        pipeline = HiRISEPipeline(
            detector=detect, config=HiRISEConfig(pool_k=4), noise=self.NOISE
        )
        StreamRunner(pipeline, window=4).run(clip.frames, on_frame=on_frame)
        assert draws() == 1

    def test_per_frame_pipeline_loop_draws_once(self, draws):
        clip = pedestrian_clip(n_frames=5, resolution=(128, 96), seed=2)
        detect, on_frame = ground_truth_detector(clip)
        pipeline = HiRISEPipeline(
            detector=detect, config=HiRISEConfig(pool_k=4), noise=self.NOISE
        )
        for index, frame in enumerate(clip.frames):
            on_frame(index)
            pipeline.run(frame, frame_seed=index)
        assert draws() == 1
