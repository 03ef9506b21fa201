"""On-demand exposure and the reads built on it, stated as properties.

A :class:`PixelArray` built from a scene exposes only what a read asks
for: the whole frame (:attr:`PixelArray.voltages`) or one window
(:meth:`PixelArray.region`).  Every exposure step is elementwise, so on a
fresh array any window must equal the whole-frame exposure sliced to the
same box, bit for bit, whichever of the two runs first.  The oracle is
the eager whole-frame exposure written out step by step.

The reads convert each sample once: a pooled read runs its calibration
chain in place, a ROI read digitizes all its windows in one buffer, and a
checked float64 frame is its own voltage map where exposure is an
identity.  Each read must still equal, byte for byte, the per-read oracle:
the window (or the pooled frame) of the eager exposure, its temporal
noise and the ADC's noise drawn from one generator keyed
``(frame_seed, n)`` for the n-th read, then clip, round and normalize.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sensor import (
    ADCModel,
    AnalogPoolingModel,
    CheckedFrames,
    NoiseModel,
    PixelArray,
    SensorReadout,
    block_reduce_mean,
    clip_box,
)

NOISE = NoiseModel(read_noise=0.002, prnu=0.05, dsnu=0.02, seed=13)
KINDS = ("uint8", "float64", "float32", "gray-float64", "gray-uint8")


def scene_of(kind: str, h: int, w: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = (h, w) if kind.startswith("gray") else (h, w, 3)
    if kind.endswith("uint8"):
        return rng.integers(0, 256, shape, dtype=np.uint8)
    # Pin some pixels to the rails, where the fixed pattern pushes
    # voltages past them and the clip decides.
    values = rng.random(shape)
    values[rng.random(shape) < 0.2] = 0.0
    values[rng.random(shape) < 0.2] = 1.0
    return values.astype(np.float32 if kind == "float32" else np.float64)


def eager_exposure(scene: np.ndarray, vdd: float, noise: NoiseModel) -> np.ndarray:
    """The whole frame exposed in one pass: cast or scale, vdd, fixed
    pattern, clip."""
    out = np.empty((*scene.shape[:2], 3))
    image = scene[:, :, None] if scene.ndim == 2 else scene
    if scene.dtype == np.uint8:
        np.divide(image, 255.0, out=out)
    else:
        np.copyto(out, image)
    out *= vdd
    if (noise.read_noise, noise.shot_noise_scale, noise.dsnu, noise.prnu) != (0, 0, 0, 0):
        gain, offset = noise.fixed_pattern_maps(out.shape)
        out *= gain
        out += offset
    np.clip(out, 0.0, vdd, out=out)
    return out


@st.composite
def boxes(draw, h: int, w: int):
    x = draw(st.integers(0, w - 1))
    y = draw(st.integers(0, h - 1))
    return x, y, draw(st.integers(1, w - x)), draw(st.integers(1, h - y))


@given(
    kind=st.sampled_from(KINDS),
    noisy=st.booleans(),
    vdd=st.sampled_from([1.0, 1.2]),
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    seed=st.integers(0, 2**16),
    whole_first=st.booleans(),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_region_equals_the_whole_frame_sliced(
    kind, noisy, vdd, h, w, seed, whole_first, data
):
    scene = scene_of(kind, h, w, seed)
    noise = NOISE if noisy else NoiseModel.noiseless()
    want = eager_exposure(scene, vdd, noise)
    x, y, bw, bh = data.draw(boxes(h, w))
    array = PixelArray.from_image(scene, vdd=vdd, noise=noise)
    if whole_first:
        assert np.array_equal(array.voltages, want)
    region = array.region(x, y, bw, bh)
    assert region.shape == (bh, bw, 3)
    assert np.array_equal(region, want[y : y + bh, x : x + bw])
    # A region exposed first leaves the whole frame to expose as before.
    assert np.array_equal(array.voltages, want)


# -- reads -----------------------------------------------------------------------

#: Sensor noise cases: fixed pattern, temporal noise, both, or neither.
NOISES = {
    "noiseless": NoiseModel.noiseless(),
    "fixed": NoiseModel(read_noise=0.0, shot_noise_scale=0.0, prnu=0.05, dsnu=0.02, seed=3),
    "temporal": NoiseModel(read_noise=0.004, shot_noise_scale=0.003, prnu=0.0, dsnu=0.0),
    "all": NoiseModel(read_noise=0.004, shot_noise_scale=0.003, prnu=0.05, dsnu=0.02),
}
#: Scene kinds: "-0" adds a ``-0.0`` sample, "-0+over" also one at
#: ``1 + 1e-10``, which the range check accepts and the clip moves.
READ_KINDS = ("uint8", "float32", "float64", "gray-float64", "float64-0", "float64-0+over")


def read_scene(kind: str, h: int, w: int, seed: int) -> np.ndarray:
    base, _, edits = kind.partition("-0")
    scene = scene_of(base, h, w, seed)
    rng = np.random.default_rng(seed + 1)
    if kind != base:
        scene[rng.integers(h), rng.integers(w), rng.integers(3)] = -0.0
    if edits == "+over":
        scene[rng.integers(h), rng.integers(w), rng.integers(3)] = 1.0 + 1e-10
    return scene


def oracle_digitize(adc: ADCModel, voltages: np.ndarray, vdd: float, noise, g):
    """One read, out of place: temporal noise, ADC noise, clip, round to
    uint16 codes and normalize."""
    v = voltages + noise.temporal_noise(voltages, vdd, g)
    if adc.noise_lsb > 0.0:
        v = v + adc.noise_lsb * adc.lsb * g.standard_normal(v.shape)
    codes = np.rint(np.clip(v, 0.0, adc.v_ref) / adc.lsb).astype(np.uint16)
    return codes.astype(np.float64) / (adc.levels - 1)


def oracle_pool(model: AnalogPoolingModel, voltages, k: int, vdd: float):
    """The pooling chain out of place: normalize, bow, affine, mismatch,
    calibrate, clip."""
    merged = block_reduce_mean(voltages, k)
    normalized = np.clip(merged / vdd, 0.0, 1.0)
    normalized = normalized - model.compression * normalized * (1.0 - normalized)
    shared = model.gain * normalized * vdd + model.offset_per_vdd * vdd
    rng = np.random.default_rng(model.seed)
    gain_map = 1.0 + model.gain_error_sigma * rng.standard_normal(merged.shape)
    offset_map = model.offset_error_sigma_per_vdd * vdd * rng.standard_normal(merged.shape)
    shared = shared * gain_map + offset_map
    calibrated = (shared - model.offset_per_vdd * vdd) / model.gain
    return np.clip(calibrated, 0.0, vdd)


@st.composite
def read_boxes(draw, h: int, w: int):
    """Up to five boxes: inside, overlapping, clipped at an edge, or off
    the array entirely."""
    def box():
        x = draw(st.integers(-w // 2 - 3, w + 2))
        y = draw(st.integers(-h // 2 - 3, h + 2))
        return x, y, draw(st.integers(1, w + 6)), draw(st.integers(1, h + 6))

    return [box() for _ in range(draw(st.integers(0, 5)))]


def bind(scene: np.ndarray, as_clip: bool, vdd: float, noise: NoiseModel) -> PixelArray:
    """Bind ``scene`` as a clip frame (:class:`CheckedFrames`) or as a
    ``list`` of one frame."""
    frames = CheckedFrames([scene]) if as_clip else [scene]
    return PixelArray.from_image_batch(frames, vdd=vdd, noise=noise)[0]


@pytest.mark.parametrize("noise_name", sorted(NOISES))
@pytest.mark.parametrize("kind", READ_KINDS)
@given(
    adc_noise=st.sampled_from([0.0, 0.7]),
    vdd=st.sampled_from([1.0, 1.2]),
    h=st.integers(1, 20),
    w=st.integers(1, 20),
    seed=st.integers(0, 2**16),
    as_clip=st.booleans(),
    whole_first=st.booleans(),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_reads_equal_the_per_read_oracle(
    kind, noise_name, adc_noise, vdd, h, w, seed, as_clip, whole_first, data
):
    scene, noise = read_scene(kind, h, w, seed), NOISES[noise_name]
    want = eager_exposure(scene, vdd, noise)
    rois = data.draw(read_boxes(h, w))
    array = bind(scene, as_clip, vdd, noise)
    adc = ADCModel(v_ref=vdd, noise_lsb=adc_noise)
    readout = SensorReadout(array, adc=adc, frame_seed=seed)
    n = 0
    if whole_first:
        # A pooled read exposes the whole frame first; the ROI reads then
        # copy their windows from it.
        k = data.draw(st.sampled_from([k for k in (1, 2, 4) if k <= min(h, w)]))
        pooled = readout.read_compressed(k)
        n += 1
        g = np.random.default_rng((seed, n))
        pooled_v = oracle_pool(readout.pooling, want, k, vdd)
        expected = oracle_digitize(adc, pooled_v, vdd, noise, g)
        assert pooled.images.tobytes() == expected.tobytes()
    result = readout.read_rois(rois)
    clipped = [b for b in (clip_box(r, w, h) for r in rois) if b is not None]
    assert result.boxes == clipped
    assert len(result.images) == len(clipped)
    assert result.conversions == sum(bw * bh * 3 for _, _, bw, bh in clipped)
    for crop, (x, y, bw, bh) in zip(result.images, clipped):
        n += 1
        g = np.random.default_rng((seed, n))
        window = want[y : y + bh, x : x + bw]
        expected = oracle_digitize(adc, window, vdd, noise, g)
        assert crop.shape == expected.shape and crop.dtype == expected.dtype
        assert crop.tobytes() == expected.tobytes()


@pytest.mark.parametrize("vdd", [1.0, 1.2])
@pytest.mark.parametrize("noise_name", sorted(NOISES))
@pytest.mark.parametrize("kind", READ_KINDS)
@given(
    h=st.integers(1, 16),
    w=st.integers(1, 16),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=8, deadline=None)
def test_a_clip_frame_is_its_own_voltages_exactly_when_exposure_is_an_identity(
    kind, noise_name, vdd, h, w, seed, data
):
    scene, noise = read_scene(kind, h, w, seed), NOISES[noise_name]
    inside = scene.dtype == np.float64 and scene.min() >= 0.0 and scene.max() <= 1.0
    qualifies = (
        scene.ndim == 3
        and inside
        and noise.prnu == 0.0
        and noise.dsnu == 0.0
        and vdd == 1.0
    )
    clip_frame = bind(scene, True, vdd, noise)
    listed = bind(scene, False, vdd, noise)
    assert np.shares_memory(clip_frame.voltages, scene) == qualifies
    assert not np.shares_memory(listed.voltages, scene)
    assert np.array_equal(clip_frame.voltages, listed.voltages)
    assert np.array_equal(clip_frame.voltages, eager_exposure(scene, vdd, noise))
    rois = data.draw(read_boxes(h, w))
    reads = []
    for array in (clip_frame, listed):
        readout = SensorReadout(array, adc=ADCModel(v_ref=vdd), frame_seed=seed)
        images = [readout.read_compressed(1).images] + readout.read_rois(rois).images
        reads.append([image.tobytes() for image in images])
    assert reads[0] == reads[1]
