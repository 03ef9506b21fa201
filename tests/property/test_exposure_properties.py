"""On-demand exposure, stated as a property.

A :class:`PixelArray` built from a scene exposes only what a read asks
for: the whole frame (:attr:`PixelArray.voltages`) or one window
(:meth:`PixelArray.region`).  Every exposure step is elementwise, so on a
fresh array any window must equal the whole-frame exposure sliced to the
same box, bit for bit, whichever of the two runs first.  The oracle is
the eager whole-frame exposure written out step by step.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sensor import NoiseModel, PixelArray

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
    if not noise.is_noiseless():
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
