"""Property-based tests for the signal chain: pooling, ADC, grayscale, boxes."""

import functools
import operator

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.eval.boxes import iou_matrix
from repro.sensor import ADCModel, AnalogPoolingModel, analog_grayscale, block_reduce_mean

images = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(
        st.integers(4, 24), st.integers(4, 24), st.just(3)
    ),
    elements=st.floats(0.0, 1.0, allow_nan=False),
)


@st.composite
def pool_inputs(draw):
    """A non-negative ``(H, W)`` or ``(H, W, C)`` input, ragged edges
    allowed, either contiguous or a strided view, plus its block size."""
    k = draw(st.integers(1, 8))
    channels = draw(st.sampled_from([(), (1,), (2,), (3,), (4,)]))
    height = draw(st.integers(k, 3 * k + 2))
    width = draw(st.integers(k, 3 * k + 2))
    step = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.random((height * step, width * step, *channels))
    # Magnitudes spread over six decades, so a change of summation order
    # shows in the last bits.
    base *= 10.0 ** rng.integers(-3, 3, base.shape)
    return base[::step, ::step], k


def left_fold_block_mean(values, k):
    """Oracle: each block's elements (per channel) left-folded in
    row-major order, then divided by k * k."""
    out = np.empty((values.shape[0] // k, values.shape[1] // k, *values.shape[2:]))
    for p in range(out.shape[0]):
        for q in range(out.shape[1]):
            block = [
                values[p * k + i, q * k + j] for i in range(k) for j in range(k)
            ]
            out[p, q] = functools.reduce(operator.add, block) / (k * k)
    return out


def reshape_block_mean(values, k):
    """Oracle: NumPy's two-axis mean over the blocked reshape."""
    h = (values.shape[0] // k) * k
    w = (values.shape[1] // k) * k
    blocks = values[:h, :w].reshape(h // k, k, w // k, k, *values.shape[2:])
    return blocks.mean(axis=(1, 3))


class TestPoolingProperties:
    @given(pool_inputs())
    @settings(max_examples=200, deadline=None)
    def test_block_mean_is_the_row_major_left_fold(self, case):
        values, k = case
        got = block_reduce_mean(values, k)
        assert got.dtype == np.float64
        assert np.array_equal(got, left_fold_block_mean(values, k))
        # NumPy's reshape-mean sums 2-D and single-channel blocks pairwise,
        # so it may differ in the last bits.  On non-negative input the two
        # sums' relative errors are at most (k*k - 1) and ~log2(k*k) unit
        # roundoffs, under 1e-14 together for k <= 8.
        np.testing.assert_allclose(
            got, reshape_block_mean(values, k), rtol=1e-14, atol=0
        )

    @given(images, st.sampled_from([1, 2, 4]))
    @settings(max_examples=50, deadline=None)
    def test_block_mean_preserves_range(self, img, k):
        out = block_reduce_mean(img, k)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    @given(images, st.sampled_from([2, 4]))
    @settings(max_examples=50, deadline=None)
    def test_block_mean_preserves_mean_when_divisible(self, img, k):
        h = (img.shape[0] // k) * k
        w = (img.shape[1] // k) * k
        cropped = img[:h, :w]
        out = block_reduce_mean(cropped, k)
        assert np.isclose(out.mean(), cropped.mean())

    @given(images, st.sampled_from([1, 2, 4]))
    @settings(max_examples=50, deadline=None)
    def test_pooling_linearity(self, img, k):
        """Ideal analog pooling is linear: pool(a*x) = a*pool(x)."""
        model = AnalogPoolingModel.ideal()
        a = 0.5
        lhs = model.pool(a * img, k, vdd=1.0)
        rhs = a * model.pool(img, k, vdd=1.0)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @given(images)
    @settings(max_examples=50, deadline=None)
    def test_grayscale_bounded_by_channel_extremes(self, img):
        gray = analog_grayscale(img)
        assert np.all(gray >= img.min(axis=2) - 1e-12)
        assert np.all(gray <= img.max(axis=2) + 1e-12)

    @given(images, st.sampled_from([1, 2]))
    @settings(max_examples=30, deadline=None)
    def test_grayscale_pool_commutes_for_ideal_circuit(self, img, k):
        """Channel-merge then pool == pool then channel-merge (both are means)."""
        model = AnalogPoolingModel.ideal()
        merged_first = model.pool(img, k, vdd=1.0, grayscale=True)
        pooled_first = model.pool(img, k, vdd=1.0, grayscale=False).mean(axis=2)
        assert np.allclose(merged_first, pooled_first, atol=1e-12)


class TestADCProperties:
    @given(
        hnp.arrays(np.float64, st.integers(1, 64), elements=st.floats(0.0, 1.0)),
        st.integers(2, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantization_error_bounded(self, v, bits):
        adc = ADCModel(bits=bits)
        err = np.abs(adc.digitize(v) - v)
        assert np.all(err <= adc.lsb / 2 + 1e-12)

    @given(
        hnp.arrays(np.float64, st.integers(2, 32), elements=st.floats(0.0, 1.0)),
    )
    @settings(max_examples=50, deadline=None)
    def test_quantization_monotone(self, v):
        """Sorting order is preserved by the quantizer."""
        adc = ADCModel(bits=8)
        order = np.argsort(v, kind="stable")
        codes = adc.convert(v).astype(int)
        assert np.all(np.diff(codes[order]) >= 0)

    @given(st.integers(0, 10_000_000))
    @settings(max_examples=30, deadline=None)
    def test_energy_nonnegative_and_linear(self, n):
        adc = ADCModel()
        assert adc.energy(n) >= 0
        assert np.isclose(adc.energy(2 * n), 2 * adc.energy(n))


# Box coordinates/sizes well away from float underflow: a 1e-269-sized box
# has area 0 in float64, which is degenerate by definition.
boxes_arrays = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 8), st.just(4)),
    elements=st.floats(0.001, 100.0, allow_nan=False),
)


class TestIoUProperties:
    @given(boxes_arrays)
    @settings(max_examples=50, deadline=None)
    def test_iou_matrix_symmetric_on_self(self, boxes):
        m = iou_matrix(boxes, boxes)
        assert np.allclose(m, m.T)

    @given(boxes_arrays)
    @settings(max_examples=50, deadline=None)
    def test_iou_diagonal_is_one_for_valid_boxes(self, boxes):
        m = iou_matrix(boxes, boxes)
        valid = (boxes[:, 2] > 0) & (boxes[:, 3] > 0)
        assert np.allclose(np.diag(m)[valid], 1.0)

    @given(boxes_arrays, boxes_arrays)
    @settings(max_examples=50, deadline=None)
    def test_iou_bounded(self, a, b):
        m = iou_matrix(a, b)
        assert np.all(m >= 0.0)
        # Tiny boxes can push inter/union a few ulps above 1.0.
        assert np.all(m <= 1.0 + 1e-9)
