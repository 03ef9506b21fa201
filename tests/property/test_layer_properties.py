"""Property-based tests for the bit-identical stage-2 layer kernels.

Max pooling and zero padding are rewritten for speed; each must give
exactly what its textbook NumPy formulation gives, in both compute dtypes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml.layers import MaxPool2D, _pad_nhwc

dtypes = st.sampled_from([np.float32, np.float64])


@st.composite
def pool_cases(draw):
    """An NHWC tensor whose sides divide the pool size, and that size."""
    k = draw(st.integers(1, 3))
    dtype = draw(dtypes)
    shape = (
        draw(st.integers(1, 4)),
        k * draw(st.integers(1, 6)),
        k * draw(st.integers(1, 6)),
        draw(st.integers(1, 5)),
    )
    width = np.dtype(dtype).itemsize * 8
    x = draw(hnp.arrays(dtype, shape, elements=st.floats(allow_nan=False, width=width)))
    return x, k


def reshape_max(x: np.ndarray, k: int) -> np.ndarray:
    n, h, w, c = x.shape
    return x.reshape(n, h // k, k, w // k, k, c).max(axis=(2, 4))


@st.composite
def pad_cases(draw):
    dtype = draw(dtypes)
    shape = hnp.array_shapes(min_dims=4, max_dims=4, min_side=1, max_side=6)
    x = draw(hnp.arrays(dtype, shape, elements=st.floats(-1e3, 1e3, width=32)))
    return x, draw(st.integers(0, 3))


class TestMaxPoolProperties:
    @given(pool_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_reshape_max(self, case):
        x, k = case
        out = MaxPool2D(k).forward(x)
        expected = reshape_max(x, k)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)
        assert not np.shares_memory(out, x)  # k=1 included


class TestPadProperties:
    @given(pad_cases())
    @settings(max_examples=100, deadline=None)
    def test_matches_np_pad(self, case):
        x, pad = case
        out = _pad_nhwc(x, pad)
        expected = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)
