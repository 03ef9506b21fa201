"""The inference-time BatchNorm fold against the unfolded layer chain.

``Sequential`` folds each BatchNorm that directly follows a Conv2D into
that conv at inference.  The folded forward is the float64 reference; the
layer-by-layer chain it replaces is kept here as the oracle, and the two
must agree within the documented float32 logit tolerances with identical
argmax, in both compute dtypes.
"""

import numpy as np
import pytest

from repro.ml import tiny_cnn
from repro.ml.classifier.crop import FLOAT32_LOGIT_ATOL, FLOAT32_LOGIT_RTOL
from repro.ml.detector.grid import _backbone
from repro.ml.layers import BatchNorm, Conv2D, ReLU
from repro.ml.model import Sequential


def unfolded(net: Sequential, x: np.ndarray) -> np.ndarray:
    """Every layer's own inference forward, one after the other."""
    x = np.asarray(x, dtype=net.compute_dtype)
    for layer in net.layers:
        x = layer.forward(x, training=False)
    return x


def randomize_batchnorms(net: Sequential, seed: int) -> Sequential:
    """Non-trivial affine and running statistics on every BatchNorm."""
    rng = np.random.default_rng(seed)
    for bn in net.layers:
        if isinstance(bn, BatchNorm):
            c = bn.gamma.value.shape[0]
            bn.gamma.value[...] = rng.uniform(0.5, 1.5, c)
            bn.beta.value[...] = rng.normal(0.0, 0.2, c)
            bn.running_mean = rng.normal(0.0, 0.5, c)
            bn.running_var = rng.uniform(0.3, 3.0, c)
    return net


NETS = {
    "tiny-cnn-32": (lambda: tiny_cnn(32, 4, seed=3), (6, 32, 32, 3)),
    "tiny-cnn-28": (lambda: tiny_cnn(28, 4, seed=4), (6, 28, 28, 3)),
    "grid-backbone": (lambda: _backbone(9, seed=5), (3, 32, 48, 3)),
    "bias-free-conv": (
        lambda: Sequential([Conv2D(3, 4, bias=False), BatchNorm(4), ReLU()]),
        (2, 5, 5, 3),
    ),
}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", sorted(NETS))
def test_folded_matches_unfolded_chain(name, dtype):
    factory, shape = NETS[name]
    net = randomize_batchnorms(factory(), seed=11).set_compute_dtype(dtype)
    x = np.random.default_rng(12).random(shape)
    folded = net.predict_batch(x)
    reference = unfolded(net, x)
    assert folded.dtype == reference.dtype == np.dtype(dtype)
    assert np.allclose(folded, reference, atol=FLOAT32_LOGIT_ATOL, rtol=FLOAT32_LOGIT_RTOL)
    assert np.array_equal(folded.argmax(axis=-1), reference.argmax(axis=-1))


def test_fold_skips_every_batchnorm_pass(monkeypatch):
    net = tiny_cnn(32, 4, seed=3)
    calls = []
    original = BatchNorm.forward

    def spy(self, x, training=False):
        calls.append(training)
        return original(self, x, training)

    monkeypatch.setattr(BatchNorm, "forward", spy)
    x = np.random.default_rng(1).random((2, 32, 32, 3))
    net.predict_batch(x)
    assert calls == []
    net.forward(x, training=True)  # training keeps batch statistics
    assert calls == [True] * 3


def test_fold_never_goes_stale():
    net = randomize_batchnorms(tiny_cnn(32, 4, seed=3), seed=2)
    bn = next(layer for layer in net.layers if isinstance(layer, BatchNorm))
    x = np.random.default_rng(7).random((4, 32, 32, 3))
    before = net.predict_batch(x)
    bn.running_var = bn.running_var * 4.0
    after = net.predict_batch(x)
    assert not np.allclose(after, before)
    assert np.allclose(after, unfolded(net, x), atol=FLOAT32_LOGIT_ATOL, rtol=FLOAT32_LOGIT_RTOL)
