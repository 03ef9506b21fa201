"""Tests for Sequential, losses and the optimizer."""

import numpy as np
import pytest

from repro.ml import Sequential, tiny_cnn
from repro.ml.layers import Dense, ReLU
from repro.ml.losses import binary_cross_entropy_with_logits, sigmoid, softmax
from repro.ml.optim import Adam


def tiny_net(rng, n_in=4, n_out=3):
    return Sequential([Dense(n_in, 8, rng=rng), ReLU(), Dense(8, n_out, rng=rng)])


class TestSequential:
    def test_forward_shape(self, rng):
        net = tiny_net(rng)
        assert net(np.zeros((5, 4))).shape == (5, 3)

    def test_params_collected(self, rng):
        net = tiny_net(rng)
        assert len(net.params()) == 4  # two Dense layers x (w, b)

    def test_state_dict_roundtrip(self, rng):
        net = tiny_net(rng)
        x = rng.standard_normal((2, 4))
        before = net(x)
        state = net.state_dict()
        for p in net.params():
            p.value[...] = 0.0
        assert not np.allclose(net(x), before)
        net.load_state_dict(state)
        assert np.allclose(net(x), before)

    def test_state_dict_carries_batchnorm_running_stats(self, rng):
        # A Dense-only net has no running statistics; a conv+BN net
        # restored without them would infer with mean 0 / variance 1.
        trained = tiny_cnn(16, 3, seed=0)
        for _ in range(3):
            trained.forward(rng.random((4, 16, 16, 3)) * 3.0 + 1.0, training=True)
        restored = tiny_cnn(16, 3, seed=1)
        restored.load_state_dict(trained.state_dict())
        x = rng.random((2, 16, 16, 3))
        assert np.array_equal(restored.predict_batch(x), trained.predict_batch(x))

    def test_load_rejects_missing_running_stats(self):
        net = tiny_cnn(16, 3)
        state = net.state_dict()
        del state["1.running_var"]
        with pytest.raises(KeyError, match="1.running_var"):
            net.load_state_dict(state)

    def test_load_rejects_shape_mismatch(self, rng):
        net = tiny_net(rng)
        state = net.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)


class TestLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        p = softmax(rng.standard_normal((5, 7)))
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_softmax_stable_for_large_logits(self):
        p = softmax(np.array([[1000.0, 1000.0]]))
        assert np.allclose(p, 0.5)

    def test_sigmoid_range_and_symmetry(self):
        x = np.array([-50.0, 0.0, 50.0])
        s = sigmoid(x)
        assert s[0] == pytest.approx(0.0, abs=1e-12)
        assert s[1] == pytest.approx(0.5)
        assert s[2] == pytest.approx(1.0)

    def test_bce_perfect(self):
        logits = np.array([[-100.0, 100.0]])
        targets = np.array([[0.0, 1.0]])
        loss, grad = binary_cross_entropy_with_logits(logits, targets)
        assert loss == pytest.approx(0.0, abs=1e-6)
        assert np.allclose(grad, 0.0, atol=1e-6)

    def test_bce_gradient_fd(self, rng):
        logits = rng.standard_normal((3, 4))
        targets = (rng.random((3, 4)) > 0.5).astype(float)
        weight = rng.random((3, 4)) + 0.5
        _, grad = binary_cross_entropy_with_logits(logits, targets, weight=weight)
        eps = 1e-6
        flat = logits.reshape(-1)
        for i in (0, 5, 11):
            old = flat[i]
            flat[i] = old + eps
            hi, _ = binary_cross_entropy_with_logits(logits, targets, weight=weight)
            flat[i] = old - eps
            lo, _ = binary_cross_entropy_with_logits(logits, targets, weight=weight)
            flat[i] = old
            assert grad.reshape(-1)[i] == pytest.approx((hi - lo) / (2 * eps), abs=1e-8)

    def test_bce_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shapes must match"):
            binary_cross_entropy_with_logits(np.zeros((2, 3)), np.zeros((3, 2)))


class TestOptimizers:
    def _quadratic_param(self):
        from repro.ml.layers import Param

        return Param(np.array([5.0, -3.0]))

    def test_adam_minimizes_quadratic(self):
        p = self._quadratic_param()
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            p.zero_grad()
            p.grad += 2 * p.value
            opt.step()
        assert np.allclose(p.value, 0.0, atol=1e-3)

    def test_weight_decay_shrinks(self):
        from repro.ml.layers import Param

        p = Param(np.array([1.0]))
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        opt.step()  # no loss gradient, only decay
        assert p.value[0] < 1.0

    def test_lr_validation(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)
        with pytest.raises(ValueError):
            Adam([], lr=-1.0)
