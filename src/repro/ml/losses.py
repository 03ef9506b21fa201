"""Loss functions returning ``(loss_value, gradient_wrt_input)`` pairs."""

from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, numerically stable."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def binary_cross_entropy_with_logits(
    logits: np.ndarray, targets: np.ndarray, weight: np.ndarray | float = 1.0
) -> tuple[float, np.ndarray]:
    """Elementwise weighted BCE on logits; mean-reduced.

    Returns:
        ``(loss, grad)`` with grad already mean-normalized.
    """
    if logits.shape != targets.shape:
        raise ValueError("logits and targets shapes must match")
    p = sigmoid(logits)
    eps = 1e-12
    per_elem = -(targets * np.log(p + eps) + (1 - targets) * np.log(1 - p + eps))
    per_elem = per_elem * weight
    loss = float(np.mean(per_elem))
    grad = weight * (p - targets) / logits.size
    return loss, grad
