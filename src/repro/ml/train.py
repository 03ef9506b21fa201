"""Minibatch training loops for classifiers and the grid detector."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .losses import softmax_cross_entropy
from .model import Sequential
from .optim import Optimizer


@dataclass
class TrainHistory:
    """Per-epoch training record."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1] if self.accuracies else float("nan")


def iterate_minibatches(
    n: int, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffled index batches covering ``range(n)`` once."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def fit_classifier(
    model: Sequential,
    images: np.ndarray,
    labels: np.ndarray,
    optimizer: Optimizer,
    epochs: int = 10,
    batch_size: int = 32,
    seed: int = 0,
    log_fn: Callable[[str], None] | None = None,
) -> TrainHistory:
    """Train a classifier with softmax cross-entropy.

    Args:
        model: NHWC-input :class:`~repro.ml.model.Sequential` ending in
            ``(N, n_classes)`` logits.
        images: ``(N, H, W, C)`` float inputs.
        labels: ``(N,)`` integer labels.
        optimizer: bound to ``model.params()``.
        epochs: passes over the data.
        batch_size: minibatch size.
        seed: shuffling seed.
        log_fn: optional per-epoch logger.

    Returns:
        :class:`TrainHistory` with per-epoch loss/accuracy.
    """
    if images.shape[0] != labels.shape[0]:
        raise ValueError("images and labels must align")
    rng = np.random.default_rng(seed)
    history = TrainHistory()
    for epoch in range(epochs):
        epoch_loss = 0.0
        correct = 0
        for batch in iterate_minibatches(images.shape[0], batch_size, rng):
            x, y = images[batch], labels[batch]
            logits = model.forward(x, training=True)
            loss, grad = softmax_cross_entropy(logits, y)
            model.zero_grad()
            model.backward(grad)
            optimizer.step()
            epoch_loss += loss * len(batch)
            correct += int(np.sum(np.argmax(logits, axis=1) == y))
        history.losses.append(epoch_loss / images.shape[0])
        history.accuracies.append(correct / images.shape[0])
        if log_fn:
            log_fn(
                f"epoch {epoch + 1}/{epochs}: loss={history.losses[-1]:.4f} "
                f"acc={history.accuracies[-1]:.3f}"
            )
    return history


def predict_classifier(
    model: Sequential, images: np.ndarray, batch_size: int = 64
) -> np.ndarray:
    """Predicted class indices, batched to bound memory."""
    preds = []
    for i in range(0, images.shape[0], batch_size):
        logits = model.forward(images[i : i + batch_size], training=False)
        preds.append(np.argmax(logits, axis=1))
    return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)
