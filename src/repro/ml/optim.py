"""Optimizers for the NumPy layer stack."""

from __future__ import annotations

import numpy as np

from .layers import Param


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: list[Param]):
        self.parameters = list(params)

    def step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()


class Adam(Optimizer):
    """Adam with bias correction."""

    def __init__(
        self,
        params: list[Param],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params)
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.value) for p in self.parameters]
        self._v = [np.zeros_like(p.value) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1t = 1.0 - self.beta1**self._t
        b2t = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.value
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad**2
            p.value -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
