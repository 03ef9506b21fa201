"""Sequential model container for the NumPy layer stack."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .layers import BatchNorm, Conv2D, Layer, Param, as_compute_dtype


class Sequential(Layer):
    """A chain of layers executed in order.

    At inference (``training=False``) each :class:`BatchNorm` that directly
    follows a :class:`Conv2D` is folded into that conv
    (:meth:`Conv2D.fold_batchnorm`), which saves a full pass over the
    feature map.  The fold is rebuilt from the current parameters and
    running statistics on every forward (microseconds per pair), so it can
    never go stale after training, :meth:`set_compute_dtype` or
    :meth:`load_state_dict`.  Folding moves float64 logits by a few ulps
    against running the layers one by one; the folded forward is the
    reference every batched/windowed/executor identity is asserted against.

    >>> import numpy as np
    >>> from repro.ml.layers import Dense, ReLU
    >>> net = Sequential([Dense(4, 8), ReLU(), Dense(8, 2)])
    >>> net(np.zeros((3, 4))).shape
    (3, 2)
    """

    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers if training else self._inference_layers():
            x = layer.forward(x, training)
        return x

    def _inference_layers(self) -> list[Layer]:
        """The chain an inference forward runs: conv+BN pairs folded."""
        chain: list[Layer] = []
        for layer in self.layers:
            if isinstance(layer, BatchNorm) and chain and isinstance(chain[-1], Conv2D):
                chain[-1] = chain[-1].fold_batchnorm(layer)
            else:
                chain.append(layer)
        return chain

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def params(self) -> list[Param]:
        out: list[Param] = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def zero_grad(self) -> None:
        for param in self.params():
            param.zero_grad()

    def set_compute_dtype(self, dtype) -> "Sequential":
        """Cast every layer to ``dtype`` (see :meth:`Layer.set_compute_dtype`).

        After ``set_compute_dtype("float32")``, :meth:`predict_batch` casts
        inputs to float32 and every layer's forward preserves it — nothing
        silently upcasts back to float64.
        """
        self.compute_dtype = as_compute_dtype(dtype)
        for layer in self.layers:
            layer.set_compute_dtype(self.compute_dtype)
        return self

    # -- (de)serialization ---------------------------------------------------------

    def _live_arrays(self):
        """``(key, array)`` for every parameter and buffer, keyed by layer
        position and name."""
        for i, layer in enumerate(self.layers):
            for j, param in enumerate(layer.params()):
                yield f"{i}.{j}.{param.name}", param.value
            for name in layer.buffers:
                yield f"{i}.{name}", getattr(layer, name)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Snapshot of every parameter and buffer (BN running statistics)."""
        return {key: value.copy() for key, value in self._live_arrays()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        for key, value in self._live_arrays():
            if key not in state:
                raise KeyError(f"missing {key} in state dict")
            if state[key].shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {key}: {state[key].shape} vs {value.shape}"
                )
            value[...] = state[key]
