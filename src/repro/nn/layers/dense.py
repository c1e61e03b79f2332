"""Fully connected (dense) layer."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer, Parameter, as_float32


class Dense(Layer):
    """Affine transform ``y = x @ W + b`` on 2-D inputs ``(batch, in)``.

    Args:
        in_features: input feature dimension.
        out_features: output feature dimension.
        use_bias: include the additive bias term.
        weight_init: initializer name or callable for ``W``.
        rng: generator used to draw initial weights.
    """

    def __init__(self, in_features: int, out_features: int, *,
                 use_bias: bool = True, weight_init: str = "he_normal",
                 rng: np.random.Generator | None = None,
                 name: str | None = None) -> None:
        super().__init__(name)
        rng = rng or np.random.default_rng()
        init = get_initializer(weight_init)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(init((in_features, out_features), rng),
                                name=f"{self.name}.weight")
        self.bias = None
        if use_bias:
            self.bias = Parameter(np.zeros(out_features, dtype=np.float32),
                                  name=f"{self.name}.bias")
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float32(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(
                f"{self.name}: expected (batch, {self.in_features}), got {x.shape}"
            )
        self._x = x
        out = x @ self.weight.value
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._require_cache(self._x)
        grad = as_float32(grad)
        self.weight.grad += x.T @ grad
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value.T
