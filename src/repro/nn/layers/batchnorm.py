"""Batch normalization for dense (NC) and convolutional (NCHW) inputs."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.layers.base import Layer, Parameter, as_float32


class BatchNorm(Layer):
    """Batch normalization (Ioffe & Szegedy, 2015).

    Normalizes over the batch (and spatial axes for NCHW input), then applies
    a learned per-channel scale/shift.  Running statistics accumulated during
    training are used in eval mode.

    Args:
        num_features: channel count (axis 1 of the input).
        momentum: EMA coefficient for the running statistics.
        eps: numerical stabilizer inside the square root.
    """

    def __init__(self, num_features: int, *, momentum: float = 0.9,
                 eps: float = 1e-5, name: str | None = None) -> None:
        super().__init__(name)
        self.num_features = int(num_features)
        self.momentum = float(momentum)
        self.eps = float(eps)
        self.gamma = Parameter(np.ones(num_features, dtype=np.float32),
                               name=f"{self.name}.gamma")
        self.beta = Parameter(np.zeros(num_features, dtype=np.float32),
                              name=f"{self.name}.beta")
        self.running_mean = np.zeros(num_features, dtype=np.float32)
        self.running_var = np.ones(num_features, dtype=np.float32)
        self._cache: tuple | None = None

    def _reduce_axes(self, x: np.ndarray) -> tuple[int, ...]:
        if x.ndim == 2:
            return (0,)
        if x.ndim == 4:
            return (0, 2, 3)
        raise ShapeError(f"{self.name}: expected 2-D or 4-D input, got {x.shape}")

    def _shape_for(self, x: np.ndarray) -> tuple[int, ...]:
        if x.ndim == 2:
            return (1, self.num_features)
        return (1, self.num_features, 1, 1)

    def eval_scale_shift(self) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode normalize+affine folded to per-channel scale/shift.

        ``y = x * scale + shift`` with the running statistics baked in —
        the graph compiler folds these into its fused conv epilogue and
        standalone scale-shift op.
        """
        scale = self.gamma.value / np.sqrt(self.running_var + self.eps)
        shift = self.beta.value - self.running_mean * scale
        return scale, shift

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float32(x)
        axes = self._reduce_axes(x)
        if x.shape[1] != self.num_features:
            raise ShapeError(
                f"{self.name}: expected {self.num_features} channels, got {x.shape}"
            )
        shape = self._shape_for(x)
        if self.training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            count = x.size // self.num_features
            # Unbiased variance for the running estimate, biased in-batch.
            unbiased = var * count / max(count - 1, 1)
            self.running_mean *= self.momentum
            self.running_mean += (1.0 - self.momentum) * mean
            self.running_var *= self.momentum
            self.running_var += (1.0 - self.momentum) * unbiased
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
        if self.training:
            self._cache = (x_hat, inv_std, axes, shape)
        return self.gamma.value.reshape(shape) * x_hat + self.beta.value.reshape(shape)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x_hat, inv_std, axes, shape = self._require_cache(self._cache, "batch stats")
        grad = as_float32(grad)
        count = grad.size // self.num_features
        self.gamma.grad += (grad * x_hat).sum(axis=axes)
        self.beta.grad += grad.sum(axis=axes)
        g = grad * self.gamma.value.reshape(shape)
        mean_g = g.mean(axis=axes).reshape(shape)
        mean_gx = (g * x_hat).mean(axis=axes).reshape(shape)
        del count
        return (g - mean_g - x_hat * mean_gx) * inv_std.reshape(shape)
