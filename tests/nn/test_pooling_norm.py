"""Pooling, batch-norm, dropout, flatten/reshape, and branch composites."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ShapeError
from repro.nn import (
    AvgPool2D,
    BatchNorm,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    MaxPool2D,
    ParallelBranches,
    ReLU,
    Reshape,
    Residual,
    Sequential,
)
from tests.gradcheck import check_layer_input_gradient


def test_maxpool_known_values():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    out = MaxPool2D(2).forward(x)
    np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])


def test_avgpool_known_values():
    x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
    out = AvgPool2D(2).forward(x)
    np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_global_avg_pool(rng):
    x = rng.normal(size=(3, 5, 4, 4)).astype(np.float32)
    out = GlobalAvgPool2D().forward(x)
    np.testing.assert_allclose(out, x.mean(axis=(2, 3)), rtol=1e-6)


@pytest.mark.parametrize("layer", [
    MaxPool2D(2), AvgPool2D(2), AvgPool2D(3, stride=1, padding="same"),
    GlobalAvgPool2D(),
])
def test_pool_gradients(rng, layer):
    x = rng.normal(size=(2, 2, 6, 6))
    assert check_layer_input_gradient(layer, x, rng=rng) < 2e-2


def test_maxpool_backward_routes_to_argmax():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
    layer = MaxPool2D(2)
    layer.forward(x)
    dx = layer.backward(np.array([[[[1.0]]]], dtype=np.float32))
    np.testing.assert_allclose(dx[0, 0], [[0, 0], [0, 1.0]])


def test_pool_rejects_2d_input(rng):
    with pytest.raises(ShapeError):
        MaxPool2D(2).forward(rng.normal(size=(4, 4)))


# -- batch norm --------------------------------------------------------------

def test_batchnorm_normalizes_training_batch(rng):
    layer = BatchNorm(3)
    x = rng.normal(5.0, 3.0, size=(64, 3)).astype(np.float32)
    out = layer.forward(x)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-4)
    np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)


def test_batchnorm_4d_reduces_spatial(rng):
    layer = BatchNorm(2)
    x = rng.normal(-2.0, 0.5, size=(8, 2, 5, 5)).astype(np.float32)
    out = layer.forward(x)
    np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)


def test_batchnorm_eval_uses_running_stats(rng):
    layer = BatchNorm(2, momentum=0.0)  # running stats = last batch
    x = rng.normal(3.0, 2.0, size=(128, 2)).astype(np.float32)
    layer.forward(x)
    layer.set_training(False)
    out = layer.forward(x)
    np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=5e-2)


def test_batchnorm_gradient(rng):
    layer = BatchNorm(3)
    x = rng.normal(size=(8, 3))
    assert check_layer_input_gradient(layer, x, rng=rng) < 2e-2


def test_batchnorm_rejects_wrong_channels(rng):
    with pytest.raises(ShapeError):
        BatchNorm(3).forward(rng.normal(size=(4, 5)).astype(np.float32))


# -- dropout --------------------------------------------------------------

def test_dropout_identity_in_eval(rng):
    layer = Dropout(0.5, rng=rng)
    layer.set_training(False)
    x = rng.normal(size=(4, 4)).astype(np.float32)
    np.testing.assert_array_equal(layer.forward(x), x)


def test_dropout_preserves_expectation(rng):
    layer = Dropout(0.3, rng=rng)
    x = np.ones((200, 200), dtype=np.float32)
    out = layer.forward(x)
    assert abs(out.mean() - 1.0) < 0.02


def test_dropout_invalid_rate():
    with pytest.raises(ConfigurationError):
        Dropout(1.0)
    with pytest.raises(ConfigurationError):
        Dropout(-0.1)


def test_dropout_backward_uses_same_mask(rng):
    layer = Dropout(0.5, rng=rng)
    x = np.ones((10, 10), dtype=np.float32)
    out = layer.forward(x)
    grad = layer.backward(np.ones_like(out))
    np.testing.assert_array_equal(grad, out)


# -- shape layers / composites -----------------------------------------------

def test_flatten_roundtrip(rng):
    x = rng.normal(size=(3, 2, 4, 4)).astype(np.float32)
    layer = Flatten()
    out = layer.forward(x)
    assert out.shape == (3, 32)
    np.testing.assert_array_equal(layer.backward(out), x)


def test_reshape(rng):
    x = rng.normal(size=(2, 12)).astype(np.float32)
    layer = Reshape((3, 4))
    assert layer.forward(x).shape == (2, 3, 4)
    assert layer.backward(layer.forward(x)).shape == (2, 12)


def test_parallel_branches_concat(rng):
    branches = ParallelBranches([
        Sequential([ReLU()]),
        Sequential([ReLU()]),
    ])
    x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    out = branches.forward(x)
    assert out.shape == (2, 6, 4, 4)


def test_parallel_branches_backward_sums(rng):
    branches = ParallelBranches([ReLU(), ReLU()])
    x = np.abs(rng.normal(size=(2, 3, 4, 4))).astype(np.float32)
    out = branches.forward(x)
    dx = branches.backward(np.ones_like(out))
    np.testing.assert_allclose(dx, 2.0)  # both branches pass grad 1


def test_parallel_branches_gradcheck(rng):
    from repro.nn import Conv2D
    branches = ParallelBranches([
        Conv2D(2, 3, 1, rng=rng),
        Sequential([Conv2D(2, 2, 3, rng=rng), ReLU()]),
    ])
    x = rng.normal(size=(2, 2, 5, 5))
    assert check_layer_input_gradient(branches, x, rng=rng) < 2e-2


def test_parallel_branches_requires_branches():
    with pytest.raises(ConfigurationError):
        ParallelBranches([])


def test_residual_adds_input(rng):
    class Zero(ReLU):
        def forward(self, x):
            super().forward(x)
            return np.zeros_like(x)

        def backward(self, grad):
            return np.zeros_like(grad)

    residual = Residual(Zero())
    x = rng.normal(size=(2, 3)).astype(np.float32)
    np.testing.assert_array_equal(residual.forward(x), x)


def test_residual_shape_mismatch(rng):
    from repro.nn import Dense
    residual = Residual(Dense(4, 3, rng=rng))
    with pytest.raises(ShapeError):
        residual.forward(rng.normal(size=(2, 4)).astype(np.float32))
