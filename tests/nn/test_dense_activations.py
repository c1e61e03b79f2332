"""Dense layer and activation functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ShapeError
from repro.nn import Dense, LeakyReLU, ReLU, Sigmoid, Softmax, Tanh
from repro.nn.layers.activations import log_softmax, softmax
from tests.gradcheck import (
    check_layer_input_gradient,
    check_layer_param_gradients,
)


def test_dense_affine_identity(rng):
    layer = Dense(3, 2, rng=rng)
    layer.weight.value = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
    layer.bias.value = np.array([0.5, -0.5], dtype=np.float32)
    out = layer.forward(np.array([[1.0, 2.0, 3.0]], dtype=np.float32))
    np.testing.assert_allclose(out, [[4.5, 4.5]])


def test_dense_shape_validation(rng):
    layer = Dense(3, 2, rng=rng)
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((4, 5), dtype=np.float32))
    with pytest.raises(ShapeError):
        layer.forward(np.zeros((4, 3, 1), dtype=np.float32))


def test_dense_gradients(rng):
    layer = Dense(4, 3, rng=rng)
    x = rng.normal(size=(5, 4))
    assert check_layer_input_gradient(layer, x, rng=rng) < 1e-2
    errors = check_layer_param_gradients(layer, x, rng=rng)
    assert max(errors.values()) < 1e-2


def test_dense_no_bias(rng):
    layer = Dense(4, 3, use_bias=False, rng=rng)
    assert layer.bias is None
    out = layer.forward(np.zeros((2, 4), dtype=np.float32))
    np.testing.assert_allclose(out, 0.0)


@pytest.mark.parametrize("layer_cls", [ReLU, LeakyReLU, Sigmoid, Tanh,
                                       Softmax])
def test_activation_gradients(rng, layer_cls):
    layer = layer_cls()
    x = rng.normal(size=(4, 6))
    assert check_layer_input_gradient(layer, x, rng=rng) < 1e-2


def test_relu_clamps_negatives():
    out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
    np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])


def test_leaky_relu_slope():
    out = LeakyReLU(0.1).forward(np.array([[-10.0, 10.0]]))
    np.testing.assert_allclose(out, [[-1.0, 10.0]], rtol=1e-6)


def test_sigmoid_range_and_midpoint():
    out = Sigmoid().forward(np.array([[0.0, 100.0, -100.0]]))
    np.testing.assert_allclose(out, [[0.5, 1.0, 0.0]], atol=1e-6)


def test_tanh_odd_symmetry(rng):
    x = rng.normal(size=(3, 3)).astype(np.float32)
    layer = Tanh()
    np.testing.assert_allclose(layer.forward(x), -layer.forward(-x),
                               atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (4, 5), elements=st.floats(-50, 50)))
def test_softmax_is_distribution(logits):
    probs = softmax(logits, axis=1)
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_softmax_handles_huge_logits():
    probs = softmax(np.array([[1e30, 0.0, -1e30]]))
    assert np.isfinite(probs).all()
    np.testing.assert_allclose(probs[0, 0], 1.0)


def test_softmax_shift_invariance(rng):
    logits = rng.normal(size=(3, 4))
    np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0),
                               atol=1e-9)


def test_log_softmax_matches_log_of_softmax(rng):
    logits = rng.normal(size=(3, 4))
    np.testing.assert_allclose(log_softmax(logits), np.log(softmax(logits)),
                               atol=1e-9)
