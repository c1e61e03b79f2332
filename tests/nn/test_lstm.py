"""LSTM and bidirectional wrapper."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn import LSTM, BidirectionalLSTM, Sequential, Dense
from tests.gradcheck import (
    check_layer_input_gradient,
    check_layer_param_gradients,
)


def test_lstm_output_shapes(rng):
    last = LSTM(5, 7, rng=rng)
    seq = LSTM(5, 7, return_sequences=True, rng=rng)
    x = rng.normal(size=(3, 6, 5)).astype(np.float32)
    assert last.forward(x).shape == (3, 7)
    assert seq.forward(x).shape == (3, 6, 7)


def test_lstm_rejects_wrong_features(rng):
    layer = LSTM(5, 4, rng=rng)
    with pytest.raises(ShapeError):
        layer.forward(rng.normal(size=(2, 6, 3)).astype(np.float32))


def test_lstm_forget_bias_initialized_to_one(rng):
    layer = LSTM(3, 4, rng=rng)
    h = 4
    np.testing.assert_allclose(layer.bias.value[h:2 * h], 1.0)
    np.testing.assert_allclose(layer.bias.value[:h], 0.0)


def test_lstm_reverse_processes_reversed_sequence(rng):
    """A reversed LSTM on x equals a forward LSTM on x[::-1] (final state)."""
    fwd = LSTM(3, 4, rng=np.random.default_rng(0))
    bwd = LSTM(3, 4, reverse=True, rng=np.random.default_rng(0))
    x = rng.normal(size=(2, 5, 3)).astype(np.float32)
    np.testing.assert_allclose(bwd.forward(x),
                               fwd.forward(x[:, ::-1, :]), atol=1e-6)


def test_lstm_reverse_sequence_alignment(rng):
    """With return_sequences, output step t corresponds to input step t."""
    layer = LSTM(3, 4, return_sequences=True, reverse=True, rng=rng)
    x = rng.normal(size=(1, 5, 3)).astype(np.float32)
    out = layer.forward(x)
    # The reversed LSTM's *first* processed step is input step 4, and its
    # output must appear at index 4 after re-reversal.
    single = LSTM(3, 4, rng=rng)
    single.w_x.value = layer.w_x.value.copy()
    single.w_h.value = layer.w_h.value.copy()
    single.bias.value = layer.bias.value.copy()
    first_step = single.forward(x[:, 4:, :])
    np.testing.assert_allclose(out[:, 4, :], first_step, atol=1e-6)


def test_lstm_input_gradient(rng):
    layer = LSTM(3, 4, rng=rng)
    x = rng.normal(size=(2, 4, 3))
    assert check_layer_input_gradient(layer, x, rng=rng) < 2e-2


def test_lstm_sequence_input_gradient(rng):
    layer = LSTM(3, 4, return_sequences=True, rng=rng)
    x = rng.normal(size=(2, 4, 3))
    assert check_layer_input_gradient(layer, x, rng=rng) < 2e-2


def test_lstm_param_gradients(rng):
    layer = LSTM(2, 3, rng=rng)
    x = rng.normal(size=(2, 3, 2))
    errors = check_layer_param_gradients(layer, x, rng=rng)
    assert max(errors.values()) < 3e-2


def test_bidirectional_output_is_concat(rng):
    layer = BidirectionalLSTM(3, 4, rng=np.random.default_rng(1))
    x = rng.normal(size=(2, 5, 3)).astype(np.float32)
    out = layer.forward(x)
    assert out.shape == (2, 8)
    fwd = layer.forward_lstm.forward(x)
    bwd = layer.backward_lstm.forward(x)
    np.testing.assert_allclose(out, np.concatenate([fwd, bwd], axis=1),
                               atol=1e-6)


def test_bidirectional_sequences_shape(rng):
    layer = BidirectionalLSTM(3, 4, return_sequences=True, rng=rng)
    out = layer.forward(rng.normal(size=(2, 5, 3)).astype(np.float32))
    assert out.shape == (2, 5, 8)


def test_bidirectional_gradcheck(rng):
    layer = BidirectionalLSTM(2, 3, rng=rng)
    x = rng.normal(size=(2, 3, 2))
    assert check_layer_input_gradient(layer, x, rng=rng) < 2e-2


def test_stacked_bilstm_trains_on_direction_task(rng):
    """A stacked bidirectional LSTM separates rising from falling ramps."""
    from repro.nn import Adam, NeuralNetwork
    n, t = 120, 10
    ramps = np.linspace(-1, 1, t)
    x = np.empty((n, t, 1), dtype=np.float32)
    y = np.empty(n, dtype=np.int64)
    for i in range(n):
        direction = i % 2
        noise = rng.normal(0, 0.05, t)
        x[i, :, 0] = (ramps if direction else -ramps) + noise
        y[i] = direction
    net = Sequential([
        BidirectionalLSTM(1, 8, return_sequences=True, rng=rng),
        BidirectionalLSTM(16, 8, rng=rng),
        Dense(16, 2, rng=rng),
    ])
    model = NeuralNetwork(net, optimizer_factory=lambda p: Adam(p, 5e-3),
                          grad_clip=5.0)
    model.fit(x, y, epochs=10, batch_size=16, rng=rng)
    assert model.evaluate(x, y) > 0.95
