"""GRU and bidirectional GRU."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn import GRU, Adam, BidirectionalGRU, Dense, NeuralNetwork, \
    Sequential
from tests.gradcheck import (
    check_layer_input_gradient,
    check_layer_param_gradients,
)


def test_gru_output_shapes(rng):
    last = GRU(5, 7, rng=rng)
    seq = GRU(5, 7, return_sequences=True, rng=rng)
    x = rng.normal(size=(3, 6, 5)).astype(np.float32)
    assert last.forward(x).shape == (3, 7)
    assert seq.forward(x).shape == (3, 6, 7)


def test_gru_rejects_wrong_features(rng):
    layer = GRU(5, 4, rng=rng)
    with pytest.raises(ShapeError):
        layer.forward(rng.normal(size=(2, 6, 3)).astype(np.float32))


def test_gru_reverse_equivalence(rng):
    fwd = GRU(3, 4, rng=np.random.default_rng(0))
    bwd = GRU(3, 4, reverse=True, rng=np.random.default_rng(0))
    x = rng.normal(size=(2, 5, 3)).astype(np.float32)
    np.testing.assert_allclose(bwd.forward(x),
                               fwd.forward(x[:, ::-1, :]), atol=1e-6)


def test_gru_input_gradient(rng):
    layer = GRU(3, 4, rng=rng)
    x = rng.normal(size=(2, 4, 3))
    assert check_layer_input_gradient(layer, x, rng=rng) < 2e-2


def test_gru_sequence_input_gradient(rng):
    layer = GRU(3, 4, return_sequences=True, rng=rng)
    x = rng.normal(size=(2, 4, 3))
    assert check_layer_input_gradient(layer, x, rng=rng) < 2e-2


def test_gru_param_gradients(rng):
    layer = GRU(2, 3, rng=rng)
    x = rng.normal(size=(2, 3, 2))
    errors = check_layer_param_gradients(layer, x, rng=rng)
    assert max(errors.values()) < 3e-2


def test_gru_fewer_params_than_lstm(rng):
    from repro.nn import LSTM
    gru = GRU(8, 16, rng=rng)
    lstm = LSTM(8, 16, rng=rng)
    assert gru.num_parameters() < lstm.num_parameters()


def test_bidirectional_gru_concat(rng):
    layer = BidirectionalGRU(3, 4, rng=np.random.default_rng(1))
    x = rng.normal(size=(2, 5, 3)).astype(np.float32)
    out = layer.forward(x)
    assert out.shape == (2, 8)
    fwd = layer.forward_gru.forward(x)
    bwd = layer.backward_gru.forward(x)
    np.testing.assert_allclose(out, np.concatenate([fwd, bwd], axis=1),
                               atol=1e-6)


def test_bidirectional_gru_gradcheck(rng):
    layer = BidirectionalGRU(2, 3, rng=rng)
    x = rng.normal(size=(2, 3, 2))
    assert check_layer_input_gradient(layer, x, rng=rng) < 2e-2


def test_gru_trains_on_direction_task(rng):
    n, t = 100, 8
    ramps = np.linspace(-1, 1, t)
    x = np.empty((n, t, 1), dtype=np.float32)
    y = np.empty(n, dtype=np.int64)
    for i in range(n):
        direction = i % 2
        x[i, :, 0] = (ramps if direction else -ramps) + rng.normal(0, 0.05, t)
        y[i] = direction
    net = Sequential([BidirectionalGRU(1, 8, rng=rng), Dense(16, 2, rng=rng)])
    model = NeuralNetwork(net, optimizer_factory=lambda p: Adam(p, 5e-3),
                          grad_clip=5.0)
    model.fit(x, y, epochs=10, batch_size=16, rng=rng)
    assert model.evaluate(x, y) > 0.95


def test_imu_rnn_gru_cell_option():
    from repro.core.rnn import ImuSequenceRNN, RnnConfig
    from repro.datasets import DrivingBehavior, generate_imu_windows
    rng = np.random.default_rng(0)
    x = np.concatenate([
        generate_imu_windows(DrivingBehavior.NORMAL, 20, rng=rng),
        generate_imu_windows(DrivingBehavior.TALKING, 20, rng=rng),
    ])
    y = np.repeat([0, 1], 20)
    rnn = ImuSequenceRNN(RnnConfig(hidden_units=8, epochs=4, cell="gru"),
                         rng=rng)
    rnn.fit(x, y)
    assert rnn.evaluate(x, y) > 0.6


def test_imu_rnn_rejects_unknown_cell():
    from repro.core.rnn import RnnConfig, build_imu_rnn
    from repro.exceptions import ConfigurationError
    with pytest.raises(ConfigurationError):
        build_imu_rnn(RnnConfig(cell="transformer"))
