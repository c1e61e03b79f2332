"""Parametrized gradient-check sweep across every differentiable layer.

Each layer's hand-derived backward pass is validated against central
finite differences through a random projection — the strongest guarantee
the substrate offers that training signals are correct.
"""

import numpy as np
import pytest

from repro.nn import (
    GRU,
    LSTM,
    AvgPool2D,
    BatchNorm,
    BidirectionalGRU,
    BidirectionalLSTM,
    Conv2D,
    Dense,
    GlobalAvgPool2D,
    LeakyReLU,
    MaxPool2D,
    ParallelBranches,
    ReLU,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
)
from tests.gradcheck import (
    check_layer_input_gradient,
    check_layer_param_gradients,
    numerical_gradient,
    relative_error,
)

RNG = np.random.default_rng(2024)

CASES = [
    ("dense", lambda r: Dense(5, 4, rng=r), (3, 5)),
    ("dense_nobias", lambda r: Dense(5, 4, use_bias=False, rng=r), (3, 5)),
    ("conv_same", lambda r: Conv2D(2, 3, 3, rng=r), (2, 2, 5, 5)),
    ("conv_stride", lambda r: Conv2D(2, 3, 3, stride=2, padding=1, rng=r),
     (2, 2, 6, 6)),
    ("conv_1x3", lambda r: Conv2D(2, 2, (1, 3), rng=r), (2, 2, 4, 4)),
    ("conv_3x1", lambda r: Conv2D(2, 2, (3, 1), rng=r), (2, 2, 4, 4)),
    ("maxpool", lambda r: MaxPool2D(2), (2, 2, 6, 6)),
    ("avgpool", lambda r: AvgPool2D(2), (2, 2, 6, 6)),
    ("avgpool_same", lambda r: AvgPool2D(3, stride=1, padding="same"),
     (2, 2, 5, 5)),
    ("gap", lambda r: GlobalAvgPool2D(), (2, 3, 4, 4)),
    ("relu", lambda r: ReLU(), (3, 7)),
    ("leaky", lambda r: LeakyReLU(0.2), (3, 7)),
    ("sigmoid", lambda r: Sigmoid(), (3, 7)),
    ("tanh", lambda r: Tanh(), (3, 7)),
    ("softmax", lambda r: Softmax(), (3, 5)),
    ("batchnorm2d", lambda r: BatchNorm(3), (6, 3, 4, 4)),
    ("batchnorm1d", lambda r: BatchNorm(4), (8, 4)),
    ("lstm", lambda r: LSTM(3, 4, rng=r), (2, 4, 3)),
    ("lstm_seq", lambda r: LSTM(3, 4, return_sequences=True, rng=r),
     (2, 4, 3)),
    ("lstm_rev", lambda r: LSTM(3, 4, reverse=True, rng=r), (2, 4, 3)),
    ("gru", lambda r: GRU(3, 4, rng=r), (2, 4, 3)),
    ("gru_seq", lambda r: GRU(3, 4, return_sequences=True, rng=r),
     (2, 4, 3)),
    ("bilstm", lambda r: BidirectionalLSTM(3, 4, rng=r), (2, 4, 3)),
    ("bigru", lambda r: BidirectionalGRU(3, 4, rng=r), (2, 4, 3)),
    ("branches", lambda r: ParallelBranches([
        Sequential([Conv2D(2, 2, 1, rng=r), ReLU()]),
        Conv2D(2, 3, 3, rng=r),
    ]), (2, 2, 4, 4)),
]


@pytest.mark.parametrize("name,factory,shape", CASES,
                         ids=[case[0] for case in CASES])
def test_input_gradients(name, factory, shape):
    layer = factory(np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=shape)
    error = check_layer_input_gradient(layer, x,
                                       rng=np.random.default_rng(3))
    assert error < 3e-2, f"{name}: input gradient error {error}"


PARAM_CASES = [case for case in CASES
               if case[0] in ("dense", "conv_same", "conv_stride",
                              "batchnorm2d", "lstm", "gru", "bilstm",
                              "bigru", "branches")]


@pytest.mark.parametrize("name,factory,shape", PARAM_CASES,
                         ids=[case[0] for case in PARAM_CASES])
def test_parameter_gradients(name, factory, shape):
    layer = factory(np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=shape)
    errors = check_layer_param_gradients(layer, x,
                                         rng=np.random.default_rng(3))
    worst = max(errors.values())
    assert worst < 4e-2, f"{name}: worst param gradient error {worst}"


def test_micro_inception_gradients_descend():
    """End-to-end sanity: MicroInception's gradients reduce the CE loss.

    A direct numerical input-gradient check is infeasible at this depth in
    float32 (true gradients ~1e-8 sit below finite-difference noise), so
    we verify the training-relevant property instead: repeated steps along
    the analytic gradient monotonically-ish drive the loss down.
    """
    from repro.core import build_micro_inception
    from repro.nn import SGD, SoftmaxCrossEntropy
    net = build_micro_inception(3, width=0.25, dropout=0.0,
                                rng=np.random.default_rng(0))
    net.set_training(True)
    x = np.random.default_rng(1).normal(
        0.5, 0.2, size=(8, 1, 16, 16)).astype(np.float32)
    labels = np.random.default_rng(2).integers(0, 3, 8)
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(list(net.parameters()), learning_rate=0.05,
                    momentum=0.9)
    losses = []
    for _ in range(15):
        value = loss.forward(net.forward(x), labels)
        losses.append(value)
        optimizer.zero_grad()
        net.backward(loss.backward())
        optimizer.step()
    assert losses[-1] < 0.5 * losses[0]


def test_imu_rnn_end_to_end_gradient():
    """Numerical check through the stacked bidirectional LSTM classifier."""
    from repro.core.rnn import RnnConfig, build_imu_rnn
    from repro.nn import SoftmaxCrossEntropy
    config = RnnConfig(hidden_units=4, num_layers=2, dropout=0.0)
    net = build_imu_rnn(config, rng=np.random.default_rng(0))
    net.set_training(True)
    x = np.random.default_rng(1).normal(size=(2, 5, 12)).astype(np.float32)
    labels = np.array([0, 2])
    loss = SoftmaxCrossEntropy()

    def scalar(probe):
        return loss.forward(net.forward(probe), labels)

    loss.forward(net.forward(x), labels)
    analytic = net.backward(loss.backward())
    numeric = numerical_gradient(scalar, x.astype(np.float64), eps=1e-2)
    assert relative_error(analytic, numeric) < 8e-2
