"""Losses and optimizers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import ConfigurationError, ReproError, ShapeError
from repro.nn import SGD, Adam, HingeLoss, LearningRateSchedule, MSELoss, \
    SoftmaxCrossEntropy
from repro.nn.layers.base import Parameter
from tests.gradcheck import check_loss_gradient


# -- cross entropy ----------------------------------------------------------

def test_ce_known_value():
    loss = SoftmaxCrossEntropy()
    logits = np.array([[np.log(3.0), 0.0]], dtype=np.float64)
    # softmax = [0.75, 0.25]; CE for label 0 = -log(0.75)
    value = loss.forward(logits, np.array([0]))
    assert abs(value + np.log(0.75)) < 1e-5


def test_ce_gradient(rng):
    loss = SoftmaxCrossEntropy()
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, 5)
    assert check_loss_gradient(loss, logits, labels) < 1e-2


def test_ce_label_smoothing_gradient(rng):
    loss = SoftmaxCrossEntropy(label_smoothing=0.1)
    logits = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, 4)
    assert check_loss_gradient(loss, logits, labels) < 1e-2


def test_ce_class_weights_scale_loss(rng):
    logits = rng.normal(size=(6, 3))
    labels = np.zeros(6, dtype=np.int64)
    plain = SoftmaxCrossEntropy().forward(logits, labels)
    weighted = SoftmaxCrossEntropy(
        class_weights=np.array([2.0, 1.0, 1.0])).forward(logits, labels)
    assert abs(weighted - 2.0 * plain) < 1e-5


def test_ce_rejects_bad_shapes(rng):
    loss = SoftmaxCrossEntropy()
    with pytest.raises(ShapeError):
        loss.forward(rng.normal(size=(4,)), np.zeros(4, dtype=int))
    with pytest.raises(ShapeError):
        loss.forward(rng.normal(size=(4, 3)), np.zeros(5, dtype=int))


def test_ce_backward_before_forward():
    with pytest.raises(ReproError):
        SoftmaxCrossEntropy().backward()


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-30, 30)),
       st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_ce_gradient_sums_to_zero_per_sample(logits, labels):
    """d(CE)/d(logits) rows sum to 0 (softmax mass conservation)."""
    loss = SoftmaxCrossEntropy()
    loss.forward(logits, np.array(labels))
    grad = loss.backward()
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-6)


# -- MSE / hinge --------------------------------------------------------------

def test_mse_value_and_gradient(rng):
    loss = MSELoss()
    pred = rng.normal(size=(4, 3))
    target = rng.normal(size=(4, 3))
    value = loss.forward(pred, target)
    assert abs(value - np.mean((pred - target) ** 2)) < 1e-6
    assert check_loss_gradient(loss, pred, target) < 1e-2


def test_mse_shape_mismatch(rng):
    with pytest.raises(ShapeError):
        MSELoss().forward(rng.normal(size=(2, 3)), rng.normal(size=(2, 4)))


def test_hinge_zero_when_margin_satisfied():
    scores = np.array([[10.0, 0.0, 0.0]])
    assert HingeLoss().forward(scores, np.array([0])) == 0.0


def test_hinge_gradient(rng):
    loss = HingeLoss()
    scores = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, 5)
    assert check_loss_gradient(loss, scores, labels) < 1e-2


# -- optimizers --------------------------------------------------------------

def _quadratic_params(rng):
    return [Parameter(rng.normal(size=(4,)).astype(np.float32), "w")]


def test_sgd_plain_step():
    param = Parameter(np.array([1.0, 2.0], dtype=np.float32), "w")
    opt = SGD([param], learning_rate=0.1)
    param.grad[:] = np.array([1.0, -1.0])
    opt.step()
    np.testing.assert_allclose(param.value, [0.9, 2.1], rtol=1e-6)


def test_sgd_momentum_accumulates():
    param = Parameter(np.zeros(1, dtype=np.float32), "w")
    opt = SGD([param], learning_rate=0.1, momentum=0.9)
    for _ in range(3):
        param.grad[:] = 1.0
        opt.step()
        param.zero_grad()
    # velocity: -0.1, -0.19, -0.271 -> position sum
    np.testing.assert_allclose(param.value, [-0.561], rtol=1e-5)


def test_sgd_weight_decay_shrinks_weights():
    param = Parameter(np.array([10.0], dtype=np.float32), "w")
    opt = SGD([param], learning_rate=0.1, weight_decay=0.5)
    param.grad[:] = 0.0
    opt.step()
    np.testing.assert_allclose(param.value, [9.5], rtol=1e-6)


def test_sgd_skips_frozen_parameters():
    param = Parameter(np.ones(2, dtype=np.float32), "w", trainable=False)
    opt = SGD([param], learning_rate=1.0)
    param.grad[:] = 1.0
    opt.step()
    np.testing.assert_allclose(param.value, 1.0)


@pytest.mark.parametrize("factory", [
    lambda p: SGD(p, 0.05, momentum=0.9),
    lambda p: Adam(p, 0.1),
])
def test_optimizers_minimize_quadratic(rng, factory):
    target = np.array([1.0, -2.0, 3.0, 0.5], dtype=np.float32)
    params = _quadratic_params(rng)
    opt = factory(params)
    for _ in range(200):
        opt.zero_grad()
        params[0].grad += 2.0 * (params[0].value - target)
        opt.step()
    np.testing.assert_allclose(params[0].value, target, atol=1e-2)


def test_adam_bias_correction_first_step():
    param = Parameter(np.zeros(1, dtype=np.float32), "w")
    opt = Adam([param], learning_rate=0.1)
    param.grad[:] = 5.0
    opt.step()
    # With bias correction the first step is ~ -lr * sign(grad).
    np.testing.assert_allclose(param.value, [-0.1], atol=1e-5)


def test_clip_gradients_scales_to_norm():
    param = Parameter(np.zeros(2, dtype=np.float32), "w")
    opt = SGD([param], learning_rate=0.1)
    param.grad[:] = np.array([3.0, 4.0])  # norm 5
    pre = opt.clip_gradients(1.0)
    assert abs(pre - 5.0) < 1e-6
    assert abs(np.linalg.norm(param.grad) - 1.0) < 1e-5


def test_clip_noop_when_under_limit():
    param = Parameter(np.zeros(2, dtype=np.float32), "w")
    opt = SGD([param], learning_rate=0.1)
    param.grad[:] = np.array([0.3, 0.4])
    opt.clip_gradients(1.0)
    np.testing.assert_allclose(param.grad, [0.3, 0.4])


def test_optimizer_validation():
    param = Parameter(np.zeros(1, dtype=np.float32), "w")
    with pytest.raises(ConfigurationError):
        SGD([], learning_rate=0.1)
    with pytest.raises(ConfigurationError):
        SGD([param], learning_rate=-1.0)
    with pytest.raises(ConfigurationError):
        SGD([param], learning_rate=0.1, momentum=1.5)
    with pytest.raises(ConfigurationError):
        SGD([param], learning_rate=0.1, nesterov=True)
    with pytest.raises(ConfigurationError):
        Adam([param], learning_rate=0.1, beta1=1.0)


def test_lr_schedule_decays():
    param = Parameter(np.zeros(1, dtype=np.float32), "w")
    opt = SGD([param], learning_rate=1.0)
    schedule = LearningRateSchedule(opt, step_size=2, gamma=0.5)
    rates = [schedule.on_epoch_end() for _ in range(6)]
    assert rates == [1.0, 0.5, 0.5, 0.25, 0.25, 0.125]


def test_lr_schedule_respects_floor():
    param = Parameter(np.zeros(1, dtype=np.float32), "w")
    opt = SGD([param], learning_rate=1e-5)
    schedule = LearningRateSchedule(opt, step_size=1, gamma=0.1,
                                    min_lr=1e-6)
    for _ in range(10):
        schedule.on_epoch_end()
    assert opt.learning_rate == pytest.approx(1e-6)
