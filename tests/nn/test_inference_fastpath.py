"""The serving fast path — compiled plans — against the reference forward.

Every layer with a compiled lowering must produce the same output (atol
1e-5) as the reference path — the plain layer forward that the
``reference`` backend selects — when served through
:meth:`NeuralNetwork.predict_logits` under the default backend.  Layers
without a lowering must fall back to the reference forward exactly.  The
plan's one arena must be reused across calls and never pickled.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ReproError
from repro.nn import (
    GRU,
    LSTM,
    AvgPool2D,
    BatchNorm,
    BidirectionalGRU,
    BidirectionalLSTM,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2D,
    LeakyReLU,
    MaxPool2D,
    NeuralNetwork,
    ParallelBranches,
    ReLU,
    Reshape,
    Residual,
    Sequential,
    Sigmoid,
    Softmax,
    Tanh,
    assert_float32,
    compile_network,
    using_backend,
)
from repro.nn.compile import DEFAULT_BACKEND, active_backend_name

ATOL = 1e-5


def _served(layer) -> NeuralNetwork:
    """An inference-only model (parameter-free layers included)."""
    model = NeuralNetwork(layer, optimizer_factory=lambda params: None)
    model.mark_fitted()
    return model


def _compiled_and_reference(layer, x):
    """(served, reference, plan) for an eval-mode layer on ``x``.

    ``plan`` is the compiled plan the default backend served from, or
    None when the layer has no lowering and fell back.
    """
    model = _served(layer)
    served = model.predict_logits(x)
    with using_backend("reference"):
        reference = model.predict_logits(x)
    return served, reference, model._plans[(DEFAULT_BACKEND, x.shape[1:])]


def _check_parity(layer, x, *, compiled: bool = True):
    served, reference, plan = _compiled_and_reference(layer, x)
    assert (plan is not None) == compiled
    if compiled:
        np.testing.assert_allclose(served, reference, atol=ATOL, rtol=0)
    else:
        np.testing.assert_array_equal(served, reference)
    assert served.dtype == np.float32
    assert served.flags["C_CONTIGUOUS"]
    return served


@pytest.mark.parametrize("kernel,stride,padding,bias", [
    (3, 1, "same", True), (1, 1, "valid", True), ((1, 7), 1, "same", False),
    (3, 2, "valid", True), (5, 1, 2, False),
])
def test_conv_fast_path_matches_reference(rng, kernel, stride, padding, bias):
    layer = Conv2D(3, 5, kernel, stride=stride, padding=padding,
                   use_bias=bias, rng=rng)
    x = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
    _check_parity(layer, x)


@pytest.mark.parametrize("cls", [MaxPool2D, AvgPool2D])
@pytest.mark.parametrize("pool,stride,padding", [
    (2, 2, 0), (3, 2, 1), (3, 1, "same"),
])
def test_pool_fast_path_matches_reference(rng, cls, pool, stride, padding):
    layer = cls(pool, stride=stride, padding=padding)
    x = rng.standard_normal((3, 4, 10, 10)).astype(np.float32)
    _check_parity(layer, x)


@pytest.mark.parametrize("cls", [GlobalAvgPool2D, Dense, BatchNorm, ReLU,
                                 LeakyReLU, Sigmoid, Softmax, Tanh])
def test_pointwise_layers_match_reference(rng, cls):
    if cls is GlobalAvgPool2D:
        layer, x = cls(), rng.standard_normal((3, 6, 7, 7))
    elif cls is Dense:
        layer, x = cls(11, 5, rng=rng), rng.standard_normal((8, 11))
    elif cls is BatchNorm:
        layer, x = cls(6), rng.standard_normal((8, 6, 5, 5))
        layer.set_training(True)
        layer.forward(x.astype(np.float32))  # accumulate running stats
    else:
        layer, x = cls(), rng.standard_normal((8, 13))
    # Only the layers the shipped models use have lowerings; the rest
    # must fall back to the reference forward, bit for bit.
    compiled = cls in (GlobalAvgPool2D, Dense, BatchNorm, ReLU)
    _check_parity(layer, x.astype(np.float32), compiled=compiled)


@pytest.mark.parametrize("cls", [LSTM, GRU, BidirectionalLSTM,
                                 BidirectionalGRU])
@pytest.mark.parametrize("return_sequences", [True, False])
def test_recurrent_fast_path_matches_reference(rng, cls, return_sequences):
    layer = cls(12, 8, return_sequences=return_sequences, rng=rng)
    x = rng.standard_normal((5, 9, 12)).astype(np.float32)
    # Both bidirectional cells lower (BiGRU is the RnnConfig ablation);
    # unidirectional cells only ever appear inside them.
    _check_parity(layer, x, compiled=cls in (BidirectionalLSTM,
                                             BidirectionalGRU))


@pytest.mark.parametrize("rate", [0.0, 0.3, 0.9])
def test_dropout_eval_is_identity_on_both_paths(rng, rate):
    layer = Sequential([ReLU(), Dropout(rate, rng=rng)])
    x = rng.standard_normal((6, 9)).astype(np.float32)
    out = _check_parity(layer, x)
    np.testing.assert_array_equal(out, np.maximum(x, 0.0))


def test_flatten_fast_path_matches_reference(rng):
    # A bare view layer has nothing to compile; behind a compute op it
    # becomes a free slot alias.
    layer = Sequential([ReLU(), Flatten()])
    x = rng.standard_normal((4, 3, 5, 5)).astype(np.float32)
    out = _check_parity(layer, x)
    assert out.shape == (4, 75)


def test_reshape_fast_path_matches_reference(rng):
    layer = Sequential([ReLU(), Reshape((3, 25))])
    x = rng.standard_normal((4, 75)).astype(np.float32)
    out = _check_parity(layer, x)
    assert out.shape == (4, 3, 25)


def test_parallel_branches_fast_path_matches_reference(rng):
    layer = ParallelBranches([
        Sequential([Conv2D(3, 4, 1, rng=rng), ReLU()]),
        Sequential([Conv2D(3, 2, 3, padding="same", rng=rng)]),
    ])
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    out = _check_parity(layer, x)
    assert out.shape == (2, 6, 8, 8)  # channel concat of 4 + 2


def test_residual_fast_path_matches_reference(rng):
    layer = Residual(Sequential([Dense(10, 10, rng=rng), Tanh()]))
    x = rng.standard_normal((5, 10)).astype(np.float32)
    _check_parity(layer, x, compiled=False)


def test_sequential_composite_fast_path_matches_reference(rng):
    model = Sequential([
        Conv2D(1, 4, 3, padding="same", rng=rng),
        BatchNorm(4),
        ReLU(),
        MaxPool2D(2, stride=2),
        Dropout(0.5, rng=rng),
        Flatten(),
        Dense(4 * 4 * 4, 6, rng=rng),
    ])
    x = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
    model.set_training(True)
    model.forward(x)  # accumulate BatchNorm running stats
    _check_parity(model, x)


def test_fast_path_skips_backward_caches(rng):
    layer = Conv2D(2, 3, 3, rng=rng)
    model = _served(layer)
    x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
    model.predict_logits(x)
    assert layer._cols is None       # the plan never runs the layer
    with using_backend("reference"):
        model.predict_logits(x)
    assert layer._cols is not None   # the reference forward caches


def test_workspace_buffers_are_reused(rng):
    """The plan's one arena serves every batch size up to capacity."""
    layer = Sequential([Conv2D(3, 4, 3, rng=rng), ReLU()])
    layer.set_training(False)
    plan = compile_network(layer, (3, 10, 10))
    x = rng.standard_normal((4, 3, 10, 10)).astype(np.float32)
    first = plan.run(x)
    arena = plan.arena
    second = plan.run(x)
    plan.run(x[:1])
    plan.run(x[:3])
    assert plan.arena is arena and plan.arena_allocs == 1
    np.testing.assert_array_equal(first, second)
    assert not np.shares_memory(first, arena)  # outputs never alias it
    plan.run(np.concatenate([x, x]))          # growth: one new block
    assert plan.arena is not arena and plan.arena_allocs == 2


def test_workspace_pickles_empty(rng):
    """A pickled model never carries a plan or its arena."""
    model = _served(Sequential([Dense(16, 16, rng=rng), ReLU()]))
    cold = len(pickle.dumps(model))
    model.predict_logits(rng.standard_normal((64, 16)).astype(np.float32))
    assert model._plans[(DEFAULT_BACKEND, (16,))].arena is not None
    assert len(pickle.dumps(model)) == cold


def test_reference_mode_restores_fast_path():
    assert active_backend_name() == DEFAULT_BACKEND == "numpy-compiled"
    with using_backend("reference"):
        assert active_backend_name() == "reference"
    assert active_backend_name() == DEFAULT_BACKEND


def test_assert_float32_rejects_float64():
    assert_float32(np.zeros(3, dtype=np.float32))
    with pytest.raises(ReproError):
        assert_float32(np.zeros(3, dtype=np.float64), where="logits")


def _check_ensemble_parity(dataset, cell: str) -> None:
    from repro.core import CnnConfig, DarNetEnsemble, RnnConfig

    ensemble = DarNetEnsemble(
        "cnn+rnn", cnn_config=CnnConfig(epochs=1, width=0.5),
        rnn_config=RnnConfig(hidden_units=8, epochs=1, cell=cell),
        rng=np.random.default_rng(3))
    ensemble.fit(dataset)
    images = dataset.images[:16]
    windows = dataset.imu[:16]
    served = ensemble.predict_degraded(images=images, imu=windows)
    for member in (ensemble.cnn.model, ensemble.imu_model.model):
        assert all(plan is not None for plan in member._plans.values())
    with using_backend("reference"):
        reference = ensemble.predict_degraded(images=images, imu=windows)
    np.testing.assert_allclose(served.probabilities, reference.probabilities,
                               atol=ATOL)
    np.testing.assert_array_equal(served.predictions, reference.predictions)


def test_ensemble_fast_path_matches_reference(tiny_driving_dataset):
    _check_ensemble_parity(tiny_driving_dataset, "lstm")


def test_gru_ablation_ensemble_matches_reference(tiny_driving_dataset):
    """The recurrent-cell ablation serves compiled, not via fallback."""
    _check_ensemble_parity(tiny_driving_dataset, "gru")
