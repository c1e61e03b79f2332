"""nn runtime telemetry: sampled layer profiling, plan counters."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn import Dense, NeuralNetwork, ReLU, Sequential, compile_network
from repro.nn.runtime import (
    layer_profiling_interval,
    profiled_layers,
    set_layer_profiling,
)
from repro.nn.runtime.profiling import layer_timer, should_sample
from repro.obs.metrics import get_registry


@pytest.fixture(autouse=True)
def _profiling_off():
    """Profiling is a process-global switch; leave it how we found it."""
    saved = layer_profiling_interval()
    set_layer_profiling(0)
    yield
    set_layer_profiling(saved)


class TestSamplingSwitch:
    def test_disabled_never_samples(self):
        assert layer_profiling_interval() == 0
        assert not any(should_sample() for _ in range(20))

    def test_every_one_samples_every_call(self):
        set_layer_profiling(1)
        assert all(should_sample() for _ in range(5))

    def test_cadence_of_three(self):
        set_layer_profiling(3)
        pattern = [should_sample() for _ in range(9)]
        assert pattern == [False, False, True] * 3

    def test_setting_resets_the_phase(self):
        set_layer_profiling(2)
        should_sample()  # call 1: not sampled
        set_layer_profiling(2)
        assert [should_sample(), should_sample()] == [False, True]

    def test_negative_period_rejected(self):
        with pytest.raises(ConfigurationError):
            set_layer_profiling(-1)

    def test_context_manager_restores_prior_setting(self):
        set_layer_profiling(7)
        with profiled_layers(2):
            assert layer_profiling_interval() == 2
            with profiled_layers(5):
                assert layer_profiling_interval() == 5
            assert layer_profiling_interval() == 2
        assert layer_profiling_interval() == 7

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with profiled_layers(4):
                raise RuntimeError("boom")
        assert layer_profiling_interval() == 0


class TestSequentialProfiling:
    def _model_and_input(self, rng):
        model = Sequential([Dense(6, 4, rng=rng), ReLU()])
        model.set_training(False)
        return model, rng.standard_normal((3, 6)).astype(np.float32)

    def test_profiled_forward_times_every_layer(self, rng):
        model, x = self._model_and_input(rng)
        with profiled_layers(1):
            model.forward(x)
            model.forward(x)
        for layer in model.layers:
            hist = layer_timer(layer.name)
            assert hist.count == 2, layer.name
            assert hist.sum >= 0.0

    def test_sampling_period_skips_forwards(self, rng):
        model, x = self._model_and_input(rng)
        with profiled_layers(2):
            for _ in range(4):  # calls 2 and 4 are the samples
                model.forward(x)
        assert layer_timer(model.layers[0].name).count == 2

    def test_disabled_records_nothing(self, rng):
        model, x = self._model_and_input(rng)
        model.forward(x)
        assert layer_timer(model.layers[0].name).count == 0

    def test_profiled_output_matches_unprofiled(self, rng):
        model, x = self._model_and_input(rng)
        plain = model.forward(x)
        with profiled_layers(1):
            profiled = model.forward(x)
        np.testing.assert_array_equal(plain, profiled)

    def test_layer_timer_is_one_series_per_layer(self):
        assert layer_timer("conv1") is layer_timer("conv1")
        assert layer_timer("conv1") is not layer_timer("conv2")


class TestPlanCounters:
    """Compiles and arena allocations: the first-use events that set the
    serving tail, published by the plan once per run."""

    def _net(self, rng):
        net = Sequential([Dense(6, 4, rng=rng), ReLU()])
        net.set_training(False)
        return net

    def _counts(self) -> tuple[float, float]:
        registry = get_registry()
        compiles = registry.get("nn_plan_compiles_total")
        allocs = registry.get("nn_plan_arena_allocs_total")
        return (compiles.value if compiles else 0,
                allocs.value if allocs else 0)

    def test_only_growth_allocates(self, rng):
        plan = compile_network(self._net(rng), (6,))
        assert (plan.capacity, plan.arena_allocs) == (0, 0)
        for n in (4, 4, 2, 4, 1):
            plan.run(rng.standard_normal((n, 6)).astype(np.float32))
        assert plan.arena_allocs == 1
        plan.run(rng.standard_normal((9, 6)).astype(np.float32))
        assert (plan.capacity, plan.arena_allocs) == (9, 2)

    def test_publish_metrics_flushes_deltas_once(self, rng):
        plan = compile_network(self._net(rng), (6,))
        x = rng.standard_normal((3, 6)).astype(np.float32)
        plan.run(x)
        assert self._counts() == (1, 1)
        plan.run(x)               # steady state: nothing new to publish
        plan.publish_metrics()
        assert self._counts() == (1, 1)
        plan.run(np.concatenate([x, x]))
        assert self._counts() == (1, 2)

    def test_repeat_publish_creates_no_series(self, rng):
        plan = compile_network(self._net(rng), (6,))
        plan.publish_metrics()
        assert self._counts() == (1, 0)
        plan.publish_metrics()
        assert len(get_registry()) == 1

    def test_model_compiles_once_per_shape_and_backend(self, rng):
        model = NeuralNetwork(self._net(rng),
                              optimizer_factory=lambda params: None)
        model.mark_fitted()
        for n in (5, 3, 5):
            model.predict_logits(
                rng.standard_normal((n, 6)).astype(np.float32))
        assert self._counts() == (1, 1)
        model.invalidate_plans()   # weight surgery: a fresh plan
        model.predict_logits(rng.standard_normal((2, 6)).astype(np.float32))
        assert self._counts() == (2, 2)

    def test_pickled_model_recompiles_and_republishes(self, rng):
        model = NeuralNetwork(self._net(rng),
                              optimizer_factory=lambda params: None)
        model.mark_fitted()
        x = rng.standard_normal((2, 6)).astype(np.float32)
        model.predict_logits(x)
        restored = pickle.loads(pickle.dumps(model))
        restored.predict_logits(x)   # fresh plan: a fresh delta
        assert self._counts() == (2, 2)
