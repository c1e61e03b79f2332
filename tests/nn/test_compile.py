"""Graph-compiled inference: plan structure, parity, arena, backends.

Compiled plans are the one serving inference path.  Their contract: a
float32 plan's output depends only on the batch, never on which batch
sizes its shared arena served before (bitwise), it stays within ``ATOL``
of the reference layer forward, and an uncompilable model falls back to
the reference forward silently.  These tests pin each clause plus the
plan-cache/invalidation and thread-locality rules the serving tier
relies on.
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inception import build_micro_inception
from repro.core.rnn import RnnConfig, build_imu_rnn
from repro.exceptions import ConfigurationError
from repro.nn import (
    Adam,
    AvgPool2D,
    Dense,
    NeuralNetwork,
    Sequential,
    Tanh,
    backend_names,
    compile_network,
    set_default_backend,
    using_backend,
)
from repro.nn.compile import (
    DEFAULT_BACKEND,
    NumpyCompiledBackend,
    PlanWeight,
    UnsupportedLayerError,
    active_backend_name,
    get_backend,
)
from repro.nn.compile.plan import BOUND_CACHE_SIZE
from repro.nn.runtime import profiled_layers
from repro.nn.runtime.profiling import layer_timer

ATOL = 1e-5

CNN_SHAPE = (1, 16, 16)
RNN_SHAPE = (20, 12)


def _images(n: int, shape=CNN_SHAPE, seed: int = 99) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n,) + shape).astype(np.float32)


@pytest.fixture(scope="module")
def cnn():
    net = build_micro_inception(5, width=0.5, rng=np.random.default_rng(3))
    net.set_training(False)
    return net


@pytest.fixture(scope="module")
def cnn_plan(cnn):
    return compile_network(cnn, CNN_SHAPE)


@pytest.fixture(scope="module")
def rnn():
    net = build_imu_rnn(RnnConfig(hidden_units=8),
                        rng=np.random.default_rng(4))
    net.set_training(False)
    return net


def _served(net) -> NeuralNetwork:
    """An inference-only model around ``net``: the serving entry point."""
    model = NeuralNetwork(net, optimizer_factory=lambda params: None)
    model.mark_fitted()
    return model


# -- plan structure ------------------------------------------------------

def test_conv_bn_relu_fold_into_one_op(cnn_plan):
    described = cnn_plan.describe()
    fused = [d for d in described
             if d["kind"] == "conv" and len(d["fused"]) >= 3]
    assert fused, "expected at least one conv+bn+relu fusion"
    for d in described:
        assert d["layer"] in d["fused"]


def test_arena_reuses_buffers_across_ops(cnn_plan):
    assert 0 < cnn_plan.arena_per_sample < cnn_plan.slot_elements_total


def test_bound_plan_cache_is_bounded(cnn_plan):
    for n in range(1, BOUND_CACHE_SIZE + 4):
        cnn_plan.run(_images(n))
    assert len(cnn_plan._bound) <= BOUND_CACHE_SIZE


# -- numeric parity ------------------------------------------------------

# The serving fast path is the model's own plan, compiled fresh and
# bound at capacity n; the module plan has served other sizes first.

@pytest.mark.parametrize("n", [1, 3, 32])
def test_cnn_plan_bitwise_matches_fast_path(cnn, cnn_plan, n):
    x = _images(n)
    out = cnn_plan.run(x)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, _served(cnn).predict_logits(x))
    np.testing.assert_allclose(out, cnn.forward(x), atol=ATOL, rtol=0)


@pytest.mark.parametrize("n", [1, 7, 32])
def test_rnn_plan_bitwise_matches_fast_path(rnn, n):
    plan = compile_network(rnn, RNN_SHAPE)
    plan.run(_images(40, RNN_SHAPE, seed=1))   # capacity above n
    x = _images(n, RNN_SHAPE)
    out = plan.run(x)
    np.testing.assert_array_equal(out, _served(rnn).predict_logits(x))
    np.testing.assert_allclose(out, rnn.forward(x), atol=ATOL, rtol=0)


def _strided_tap_avgpool(x: np.ndarray, k: int, pad: int) -> np.ndarray:
    """Stride-1 average pooling as per-tap strided adds, then one scale."""
    src = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = src.shape[2] - k + 1, src.shape[3] - k + 1
    acc = np.zeros(x.shape[:2] + (oh, ow), dtype=np.float32)
    for i in range(k):
        for j in range(k):
            np.add(acc, src[:, :, i:i + oh, j:j + ow], out=acc)
    return acc * np.float32(1.0 / (k * k))


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_stride1_avgpool_flat_kernel_bitwise(padding):
    # Stride-1 average pooling takes the flat-shift contiguous-tap
    # kernel; both the padded and unpadded variants must visit every
    # output with the operands and add order of the strided-tap loop.
    net = Sequential([AvgPool2D(3, stride=1, padding=padding)])
    net.set_training(False)
    plan = compile_network(net, (2, 9, 9))
    x = _images(4, (2, 9, 9))
    expected = _strided_tap_avgpool(x, 3, 1 if padding == "same" else 0)
    np.testing.assert_array_equal(plan.run(x), expected)
    np.testing.assert_allclose(plan.run(x), net.forward(x), atol=ATOL)


# -- one arena per plan --------------------------------------------------

_PROPERTY_NETS = {
    "inception": (lambda: build_micro_inception(
        5, width=0.5, rng=np.random.default_rng(3)), CNN_SHAPE),
    "bilstm": (lambda: build_imu_rnn(
        RnnConfig(hidden_units=8), rng=np.random.default_rng(4)), RNN_SHAPE),
    "bigru": (lambda: build_imu_rnn(
        RnnConfig(hidden_units=8, cell="gru"),
        rng=np.random.default_rng(5)), RNN_SHAPE),
}
_FRESH: dict = {}


def _fresh_output(name: str, net, shape, n: int) -> np.ndarray:
    """What a newly compiled plan (capacity exactly n) returns."""
    key = (name, n)
    if key not in _FRESH:
        _FRESH[key] = compile_network(net, shape).run(_images(n, shape))
    return _FRESH[key]


@pytest.fixture(scope="module")
def property_nets():
    nets = {}
    for name, (build, shape) in _PROPERTY_NETS.items():
        net = build()
        net.set_training(False)
        nets[name] = (net, shape)
    return nets


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(_PROPERTY_NETS)),
       sizes=st.lists(st.integers(1, 64), min_size=1, max_size=8))
def test_shared_arena_matches_fresh_plans(property_nets, name, sizes):
    """Any grow/shrink sequence of batch sizes through one plan returns
    exactly what a fresh plan returns at each size; sizes at or below
    capacity bind into the one block, only growth allocates."""
    net, shape = property_nets[name]
    plan = compile_network(net, shape)
    for n in sizes:
        grows = n > plan.capacity
        arena, allocs = plan.arena, plan.arena_allocs
        out = plan.run(_images(n, shape))
        np.testing.assert_array_equal(
            out, _fresh_output(name, net, shape, n))
        assert plan.arena_allocs == allocs + grows
        if not grows:
            assert plan.arena is arena
        for bound in plan._bound.values():
            assert bound.n <= plan.capacity
            assert np.shares_memory(bound.output_view, plan.arena)
    assert plan.capacity == max(sizes)
    assert plan.arena.size == plan.arena_per_sample * plan.capacity


def test_int8_weight_roundtrip_error_is_per_channel_bounded():
    rng = np.random.default_rng(17)
    weight = rng.standard_normal((8, 27)).astype(np.float32)
    handle = PlanWeight.quantized(weight, channel_axis=0)
    assert handle.is_quantized
    dequantized = handle.materialize()
    scales = np.abs(weight).max(axis=1) / 127.0
    assert np.all(np.abs(dequantized - weight)
                  <= scales[:, None] * 0.5 + 1e-7)
    assert handle.nbytes_at_rest < weight.nbytes


def test_int8_plan_runs_and_stays_finite(cnn):
    plan = compile_network(cnn, CNN_SHAPE, quantize=True)
    out = plan.run(_images(5))
    assert out.shape == (5, 5)
    assert np.all(np.isfinite(out))


# -- backend registry and fallback --------------------------------------

def test_backend_registry_api():
    assert backend_names() == ["numpy-compiled", "numpy-compiled-int8",
                               "reference"]
    with pytest.raises(ConfigurationError):
        get_backend("no-such-backend")
    with pytest.raises(ConfigurationError):
        get_backend("numpy-fast")      # the interpreter is gone
    with pytest.raises(ConfigurationError):
        set_default_backend("no-such-backend")
    with pytest.raises(ConfigurationError):
        with using_backend("no-such-backend"):
            pass  # pragma: no cover - must raise before entering
    assert active_backend_name() == DEFAULT_BACKEND == "numpy-compiled"
    with using_backend("reference"):
        assert active_backend_name() == "reference"
        with using_backend("numpy-compiled-int8"):
            assert active_backend_name() == "numpy-compiled-int8"
        assert active_backend_name() == "reference"
    assert active_backend_name() == "numpy-compiled"


def test_unsupported_layer_falls_back_to_reference():
    net = Sequential([Dense(12, 6, rng=np.random.default_rng(5)), Tanh()])
    net.set_training(False)
    with pytest.raises(UnsupportedLayerError):
        compile_network(net, (12,))
    assert NumpyCompiledBackend().compile_model(net, (12,)) is None
    model = _served(net)
    x = _images(6, (12,))
    with using_backend("reference"):
        reference = model.predict_logits(x)
    np.testing.assert_array_equal(model.predict_logits(x), reference)
    assert model._plans[(DEFAULT_BACKEND, (12,))] is None  # miss cached


def test_gru_ablation_rnn_compiles(rnn):
    """The RnnConfig(cell="gru") ablation lowers end to end."""
    net = build_imu_rnn(RnnConfig(hidden_units=8, cell="gru"),
                        rng=np.random.default_rng(5))
    net.set_training(False)
    plan = compile_network(net, RNN_SHAPE)
    kinds = [entry["kind"] for entry in plan.describe()]
    assert kinds.count("bigru") == 2
    x = _images(9, RNN_SHAPE)
    np.testing.assert_allclose(plan.run(x), net.forward(x), atol=ATOL,
                               rtol=0)


# -- model integration ---------------------------------------------------

@pytest.fixture(scope="module")
def cnn_model():
    net = build_micro_inception(5, width=0.5, rng=np.random.default_rng(6))
    model = NeuralNetwork(net, optimizer_factory=lambda p: Adam(p))
    model.mark_fitted()
    return model


def test_model_predicts_identically_under_compiled_backend(cnn_model):
    # 130 samples: one full 128-wide chunk plus a ragged 2-sample tail,
    # both served from the plan's one arena.
    x = _images(130)
    served = cnn_model.predict_logits(x)
    plan = cnn_model._plans[("numpy-compiled", CNN_SHAPE)]
    assert plan.capacity == 128 and plan.arena_allocs == 1
    fresh = compile_network(cnn_model.network, CNN_SHAPE)
    np.testing.assert_array_equal(
        served, np.concatenate([fresh.run(x[:128]), fresh.run(x[128:])]))
    with using_backend("reference"):
        reference = cnn_model.predict_logits(x)
    np.testing.assert_allclose(served, reference, atol=ATOL, rtol=0)


def test_pickling_drops_compiled_plans(cnn_model):
    with using_backend("numpy-compiled"):
        cnn_model.predict_logits(_images(2))
    assert cnn_model._plans
    clone = pickle.loads(pickle.dumps(cnn_model))
    assert clone._plans == {}
    x = _images(4)
    with using_backend("numpy-compiled"):
        np.testing.assert_array_equal(clone.predict_logits(x),
                                      cnn_model.predict_logits(x))


def test_invalidate_plans_forces_recompile(cnn_model):
    with using_backend("numpy-compiled"):
        cnn_model.predict_logits(_images(2))
    assert cnn_model._plans
    cnn_model.invalidate_plans()
    assert cnn_model._plans == {}


# -- profiling attribution ----------------------------------------------

def test_compiled_run_attributes_timings_to_source_layers(cnn_plan):
    with profiled_layers(1):
        cnn_plan.run(_images(2))
    for entry in cnn_plan.describe():
        assert layer_timer(entry["layer"]).count >= 1


def test_gru_plan_attributes_timings_to_source_layers():
    net = build_imu_rnn(RnnConfig(hidden_units=8, cell="gru"),
                        rng=np.random.default_rng(5))
    net.set_training(False)
    plan = compile_network(net, RNN_SHAPE)
    with profiled_layers(1):
        plan.run(_images(2, RNN_SHAPE))
    assert layer_timer("bigru1").count == 1
    assert layer_timer("bigru2").count == 1


# -- thread-locality of the backend selector -----------------------------

def _hold_backend_in_thread(name: str) -> dict[str, str]:
    """Select ``name`` in a worker thread; check the caller is unmoved."""
    entered = threading.Event()
    release = threading.Event()
    seen: dict[str, str] = {}

    def hold() -> None:
        with using_backend(name):
            seen["inside"] = active_backend_name()
            entered.set()
            release.wait(5.0)
        seen["after"] = active_backend_name()

    worker = threading.Thread(target=hold)
    worker.start()
    assert entered.wait(5.0)
    try:
        # The override lives in the worker's thread-local slot only.
        assert active_backend_name() == DEFAULT_BACKEND
    finally:
        release.set()
        worker.join(5.0)
    return seen


def test_reference_mode_is_thread_local():
    seen = _hold_backend_in_thread("reference")
    assert seen == {"inside": "reference", "after": DEFAULT_BACKEND}


def test_using_backend_is_thread_local():
    seen = _hold_backend_in_thread("numpy-compiled-int8")
    assert seen == {"inside": "numpy-compiled-int8",
                    "after": DEFAULT_BACKEND}
