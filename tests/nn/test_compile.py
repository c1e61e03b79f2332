"""Graph-compiled inference: plan structure, parity, arena, backends.

Compiled plans are the one serving inference path.  Their contract: a
float32 plan's output depends only on the batch, never on which batch
sizes its shared arena served before or on the conv row tile a row
rides in (bitwise), it stays within ``ATOL`` of the reference layer
forward, and an uncompilable model falls back to the reference forward
silently.  These tests pin each clause plus the
plan-cache/invalidation and thread-locality rules the serving tier
relies on.
"""

from __future__ import annotations

import pickle
import threading
from unittest import mock

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
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    NeuralNetwork,
    ParallelBranches,
    ReLU,
    Sequential,
    Tanh,
    backend_names,
    compile_network,
    using_backend,
)
from repro.nn.compile import (
    DEFAULT_BACKEND,
    UnsupportedLayerError,
    active_backend_name,
    ops,
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


# -- conv row tiles -------------------------------------------------------

def _whole_batch_conv(unit: Sequential, x: np.ndarray) -> np.ndarray:
    """A conv+bn+relu unit the untiled way: whole-batch pad, 6-D window
    copy, one batched GEMM, in-place epilogue."""
    conv, bn = unit.layers[0], unit.layers[1]
    n, c, h, w = x.shape
    (kh, kw), (sh, sw), (ph, pw) = conv.kernel_size, conv.stride, conv.padding
    oh, ow = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1
    padded = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=np.float32)
    padded[:, :, ph:ph + h, pw:pw + w] = x
    sn, sc, sy, sx = padded.strides
    window = np.lib.stride_tricks.as_strided(
        padded, shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sy, sx, sy * sh, sx * sw))
    cols = np.empty((n, c * kh * kw, oh * ow), dtype=np.float32)
    cols.reshape(n, c, kh, kw, oh, ow)[...] = window
    out = np.empty((n, conv.out_channels, oh * ow), dtype=np.float32)
    np.matmul(np.array(conv.flat_weight(), dtype=np.float32), cols, out=out)
    out = out.reshape(n, conv.out_channels, oh, ow)
    if conv.bias is not None:
        np.add(out, conv.bias.value[:, None, None], out=out)
    scale, shift = (np.asarray(v, np.float32)[:, None, None]
                    for v in bn.eval_scale_shift())
    np.multiply(out, scale, out=out)
    np.add(out, shift, out=out)
    return np.maximum(out, np.float32(0.0), out=out)


def _conv_unit(c: int, oc: int, kernel, stride, pad, bias: bool,
               rng: np.random.Generator) -> Sequential:
    bn = BatchNorm(oc)
    bn.gamma.value[...] = rng.uniform(0.5, 1.5, oc)
    bn.beta.value[...] = rng.standard_normal(oc)
    bn.running_mean[...] = rng.standard_normal(oc)
    bn.running_var[...] = rng.uniform(0.5, 2.0, oc)
    return Sequential([Conv2D(c, oc, kernel, stride=stride, padding=pad,
                              use_bias=bias, rng=rng), bn, ReLU()])


@settings(max_examples=40, deadline=None)
@given(kernel=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       stride=st.sampled_from([1, 2]),
       pad=st.tuples(st.integers(0, 1), st.integers(0, 1)),
       bias=st.booleans(),
       source=st.sampled_from(["raw", "arena"]),
       branch=st.booleans(),
       tile=st.integers(1, 21),
       picks=st.lists(st.integers(0, 4), min_size=3, max_size=8),
       seed=st.integers(0, 2**16))
def test_conv_row_tiles_match_the_whole_batch_conv(kernel, stride, pad, bias,
                                                   source, branch, tile,
                                                   picks, seed):
    """Any conv geometry, source and destination, run at batch sizes on
    both sides of its tile and interleaved on one plan, returns exactly
    what the untiled whole-batch conv returns, row for row."""
    rng = np.random.default_rng(seed)
    c, oc, h, w = 2, 3, 7, 6
    units = [_conv_unit(c, oc + i, kernel, stride, pad, bias, rng)
             for i in range(2 if branch else 1)]
    body = ParallelBranches(units) if branch else units[0]
    net = Sequential([ReLU(), body] if source == "arena" else [body])
    net.set_training(False)
    probe = compile_network(net, (c, h, w))
    conv = next(op for op in probe.ops if op.kind == "conv")
    if conv.tile:
        pad_row = int(np.prod(conv.pinned_row or (0,)))
        row_bytes = 4 * (pad_row + conv.shared_row)
        with mock.patch.object(ops, "TILE_BYTES", tile * row_bytes):
            plan = compile_network(net, (c, h, w))
        assert {op.tile for op in plan.ops if op.kind == "conv"} == {tile}
    else:
        plan = probe       # 1x1 stride-1 unpadded: one whole-batch GEMM
    sizes = sorted({n for n in (1, tile - 1, tile, tile + 1, 3 * tile + 1)
                    if 1 <= n <= 64})
    model = _served(net)
    for call, pick in enumerate(picks):
        n = sizes[pick % len(sizes)]
        x = _images(n, (c, h, w), seed=seed + call)
        src = np.maximum(x, np.float32(0.0)) if source == "arena" else x
        expected = np.concatenate([_whole_batch_conv(u, src) for u in units],
                                  axis=1)
        out = plan.run(x)
        np.testing.assert_array_equal(out, expected)
        with using_backend("reference"):
            np.testing.assert_allclose(out, model.predict_logits(x),
                                       atol=ATOL, rtol=0)


#: The shipped frame CNN: CnnConfig defaults (6 classes, width 1, 64x64).
SHIPPED_SHAPE = (1, 64, 64)


def test_conv_scratch_is_tile_sized_outside_the_arena():
    net = build_micro_inception(6, rng=np.random.default_rng(0))
    net.set_training(False)
    plan = compile_network(net, SHIPPED_SHAPE)
    convs = [op for op in plan.ops if op.kind == "conv"]
    # No conv pad or column buffer is an arena slot; with them the arena
    # held 200,180 floats per row (stem.c2's columns alone 110,592).
    assert all(op.slot_refs() == [op.in_ref, op.out_ref] for op in convs)
    assert plan.arena_per_sample == 42_496
    tiled = [op for op in convs if op.tile]
    assert len(tiled) == 12

    plan.run(_images(8, SHIPPED_SHAPE))
    pads, columns = dict(plan.pinned_tiles), plan.shared_tile
    plan.run(_images(64, SHIPPED_SHAPE))
    assert plan.capacity == 64 and plan.arena_allocs == 2
    # Binding 64 rows after 8 allocates no new column tile: its size is
    # set by the widest conv tile, already reached at 8 rows.
    assert plan.shared_tile is columns
    assert columns.size == max(min(8, op.tile) * op.shared_row
                               for op in tiled)
    # A pad tile grows only up to its conv's tile, never to the batch.
    for op in tiled:
        pad = plan.pinned_tiles[op.index]
        assert pad.shape == (min(64, op.tile),) + op.pinned_row
        assert (pad is pads[op.index]) == (op.tile <= 8)
        (ph, pw), (_, hp, wp) = op.pad, op.pinned_row
        border = np.ones((hp, wp), dtype=bool)
        border[ph:hp - ph, pw:wp - pw] = False
        assert not pad[:, :, border].any()
    scratch = columns.nbytes + sum(p.nbytes
                                   for p in plan.pinned_tiles.values())
    assert scratch <= (len(tiled) + 1) * ops.TILE_BYTES


# -- backend registry and fallback --------------------------------------

def test_backend_registry_api():
    assert backend_names() == ["numpy-compiled", "reference"]
    for unknown in ("no-such-backend",
                    "numpy-fast",           # the interpreter is gone
                    "numpy-compiled-int8"):  # so are int8 plans
        with pytest.raises(ConfigurationError):
            with using_backend(unknown):
                pass  # pragma: no cover - must raise before entering
    assert active_backend_name() == DEFAULT_BACKEND == "numpy-compiled"
    with using_backend("reference"):
        assert active_backend_name() == "reference"
        with using_backend("numpy-compiled"):
            assert active_backend_name() == "numpy-compiled"
        assert active_backend_name() == "reference"
    assert active_backend_name() == "numpy-compiled"


def test_unsupported_layer_falls_back_to_reference():
    net = Sequential([Dense(12, 6, rng=np.random.default_rng(5)), Tanh()])
    net.set_training(False)
    with pytest.raises(UnsupportedLayerError):
        compile_network(net, (12,))
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


def test_plan_keeps_the_weights_it_was_compiled_with():
    rng = np.random.default_rng(8)
    conv = Conv2D(1, 2, 3, stride=2, padding=1, rng=rng)
    dense = Dense(2 * 8 * 8, 5, rng=rng)
    model = _served(Sequential([conv, ReLU(), Flatten(), dense]))
    x = _images(3)
    compiled = model.predict_logits(x)
    # In-place weight surgery: a plan that aliased the parameters (the
    # conv's flat kernel is a reshape view of its weight) would see it.
    conv.weight.value *= np.float32(-1.0)
    dense.weight.value *= np.float32(2.0)
    np.testing.assert_array_equal(model.predict_logits(x), compiled)
    model.invalidate_plans()
    recompiled = model.predict_logits(x)
    assert not np.allclose(recompiled, compiled, atol=ATOL, rtol=0)
    with using_backend("reference"):
        np.testing.assert_allclose(recompiled, model.predict_logits(x),
                                   atol=ATOL, rtol=0)


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
