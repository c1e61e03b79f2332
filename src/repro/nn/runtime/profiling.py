"""Sampled per-layer forward timing.

Timing every layer of every forward pass would tax the serving hot
path, so profiling is a *sampling* switch: enabled with a period ``N``,
every Nth compiled-plan run (or reference :class:`~.sequential.
Sequential` forward) is timed op by op and the durations land in the
process registry as ``nn_layer_forward_seconds{layer=...}`` histograms,
attributed to the source layer names.  Disabled (the default), the cost
is one integer check per forward.

The switch is process-global: the forward pass is single-threaded per
plan.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.exceptions import ConfigurationError
from repro.obs.metrics import Histogram, get_registry

_EVERY = 0        # 0 = disabled
_CALLS = 0        # container forwards seen since the switch was set


def set_layer_profiling(every: int) -> None:
    """Sample every ``every``-th container forward; 0 disables."""
    global _EVERY, _CALLS
    if every < 0:
        raise ConfigurationError(f"sampling period must be >= 0, got {every}")
    _EVERY = int(every)
    _CALLS = 0


def layer_profiling_interval() -> int:
    """The active sampling period (0 when profiling is off)."""
    return _EVERY


def should_sample() -> bool:
    """Whether the current container forward is a profiling sample."""
    global _CALLS
    if not _EVERY:
        return False
    _CALLS += 1
    return _CALLS % _EVERY == 0


@contextmanager
def profiled_layers(every: int = 1):
    """Enable layer profiling for a block, restoring the prior setting."""
    saved = _EVERY
    set_layer_profiling(every)
    try:
        yield
    finally:
        set_layer_profiling(saved)


def layer_timer(layer_name: str) -> Histogram:
    """The registry histogram one layer's forward samples land in."""
    return get_registry().histogram(
        "nn_layer_forward_seconds",
        "Sampled per-layer forward wall-clock time", layer=layer_name)
