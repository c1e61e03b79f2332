"""Inference-time runtime support: sampled per-layer profiling."""

from repro.nn.runtime.profiling import (
    layer_profiling_interval,
    profiled_layers,
    set_layer_profiling,
)

__all__ = [
    "layer_profiling_interval", "profiled_layers", "set_layer_profiling",
]
