"""Graph-compiled inference: execution plans, fused ops, backends.

See ``DESIGN.md`` §14 for the plan IR, fusion rules, and the
backend switch.
"""

from repro.nn.compile.backends import (
    DEFAULT_BACKEND,
    active_backend_name,
    backend_names,
    using_backend,
)
from repro.nn.compile.extract import compile_network, infer_shape
from repro.nn.compile.plan import CompiledNetwork, UnsupportedLayerError

__all__ = [
    "DEFAULT_BACKEND",
    "CompiledNetwork",
    "UnsupportedLayerError",
    "active_backend_name",
    "backend_names",
    "compile_network",
    "infer_shape",
    "using_backend",
]
