"""Pluggable inference backends and the thread-local backend selector.

A backend decides *how* eval-mode batched inference executes:

``numpy-compiled`` (the default)
    Graph-compiled execution plans (:mod:`repro.nn.compile.extract`):
    fused epilogues, one preplanned capacity arena per plan, stacked
    recurrent GEMMs.  Every shipped model lowers completely; a model
    with a layer that has no lowering runs the reference forward.
``numpy-compiled-int8``
    Compiled plans with int8-at-rest GEMM weights — lossy by contract,
    gated on verdict-class agreement (the dCNN privacy ladder already
    trades fidelity for bandwidth, so this extends the same contract).
``reference``
    The plain layer-by-layer forward — the training path run in eval
    mode.  It is the parity oracle compiled plans are tested against
    and the fallback for uncompilable models; it never compiles.

The *active* backend is thread-local with a process-wide default:
serving threads route different models through different backends
concurrently without fighting over a global, and a test or benchmark
thread inside ``using_backend("reference")`` never drops concurrent
serving threads onto the oracle.  New backends register through
:func:`register_backend`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.exceptions import ConfigurationError
from repro.nn.compile.extract import compile_network
from repro.nn.compile.plan import CompiledNetwork, UnsupportedLayerError


class InferenceBackend:
    """One way of executing eval-mode inference."""

    #: Registry key and the ``--backend`` CLI value.
    name = "backend"
    #: Whether compiled plans quantize GEMM weights to int8.
    quantize = False

    def compile_model(self, network, input_shape
                      ) -> CompiledNetwork | None:
        """A compiled plan for ``network``, or None to run the reference
        forward."""
        return None


class ReferenceBackend(InferenceBackend):
    """The plain layer forward: parity oracle and fallback."""

    name = "reference"


class NumpyCompiledBackend(InferenceBackend):
    """Graph-compiled float32 execution plans."""

    name = "numpy-compiled"

    def compile_model(self, network, input_shape
                      ) -> CompiledNetwork | None:
        try:
            return compile_network(network, input_shape,
                                   quantize=self.quantize)
        except UnsupportedLayerError:
            # Uncompilable models fall back to the reference forward;
            # the caller caches the miss so this runs once per shape.
            return None


class NumpyCompiledInt8Backend(NumpyCompiledBackend):
    """Compiled plans with int8-at-rest weights (lossy by contract)."""

    name = "numpy-compiled-int8"
    quantize = True


_REGISTRY: dict[str, InferenceBackend] = {}


def register_backend(backend: InferenceBackend) -> InferenceBackend:
    """Add a backend instance to the registry (name collisions rebind)."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> InferenceBackend:
    """Look up a backend by registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown inference backend {name!r}; "
            f"registered: {sorted(_REGISTRY)}") from None


def backend_names() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


register_backend(ReferenceBackend())
register_backend(NumpyCompiledBackend())
register_backend(NumpyCompiledInt8Backend())

#: The one serving inference path.
DEFAULT_BACKEND = "numpy-compiled"
_DEFAULT = DEFAULT_BACKEND
_LOCAL = threading.local()


def active_backend_name() -> str:
    """This thread's selected backend name (default as fallback)."""
    return getattr(_LOCAL, "name", _DEFAULT)


def active_backend() -> InferenceBackend:
    """This thread's selected backend instance."""
    return get_backend(active_backend_name())


def set_default_backend(name: str) -> None:
    """Set the process-wide default backend (threads without overrides)."""
    global _DEFAULT
    get_backend(name)   # validate eagerly
    _DEFAULT = name


@contextmanager
def using_backend(name: str):
    """Select an inference backend for this thread within the block."""
    get_backend(name)   # validate eagerly
    had_override = hasattr(_LOCAL, "name")
    saved = getattr(_LOCAL, "name", None)
    _LOCAL.name = name
    try:
        yield
    finally:
        if had_override:
            _LOCAL.name = saved
        else:
            del _LOCAL.name


