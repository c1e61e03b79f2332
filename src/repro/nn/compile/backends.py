"""The thread-local inference backend switch.

A backend decides *how* eval-mode batched inference executes:

``numpy-compiled`` (the default)
    Graph-compiled execution plans (:mod:`repro.nn.compile.extract`):
    fused epilogues, one preplanned capacity arena per plan, stacked
    recurrent GEMMs.  Every shipped model lowers completely; a model
    with a layer that has no lowering runs the reference forward.
``reference``
    The plain layer-by-layer forward — the training path run in eval
    mode.  It is the parity oracle compiled plans are tested against
    and the fallback for uncompilable models; it never compiles.

The selection is thread-local: a test or benchmark thread inside
``using_backend("reference")`` never drops concurrent serving threads
onto the oracle.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.exceptions import ConfigurationError

#: The one serving inference path.
DEFAULT_BACKEND = "numpy-compiled"
_BACKENDS = (DEFAULT_BACKEND, "reference")
_LOCAL = threading.local()


def backend_names() -> list[str]:
    """The selectable backend names, sorted."""
    return sorted(_BACKENDS)


def active_backend_name() -> str:
    """This thread's selected backend name."""
    return getattr(_LOCAL, "name", DEFAULT_BACKEND)


@contextmanager
def using_backend(name: str):
    """Select an inference backend for this thread within the block."""
    if name not in _BACKENDS:
        raise ConfigurationError(
            f"unknown inference backend {name!r}; "
            f"known: {backend_names()}")
    saved = active_backend_name()
    _LOCAL.name = name
    try:
        yield
    finally:
        _LOCAL.name = saved
