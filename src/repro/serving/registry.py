"""Serving model registry: lazy loading, privacy routing, hot swap.

The analytics engine ships several server-side models — the full-fidelity
ensemble plus one distilled dCNN variant per distortion level (paper
§4.3).  The registry is the serving-time map from a session's
privacy/distortion level to the variant that should classify it, with
three operational properties:

* **lazy warm cache** — variants load from the model store on first use
  and stay resident (a cold load mid-drive is paid once per process);
* **ladder routing** — a session at a distortion rung with no dedicated
  variant falls back down the PR-1 escalation ladder
  (:data:`~repro.streaming.runtime.PRIVACY_LADDER`) to the nearest
  less-distorted variant, and finally to the default model;
* **hot swap** — a newly trained model replaces a name atomically;
  requests already dispatched keep the object they were handed, so
  nothing in flight is dropped.

Thread safety: the registry is read on every dispatch and written by
hot-swap/OTA paths on other threads, so every check-then-act sequence
(lazy load in :meth:`~ServingModelRegistry.get`, the model/generation
pair in :meth:`~ServingModelRegistry.swap`) runs under one re-entrant
lock — two racing threads can neither double-invoke a loader nor
observe a new model with a stale generation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import ConfigurationError, ServingError
from repro.streaming.runtime import PRIVACY_LADDER


@dataclass
class ModelRecord:
    """One registered variant."""

    name: str
    model: Any = None
    loader: Callable[[], Any] | None = None
    generation: int = 1
    loads: int = 0
    hits: int = 0

    @property
    def loaded(self) -> bool:
        return self.model is not None


class ServingModelRegistry:
    """Named model variants with privacy-level routing.

    Args:
        default: name of the variant used when no route matches; defaults
            to the first registered variant.
    """

    def __init__(self, *, default: str | None = None) -> None:
        self._records: dict[str, ModelRecord] = {}
        self._routes: dict[str | None, str] = {}
        self._default = default
        self._lock = threading.RLock()
        self.swaps = 0

    # -- registration ----------------------------------------------------
    def register(self, name: str, model: Any = None, *,
                 loader: Callable[[], Any] | None = None) -> None:
        """Bind ``name`` to a live model or a lazy loader (exactly one)."""
        if (model is None) == (loader is None):
            raise ConfigurationError(
                "register() needs exactly one of model= or loader=")
        with self._lock:
            if name in self._records:
                raise ConfigurationError(
                    f"variant {name!r} already registered; use swap()")
            self._records[name] = ModelRecord(name=name, model=model,
                                              loader=loader)
            if self._default is None:
                self._default = name

    def register_store(self, name: str, directory: str) -> None:
        """Register a lazily loaded ensemble saved by the model store."""
        from repro.core.model_store import load_ensemble

        self.register(name, loader=lambda: load_ensemble(directory))

    @property
    def names(self) -> list[str]:
        """Registered variant names."""
        return list(self._records)

    @property
    def default(self) -> str | None:
        """The fallback variant name."""
        return self._default

    # -- resolution ------------------------------------------------------
    def get(self, name: str) -> Any:
        """The live model for ``name``, loading (and caching) if needed.

        The lazy load runs under the registry lock: concurrent first
        requests for a cold variant invoke the loader exactly once and
        every caller gets the one cached object.
        """
        with self._lock:
            record = self._records.get(name)
            if record is None:
                raise ServingError(f"no model variant named {name!r}")
            if record.model is None:
                record.model = record.loader()
                record.loads += 1
                if record.model is None:
                    raise ServingError(
                        f"loader for {name!r} returned None")
            record.hits += 1
            return record.model

    def record(self, name: str) -> ModelRecord:
        """The registry record for ``name`` (stats, generation)."""
        with self._lock:
            if name not in self._records:
                raise ServingError(f"no model variant named {name!r}")
            return self._records[name]

    def warm(self, *names: str) -> None:
        """Force-load variants ahead of traffic (cold-start avoidance)."""
        for name in names or tuple(self._records):
            self.get(name)

    # -- hot swap --------------------------------------------------------
    def swap(self, name: str, model: Any) -> int:
        """Atomically replace ``name`` with a newly trained model.

        Returns the new generation number.  Batches already dispatched
        hold a reference to the previous object and complete on it;
        queued requests resolve the name at dispatch time and get the new
        model — no request is dropped either way.
        """
        if model is None:
            raise ConfigurationError("cannot swap in a None model")
        with self._lock:
            record = self._records.get(name)
            if record is None:
                raise ServingError(f"no model variant named {name!r}")
            record.model = model
            record.loader = None
            record.generation += 1
            self.swaps += 1
            return record.generation

    # -- privacy routing -------------------------------------------------
    def bind(self, level: str | None, name: str) -> None:
        """Route sessions at distortion ``level`` to variant ``name``."""
        if level not in PRIVACY_LADDER:
            raise ConfigurationError(
                f"unknown privacy level {level!r}; ladder is "
                f"{PRIVACY_LADDER}")
        with self._lock:
            if name not in self._records:
                raise ServingError(f"no model variant named {name!r}")
            self._routes[level] = name

    def route(self, level: str | None) -> str:
        """Variant name serving sessions at distortion ``level``.

        Exact route first; otherwise walk the escalation ladder back
        toward the undistorted rung (a less-distorted model still
        understands a more-distorted session's upsampled frames better
        than nothing); finally the default variant.
        """
        if level not in PRIVACY_LADDER:
            raise ConfigurationError(
                f"unknown privacy level {level!r}; ladder is "
                f"{PRIVACY_LADDER}")
        rung = PRIVACY_LADDER.index(level)
        with self._lock:
            for index in range(rung, -1, -1):
                name = self._routes.get(PRIVACY_LADDER[index])
                if name is not None:
                    return name
            if self._default is None:
                raise ServingError("registry has no variants registered")
            return self._default


def as_registry(model) -> ServingModelRegistry:
    """``model`` itself when it is a registry, else a one-variant
    registry serving it as ``"base"``."""
    if isinstance(model, ServingModelRegistry):
        return model
    registry = ServingModelRegistry()
    registry.register("base", model)
    return registry
