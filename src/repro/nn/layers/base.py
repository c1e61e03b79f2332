"""Core abstractions of the neural-network substrate.

The substrate is a classic layer-based framework: each :class:`Layer` owns
its :class:`Parameter` objects and implements an explicit ``forward`` /
``backward`` pair.  There is no tape-based autograd — backward passes are
hand-derived, which keeps the numpy implementation transparent and fast and
lets the test suite verify every layer against numerical gradients
(``tests/gradcheck.py``).

Conventions
-----------
* Image tensors are NCHW ``(batch, channels, height, width)`` float32.
* Sequence tensors are ``(batch, time, features)`` float32.
* ``forward`` caches whatever the matching ``backward`` needs; calling
  ``backward`` before ``forward`` raises :class:`ReproError`.
* ``backward`` accumulates into ``Parameter.grad`` (callers zero grads via
  the optimizer) and returns the gradient w.r.t. the layer input.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import ReproError


class Parameter:
    """A trainable array together with its accumulated gradient.

    Attributes:
        value: the parameter tensor (float32).
        grad: gradient accumulated since the last ``zero_grad``.
        name: dotted path used for serialization and debugging.
        trainable: frozen parameters are skipped by optimizers; gradients
            are still computed so gradient checking works uniformly.
    """

    def __init__(self, value: np.ndarray, name: str = "param",
                 trainable: bool = True) -> None:
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros_like(self.value)
        self.name = name
        self.trainable = trainable

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero in place."""
        self.grad.fill(0.0)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class for all layers.

    Subclasses implement :meth:`forward` and :meth:`backward` and register
    parameters by assigning :class:`Parameter` instances as attributes.
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__
        self.training = True

    # -- computation ------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the layer on a batch and cache state for backward."""
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Propagate ``grad`` (dL/d output) back; return dL/d input."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- parameter traversal ----------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield this layer's parameters, then recurse into sub-layers.

        Order is deterministic (attribute insertion order), which the
        serialization module relies on.
        """
        for attr in vars(self).values():
            if isinstance(attr, Parameter):
                yield attr
        for child in self.children():
            yield from child.parameters()

    def children(self) -> Iterator["Layer"]:
        """Yield direct sub-layers in deterministic order."""
        for attr in vars(self).values():
            if isinstance(attr, Layer):
                yield attr
            elif isinstance(attr, (list, tuple)):
                for item in attr:
                    if isinstance(item, Layer):
                        yield item

    def set_training(self, training: bool) -> None:
        """Switch train/eval behaviour (dropout, batch-norm) recursively."""
        self.training = training
        for child in self.children():
            child.set_training(training)

    def num_parameters(self) -> int:
        """Total number of scalar parameters in this layer tree."""
        return sum(int(np.prod(p.shape)) for p in self.parameters())

    # -- helpers -----------------------------------------------------------
    def _require_cache(self, cache: object, what: str = "input"):
        """Raise a clear error if backward is called before forward."""
        if cache is None:
            raise ReproError(
                f"{self.name}: backward called before forward ({what} cache empty)"
            )
        return cache

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def as_float32(x: np.ndarray) -> np.ndarray:
    """View/convert an input batch as float32 without copying when possible."""
    return np.ascontiguousarray(x, dtype=np.float32)


def assert_float32(x: np.ndarray, where: str = "tensor") -> np.ndarray:
    """Debug guard against silent float64 upcasts on the forward path.

    Python-scalar arithmetic and default-dtype numpy constructors upcast
    float32 arrays to float64, which doubles memory traffic and silently
    halves GEMM throughput.  Sprinkle this around suspect code during
    development; it returns its input so it can wrap expressions inline.
    """
    if x.dtype != np.float32:
        raise ReproError(f"{where}: expected float32, got {x.dtype}")
    return x
