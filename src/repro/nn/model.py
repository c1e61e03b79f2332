"""High-level training wrapper around a layer graph.

:class:`NeuralNetwork` couples a network (any :class:`Layer`, typically a
:class:`~repro.nn.layers.sequential.Sequential`) with a loss and optimizer
and provides the usual fit / predict / evaluate surface plus training
history, early stopping, gradient clipping, and LR scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from repro.nn.layers.activations import softmax
from repro.nn.layers.base import Layer
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.optimizers import LearningRateSchedule, Optimizer


@dataclass
class TrainingHistory:
    """Per-epoch training curves."""

    loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.loss)


def iterate_minibatches(n: int, batch_size: int,
                        rng: np.random.Generator | None = None):
    """Yield index arrays covering ``range(n)`` in (optionally shuffled) batches."""
    order = np.arange(n)
    if rng is not None:
        rng.shuffle(order)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


class NeuralNetwork:
    """A network + loss + optimizer bundle with a standard training loop.

    Args:
        network: the layer graph.
        loss: training objective (defaults to softmax cross-entropy).
        optimizer_factory: called with the parameter list to build the
            optimizer, e.g. ``lambda p: Adam(p, 1e-3)``.  Deferred so the
            same spec can rebuild after weight surgery (fine-tuning).
        grad_clip: optional global-norm gradient clip (LSTMs need this).
    """

    def __init__(self, network: Layer, *, loss: Loss | None = None,
                 optimizer_factory: Callable[[list], Optimizer] | None = None,
                 grad_clip: float | None = None) -> None:
        self.network = network
        self.loss = loss or SoftmaxCrossEntropy()
        if optimizer_factory is None:
            raise ConfigurationError("optimizer_factory is required")
        self.optimizer = optimizer_factory(list(network.parameters()))
        self.grad_clip = grad_clip
        self.history = TrainingHistory()
        self._fitted = False
        # Compiled execution plans, keyed by (backend name, input shape).
        # A None value caches a miss (the reference backend, or an
        # unsupported layer) so the walk runs once per shape, not once
        # per batch.
        self._plans: dict = {}

    # -- training -----------------------------------------------------------
    def fit(self, x: np.ndarray, y: np.ndarray, *, epochs: int = 10,
            batch_size: int = 32, rng: np.random.Generator | None = None,
            validation: tuple[np.ndarray, np.ndarray] | None = None,
            lr_schedule: LearningRateSchedule | None = None,
            early_stopping_patience: int | None = None,
            verbose: bool = False,
            target_transform: Callable[[np.ndarray], np.ndarray] | None = None,
            ) -> TrainingHistory:
        """Train for ``epochs`` passes over ``(x, y)``.

        ``target_transform`` maps raw targets to loss targets per batch
        (used by distillation, where targets are teacher outputs and the
        loss is MSE — in that case accuracy tracking is skipped).
        """
        x = np.asarray(x, dtype=np.float32)
        if x.shape[0] != np.asarray(y).shape[0]:
            raise ShapeError(
                f"x has {x.shape[0]} samples but y has {np.asarray(y).shape[0]}"
            )
        rng = rng or np.random.default_rng()
        classification = isinstance(self.loss, SoftmaxCrossEntropy)
        best_val = np.inf
        patience_left = early_stopping_patience
        for epoch in range(epochs):
            # Optimizer steps mutate weights in place; any plan compiled
            # during last epoch's validation pass is stale by now.
            self.invalidate_plans()
            self.network.set_training(True)
            epoch_loss = 0.0
            correct = 0
            seen = 0
            for batch in iterate_minibatches(x.shape[0], batch_size, rng):
                xb = x[batch]
                yb = np.asarray(y)[batch]
                if target_transform is not None:
                    yb = target_transform(yb)
                out = self.network.forward(xb)
                batch_loss = self.loss.forward(out, yb)
                self.optimizer.zero_grad()
                self.network.backward(self.loss.backward())
                if self.grad_clip is not None:
                    self.optimizer.clip_gradients(self.grad_clip)
                self.optimizer.step()
                epoch_loss += batch_loss * len(batch)
                seen += len(batch)
                if classification:
                    correct += int(np.sum(out.argmax(axis=1) == yb))
            self.history.loss.append(epoch_loss / max(seen, 1))
            self.history.learning_rate.append(self.optimizer.learning_rate)
            if classification:
                self.history.train_accuracy.append(correct / max(seen, 1))
            if validation is not None:
                val_loss, val_acc = self._validate(*validation)
                self.history.val_loss.append(val_loss)
                if val_acc is not None:
                    self.history.val_accuracy.append(val_acc)
                if early_stopping_patience is not None:
                    if val_loss < best_val - 1e-6:
                        best_val = val_loss
                        patience_left = early_stopping_patience
                    else:
                        patience_left -= 1
                        if patience_left <= 0:
                            break
            if lr_schedule is not None:
                lr_schedule.on_epoch_end()
            if verbose:
                msg = (f"epoch {epoch + 1}/{epochs} "
                       f"loss={self.history.loss[-1]:.4f}")
                if classification:
                    msg += f" acc={self.history.train_accuracy[-1]:.4f}"
                if validation is not None:
                    msg += f" val_loss={self.history.val_loss[-1]:.4f}"
                print(msg)
        self._fitted = True
        self.network.set_training(False)
        self.invalidate_plans()
        return self.history

    def _validate(self, x_val: np.ndarray, y_val: np.ndarray
                  ) -> tuple[float, float | None]:
        self.network.set_training(False)
        out = self.forward_in_batches(x_val)
        val_loss = self.loss.forward(out, y_val)
        val_acc = None
        if isinstance(self.loss, SoftmaxCrossEntropy):
            val_acc = accuracy(np.asarray(y_val), out.argmax(axis=1))
        return val_loss, val_acc

    # -- inference ----------------------------------------------------------
    def forward_in_batches(self, x: np.ndarray,
                           batch_size: int = 128) -> np.ndarray:
        """Run inference in memory-bounded batches, eval mode.

        The active backend's compiled plan runs every chunk (full chunks
        and a ragged tail share its one arena); the reference layer
        forward runs instead under the ``reference`` backend or when the
        model has a layer without a compiled lowering.
        """
        x = np.asarray(x, dtype=np.float32)
        self.network.set_training(False)
        plan = self._compiled_plan(x.shape[1:])
        run = self.network.forward if plan is None else plan.run
        chunks = [run(np.ascontiguousarray(x[start:start + batch_size]))
                  for start in range(0, x.shape[0], batch_size)]
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks, axis=0)

    def _compiled_plan(self, input_shape: tuple[int, ...]):
        """The active backend's plan for this input shape, or None."""
        from repro.nn.compile.backends import active_backend
        backend = active_backend()
        key = (backend.name, tuple(input_shape))
        if key not in self._plans:
            self._plans[key] = backend.compile_model(self.network,
                                                     input_shape)
        return self._plans[key]

    def invalidate_plans(self) -> None:
        """Drop compiled plans after in-place weight mutation.

        Plans snapshot weights at compile time; callers that update
        parameters outside :meth:`fit` (weight surgery, manual loading)
        must invalidate before the next inference call.
        """
        self._plans.clear()

    def __getstate__(self) -> dict:
        # Plans hold weight snapshots and bound arenas — recompiled
        # lazily after unpickling (e.g. in forked executor workers).
        state = self.__dict__.copy()
        state["_plans"] = {}
        return state

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Raw network outputs (pre-softmax)."""
        self._check_fitted()
        return self.forward_in_batches(x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities via softmax over logits."""
        return softmax(self.predict_logits(x), axis=1)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return self.predict_logits(x).argmax(axis=1)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Top-1 accuracy on a labelled set."""
        return accuracy(np.asarray(y), self.predict(x))

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(
                "model has not been trained; call fit() or load weights first"
            )

    def mark_fitted(self) -> None:
        """Declare the model usable (after loading pretrained weights)."""
        self._fitted = True
