"""Bidirectional wrapper around :class:`~repro.nn.recurrent.lstm.LSTM`."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.layers.base import Layer, as_float32
from repro.nn.recurrent.lstm import LSTM


class BidirectionalLSTM(Layer):
    """Forward and backward LSTMs over the same input, outputs concatenated.

    This is the building block of DarNet's IMU network: "each LSTM cell
    propagating its output forward and backward through time" (paper §4.2).
    Output feature size is ``2 * hidden_size``.

    Args:
        input_size: per-timestep feature dimension.
        hidden_size: hidden units per direction.
        return_sequences: emit the full ``(batch, time, 2*hidden)`` sequence
            (True for stacking) or the concatenated final states.
        rng: generator for initialization.
    """

    def __init__(self, input_size: int, hidden_size: int, *,
                 return_sequences: bool = False,
                 rng: np.random.Generator | None = None,
                 name: str | None = None) -> None:
        super().__init__(name)
        rng = rng or np.random.default_rng()
        self.hidden_size = int(hidden_size)
        self.return_sequences = bool(return_sequences)
        self.forward_lstm = LSTM(
            input_size, hidden_size, return_sequences=return_sequences,
            reverse=False, rng=rng, name=f"{self.name}.fwd",
        )
        self.backward_lstm = LSTM(
            input_size, hidden_size, return_sequences=return_sequences,
            reverse=True, rng=rng, name=f"{self.name}.bwd",
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Validate and convert once; both directions then take the
        # already-checked array (LSTM.forward would re-run as_float32 and
        # the shape check per direction on the exact same batch).
        x = as_float32(x)
        expected = self.forward_lstm.input_size
        if x.ndim != 3 or x.shape[2] != expected:
            raise ShapeError(
                f"{self.name}: expected (batch, time, {expected}), "
                f"got {x.shape}"
            )
        fwd = self.forward_lstm._forward(x)
        bwd = self.backward_lstm._forward(x)
        return np.concatenate([fwd, bwd], axis=-1)

    def stacked_weights(self) -> tuple[np.ndarray, np.ndarray, dict]:
        """Both directions' kernels packed for one stacked-GEMM plan.

        Returns ``(w_x_cat, bias_cat, {"w_h_stack": ...})`` — the input
        kernels column-concatenated to ``(input, 8h)`` so one GEMM covers
        both directions' input projections, the biases concatenated to
        ``(8h,)``, and the recurrent kernels stacked to ``(2, h, 4h)``
        for a batched per-timestep gate matmul.  Used by the graph
        compiler (:mod:`repro.nn.compile`); arrays are copies (a weight
        snapshot).
        """
        fwd, bwd = self.forward_lstm, self.backward_lstm
        w_x_cat = np.concatenate([fwd.w_x.value, bwd.w_x.value], axis=1)
        w_h_stack = np.stack([fwd.w_h.value, bwd.w_h.value], axis=0)
        bias_cat = np.concatenate([fwd.bias.value, bwd.bias.value])
        return w_x_cat, bias_cat, {"w_h_stack": w_h_stack}

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = as_float32(grad)
        h = self.hidden_size
        d_fwd = self.forward_lstm.backward(grad[..., :h])
        d_bwd = self.backward_lstm.backward(grad[..., h:])
        return d_fwd + d_bwd

    def children(self) -> Iterator[Layer]:
        yield self.forward_lstm
        yield self.backward_lstm
