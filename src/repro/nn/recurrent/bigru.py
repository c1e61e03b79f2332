"""Bidirectional GRU wrapper — the recurrent-cell ablation counterpart."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.nn.layers.base import Layer, as_float32
from repro.nn.recurrent.gru import GRU


class BidirectionalGRU(Layer):
    """Forward and backward GRUs over the same input, outputs concatenated.

    Drop-in alternative to
    :class:`~repro.nn.recurrent.bidirectional.BidirectionalLSTM`; output
    feature size is ``2 * hidden_size``.
    """

    def __init__(self, input_size: int, hidden_size: int, *,
                 return_sequences: bool = False,
                 rng: np.random.Generator | None = None,
                 name: str | None = None) -> None:
        super().__init__(name)
        rng = rng or np.random.default_rng()
        self.hidden_size = int(hidden_size)
        self.return_sequences = bool(return_sequences)
        self.forward_gru = GRU(input_size, hidden_size,
                               return_sequences=return_sequences,
                               reverse=False, rng=rng,
                               name=f"{self.name}.fwd")
        self.backward_gru = GRU(input_size, hidden_size,
                                return_sequences=return_sequences,
                                reverse=True, rng=rng,
                                name=f"{self.name}.bwd")

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float32(x)
        fwd = self.forward_gru.forward(x)
        bwd = self.backward_gru.forward(x)
        return np.concatenate([fwd, bwd], axis=-1)

    def stacked_weights(self) -> tuple[np.ndarray, np.ndarray, dict]:
        """Both directions' kernels packed for one stacked-GEMM plan.

        Returns ``(w_x_cat, bias_cat, recurrent)``: each direction's
        gate and candidate input kernels column-concatenated to
        ``(input, 6h)`` in ``[z, r, c]`` order per direction, the
        matching ``(6h,)`` bias, and the recurrent kernels stacked over
        directions — ``u_gates_stack`` ``(2, h, 2h)`` and
        ``u_cand_stack`` ``(2, h, h)``.  Copies (a weight snapshot).
        """
        fwd, bwd = self.forward_gru, self.backward_gru
        w_x_cat = np.concatenate([fwd.w_gates.value, fwd.w_cand.value,
                                  bwd.w_gates.value, bwd.w_cand.value],
                                 axis=1)
        bias_cat = np.concatenate([fwd.b_gates.value, fwd.b_cand.value,
                                   bwd.b_gates.value, bwd.b_cand.value])
        return w_x_cat, bias_cat, {
            "u_gates_stack": np.stack([fwd.u_gates.value,
                                       bwd.u_gates.value]),
            "u_cand_stack": np.stack([fwd.u_cand.value, bwd.u_cand.value]),
        }

    def backward(self, grad: np.ndarray) -> np.ndarray:
        grad = as_float32(grad)
        h = self.hidden_size
        d_fwd = self.forward_gru.backward(grad[..., :h])
        d_bwd = self.backward_gru.backward(grad[..., h:])
        return d_fwd + d_bwd

    def children(self) -> Iterator[Layer]:
        yield self.forward_gru
        yield self.backward_gru
