"""Long short-term memory layer with full backpropagation through time.

Weights follow the fused-gate convention: a single input kernel of shape
``(input_size, 4 * hidden)`` and recurrent kernel ``(hidden, 4 * hidden)``,
gate order ``[input, forget, cell, output]``.  The forget-gate bias is
initialized to 1.0 (Jozefowicz et al., 2015), which materially speeds up
convergence on short IMU windows.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer, Parameter, as_float32


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


class LSTM(Layer):
    """Unidirectional LSTM over ``(batch, time, features)`` input.

    Args:
        input_size: per-timestep feature dimension.
        hidden_size: number of hidden units.
        return_sequences: if True output is ``(batch, time, hidden)``;
            otherwise the final hidden state ``(batch, hidden)``.
        reverse: process the sequence back-to-front (used by the
            bidirectional wrapper).  With ``return_sequences`` the output is
            re-reversed so index t always corresponds to input step t.
        weight_init: initializer for the input kernel.
        recurrent_init: initializer for the recurrent kernel.
        rng: generator for initialization.
    """

    def __init__(self, input_size: int, hidden_size: int, *,
                 return_sequences: bool = False, reverse: bool = False,
                 weight_init: str = "glorot_uniform",
                 recurrent_init: str = "orthogonal",
                 rng: np.random.Generator | None = None,
                 name: str | None = None) -> None:
        super().__init__(name)
        rng = rng or np.random.default_rng()
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        self.return_sequences = bool(return_sequences)
        self.reverse = bool(reverse)
        w_init = get_initializer(weight_init)
        r_init = get_initializer(recurrent_init)
        h = self.hidden_size
        self.w_x = Parameter(w_init((input_size, 4 * h), rng),
                             name=f"{self.name}.w_x")
        # Orthogonal per-gate blocks keep recurrent dynamics well-conditioned.
        rec = np.concatenate([r_init((h, h), rng) for _ in range(4)], axis=1)
        self.w_h = Parameter(rec, name=f"{self.name}.w_h")
        bias = np.zeros(4 * h, dtype=np.float32)
        bias[h:2 * h] = 1.0  # forget-gate bias
        self.bias = Parameter(bias, name=f"{self.name}.bias")
        self._cache: dict | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float32(x)
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(
                f"{self.name}: expected (batch, time, {self.input_size}), "
                f"got {x.shape}"
            )
        return self._forward(x)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """Forward on an already-validated, contiguous float32 batch.

        The bidirectional wrapper validates and converts once and calls
        this for both directions, skipping a redundant ``as_float32``
        pass per direction.
        """
        if self.reverse:
            x = x[:, ::-1, :]
        n, t, _ = x.shape
        h = self.hidden_size
        # Precompute all input projections in one GEMM.
        x_proj = x.reshape(n * t, -1) @ self.w_x.value + self.bias.value
        x_proj = x_proj.reshape(n, t, 4 * h)
        h_prev = np.zeros((n, h), dtype=np.float32)
        c_prev = np.zeros((n, h), dtype=np.float32)
        gates_i = np.empty((t, n, h), dtype=np.float32)
        gates_f = np.empty((t, n, h), dtype=np.float32)
        gates_g = np.empty((t, n, h), dtype=np.float32)
        gates_o = np.empty((t, n, h), dtype=np.float32)
        cells = np.empty((t, n, h), dtype=np.float32)
        tanh_c = np.empty((t, n, h), dtype=np.float32)
        hiddens = np.empty((t, n, h), dtype=np.float32)
        h_in = np.empty((t, n, h), dtype=np.float32)
        c_in = np.empty((t, n, h), dtype=np.float32)
        for step in range(t):
            h_in[step] = h_prev
            c_in[step] = c_prev
            z = x_proj[:, step, :] + h_prev @ self.w_h.value
            i_g = _sigmoid(z[:, 0 * h:1 * h])
            f_g = _sigmoid(z[:, 1 * h:2 * h])
            g_g = np.tanh(z[:, 2 * h:3 * h])
            o_g = _sigmoid(z[:, 3 * h:4 * h])
            c_prev = f_g * c_prev + i_g * g_g
            tc = np.tanh(c_prev)
            h_prev = o_g * tc
            gates_i[step], gates_f[step] = i_g, f_g
            gates_g[step], gates_o[step] = g_g, o_g
            cells[step], tanh_c[step], hiddens[step] = c_prev, tc, h_prev
        self._cache = {
            "x": x, "h_in": h_in, "c_in": c_in,
            "i": gates_i, "f": gates_f, "g": gates_g, "o": gates_o,
            "tanh_c": tanh_c, "hiddens": hiddens,
        }
        if self.return_sequences:
            out = hiddens.transpose(1, 0, 2)
            if self.reverse:
                out = out[:, ::-1, :]
            return np.ascontiguousarray(out)
        return hiddens[-1].copy()

    def backward(self, grad: np.ndarray) -> np.ndarray:
        cache = self._require_cache(self._cache)
        x = cache["x"]
        n, t, _ = x.shape
        h = self.hidden_size
        grad = as_float32(grad)
        if self.return_sequences:
            if self.reverse:
                grad = grad[:, ::-1, :]
            dh_seq = np.ascontiguousarray(grad.transpose(1, 0, 2))
        else:
            dh_seq = np.zeros((t, n, h), dtype=np.float32)
            dh_seq[-1] = grad
        dz_all = np.empty((t, n, 4 * h), dtype=np.float32)
        dh_next = np.zeros((n, h), dtype=np.float32)
        dc_next = np.zeros((n, h), dtype=np.float32)
        w_h_t = self.w_h.value.T
        for step in range(t - 1, -1, -1):
            dh = dh_seq[step] + dh_next
            i_g, f_g = cache["i"][step], cache["f"][step]
            g_g, o_g = cache["g"][step], cache["o"][step]
            tc = cache["tanh_c"][step]
            dc = dh * o_g * (1.0 - tc * tc) + dc_next
            d_i = dc * g_g * i_g * (1.0 - i_g)
            d_f = dc * cache["c_in"][step] * f_g * (1.0 - f_g)
            d_g = dc * i_g * (1.0 - g_g * g_g)
            d_o = dh * tc * o_g * (1.0 - o_g)
            dz = np.concatenate([d_i, d_f, d_g, d_o], axis=1)
            dz_all[step] = dz
            dh_next = dz @ w_h_t
            dc_next = dc * f_g
        # Accumulate weight gradients with batched GEMMs.
        flat_dz = dz_all.transpose(1, 0, 2).reshape(n * t, 4 * h)
        flat_x = x.reshape(n * t, self.input_size)
        self.w_x.grad += flat_x.T @ flat_dz
        flat_hin = cache["h_in"].transpose(1, 0, 2).reshape(n * t, h)
        self.w_h.grad += flat_hin.T @ flat_dz
        self.bias.grad += flat_dz.sum(axis=0)
        dx = (flat_dz @ self.w_x.value.T).reshape(n, t, self.input_size)
        if self.reverse:
            dx = dx[:, ::-1, :]
        return np.ascontiguousarray(dx)
