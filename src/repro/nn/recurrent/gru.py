"""Gated recurrent unit (Cho et al., 2014) with full BPTT.

Provided as the natural architecture ablation against the paper's LSTM
choice (§4.2 argues for LSTMs over SVMs; GRU vs. LSTM is the remaining
recurrent design question).  Interface-compatible with
:class:`~repro.nn.recurrent.lstm.LSTM` so it drops into the same stacks.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.initializers import get_initializer
from repro.nn.layers.base import Layer, Parameter, as_float32


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


class GRU(Layer):
    """Unidirectional GRU over ``(batch, time, features)`` input.

    Gate order in the fused kernels is ``[update(z), reset(r)]`` with a
    separate candidate kernel, matching the standard formulation:

        z_t = sigmoid(x_t Wz + h_{t-1} Uz + bz)
        r_t = sigmoid(x_t Wr + h_{t-1} Ur + br)
        c_t = tanh(x_t Wc + (r_t * h_{t-1}) Uc + bc)
        h_t = (1 - z_t) * h_{t-1} + z_t * c_t
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
        self.w_gates = Parameter(w_init((input_size, 2 * h), rng),
                                 name=f"{self.name}.w_gates")
        rec = np.concatenate([r_init((h, h), rng) for _ in range(2)], axis=1)
        self.u_gates = Parameter(rec, name=f"{self.name}.u_gates")
        self.b_gates = Parameter(np.zeros(2 * h, dtype=np.float32),
                                 name=f"{self.name}.b_gates")
        self.w_cand = Parameter(w_init((input_size, h), rng),
                                name=f"{self.name}.w_cand")
        self.u_cand = Parameter(r_init((h, h), rng),
                                name=f"{self.name}.u_cand")
        self.b_cand = Parameter(np.zeros(h, dtype=np.float32),
                                name=f"{self.name}.b_cand")
        self._cache: dict | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = as_float32(x)
        if x.ndim != 3 or x.shape[2] != self.input_size:
            raise ShapeError(
                f"{self.name}: expected (batch, time, {self.input_size}), "
                f"got {x.shape}"
            )
        if self.reverse:
            x = x[:, ::-1, :]
        n, t, _ = x.shape
        h = self.hidden_size
        x_gates = (x.reshape(n * t, -1) @ self.w_gates.value
                   + self.b_gates.value).reshape(n, t, 2 * h)
        x_cand = (x.reshape(n * t, -1) @ self.w_cand.value
                  + self.b_cand.value).reshape(n, t, h)
        h_prev = np.zeros((n, h), dtype=np.float32)
        zs = np.empty((t, n, h), dtype=np.float32)
        rs = np.empty((t, n, h), dtype=np.float32)
        cs = np.empty((t, n, h), dtype=np.float32)
        h_in = np.empty((t, n, h), dtype=np.float32)
        hiddens = np.empty((t, n, h), dtype=np.float32)
        for step in range(t):
            h_in[step] = h_prev
            gates = x_gates[:, step, :] + h_prev @ self.u_gates.value
            z = _sigmoid(gates[:, :h])
            r = _sigmoid(gates[:, h:])
            cand = np.tanh(x_cand[:, step, :]
                           + (r * h_prev) @ self.u_cand.value)
            h_prev = (1.0 - z) * h_prev + z * cand
            zs[step], rs[step], cs[step] = z, r, cand
            hiddens[step] = h_prev
        self._cache = {"x": x, "h_in": h_in, "z": zs, "r": rs, "c": cs,
                       "hiddens": hiddens}
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
        d_xgates = np.empty((t, n, 2 * h), dtype=np.float32)
        d_xcand = np.empty((t, n, h), dtype=np.float32)
        dh_next = np.zeros((n, h), dtype=np.float32)
        u_gates_t = self.u_gates.value.T
        u_cand_t = self.u_cand.value.T
        for step in range(t - 1, -1, -1):
            dh = dh_seq[step] + dh_next
            z, r, cand = cache["z"][step], cache["r"][step], cache["c"][step]
            h_prev = cache["h_in"][step]
            d_cand = dh * z * (1.0 - cand * cand)
            d_z = dh * (cand - h_prev) * z * (1.0 - z)
            d_rh = d_cand @ u_cand_t          # grad w.r.t. (r * h_prev)
            d_r = d_rh * h_prev * r * (1.0 - r)
            d_gates = np.concatenate([d_z, d_r], axis=1)
            d_xgates[step] = d_gates
            d_xcand[step] = d_cand
            dh_next = (dh * (1.0 - z) + d_rh * r + d_gates @ u_gates_t)
        flat_dg = d_xgates.transpose(1, 0, 2).reshape(n * t, 2 * h)
        flat_dc = d_xcand.transpose(1, 0, 2).reshape(n * t, h)
        flat_x = x.reshape(n * t, self.input_size)
        flat_hin = cache["h_in"].transpose(1, 0, 2).reshape(n * t, h)
        rh = (cache["r"] * cache["h_in"]).transpose(1, 0, 2).reshape(n * t, h)
        self.w_gates.grad += flat_x.T @ flat_dg
        self.u_gates.grad += flat_hin.T @ flat_dg
        self.b_gates.grad += flat_dg.sum(axis=0)
        self.w_cand.grad += flat_x.T @ flat_dc
        self.u_cand.grad += rh.T @ flat_dc
        self.b_cand.grad += flat_dc.sum(axis=0)
        dx = (flat_dg @ self.w_gates.value.T
              + flat_dc @ self.w_cand.value.T).reshape(n, t, self.input_size)
        if self.reverse:
            dx = dx[:, ::-1, :]
        return np.ascontiguousarray(dx)
