"""Fused op implementations for compiled execution plans.

The float32 arithmetic of every op is pinned: the golden replay
fixtures and the benchmark's verdict digests were recorded from it, so
a change to a GEMM shape, an operand order or an elementwise expression
is a behaviour change, not a refactor.  Against the reference layer
forward, plans agree to float32 rounding (atol 1e-5).  What differs
from the reference is everything around the arithmetic: outputs land
in preplanned arena views instead of fresh allocations, batch-norm +
ReLU run as an in-place epilogue on the GEMM output instead of two
extra array passes, and per-step recurrent views are presliced at bind
time instead of per call.

Convs run in row tiles.  A conv's *tile* is the most batch rows whose
pad and im2col column buffers fit :data:`TILE_BYTES` (at least one row,
at most the batch); each tile runs the pad copy, window copy,
per-sample GEMM and epilogue over its own rows of the NCHW output, so a
row's arithmetic does not depend on the tile or the batch it rides in.
The pad buffer is the conv's pinned tile and the columns live in the
plan's one shared tile (:mod:`repro.nn.compile.plan`), outside the
batch-scaled arena; sharing the column tile between convs is safe
because ops run one at a time and a plan runs one forward at a time.
"""

from __future__ import annotations

import numpy as np

from repro.nn.compile.plan import BindContext, PlanOp, SlotRef

_ZERO = np.float32(0.0)
_ONE = np.float32(1.0)

#: Scratch byte budget of one conv tile.  1 MiB keeps a tile's scratch,
#: its GEMM output and the weights inside one 2 MiB per-core L2.  Conv
#: time of the shipped CNN at 48 rows against the untiled whole-batch
#: conv, medians of 8 alternating runs on a 2-CPU Xeon: 256 KiB 0.83,
#: 512 KiB 0.80, 1 MiB 0.80, 2 MiB 0.85, 4 MiB 0.87.
TILE_BYTES = 1 << 20


def _strided_window_view(src: np.ndarray, kernel: tuple[int, int],
                         stride: tuple[int, int],
                         out_hw: tuple[int, int]) -> np.ndarray:
    """The (n, c, kh, kw, oh, ow) sliding-window view of an NCHW array."""
    n, c = src.shape[:2]
    kh, kw = kernel
    sh, sw = stride
    oh, ow = out_hw
    sn, sc, sh_b, sw_b = src.strides
    return np.lib.stride_tricks.as_strided(
        src,
        shape=(n, c, kh, kw, oh, ow),
        strides=(sn, sc, sh_b, sw_b, sh_b * sh, sw_b * sw),
        writeable=False,
    )


def _view_reshape(array: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reshape that must stay a view (writing to a silent copy is a bug)."""
    out = array.reshape(shape)
    if out.size and not np.shares_memory(out, array):
        raise AssertionError("plan bug: destination reshape copied")
    return out


class _EpilogueMixin:
    """Shared bias / scale-shift / ReLU output-pass fusion."""

    def _init_epilogue(self, bias, scale, shift, relu: bool) -> None:
        self.bias = None if bias is None else np.asarray(bias, np.float32)
        self.scale = None if scale is None else np.asarray(scale, np.float32)
        self.shift = None if shift is None else np.asarray(shift, np.float32)
        self.relu = bool(relu)

    def _bind_epilogue(self, dest: np.ndarray, *, channels_first: bool):
        """An in-place epilogue closure over ``dest`` (None when empty).

        ``channels_first`` reshapes the per-channel factors for NCHW
        output; dense output broadcasts them directly.
        """
        def factor(vec):
            if vec is None:
                return None
            return vec[:, None, None] if channels_first else vec
        bias = factor(self.bias)
        scale, shift = factor(self.scale), factor(self.shift)
        relu = self.relu
        if bias is None and scale is None and not relu:
            return None

        def run() -> None:
            if bias is not None:
                np.add(dest, bias, out=dest)
            if scale is not None:
                np.multiply(dest, scale, out=dest)
                np.add(dest, shift, out=dest)
            if relu:
                np.maximum(dest, _ZERO, out=dest)
        return run


class ConvOp(_EpilogueMixin, PlanOp):
    """im2col conv GEMM with a fused scale-shift-activation epilogue.

    A 1×1 stride-1 unpadded conv is one batched GEMM straight off its
    source; any other conv runs in row tiles of at most :attr:`tile`
    rows (see the module docstring), and a batch that fits one tile
    runs a single closure.
    """

    kind = "conv"

    def __init__(self, *, layer: str, fused: tuple[str, ...],
                 weight: np.ndarray, bias, scale, shift, relu: bool,
                 kernel: tuple[int, int], stride: tuple[int, int],
                 pad: tuple[int, int], in_shape: tuple[int, int, int],
                 out_shape: tuple[int, int, int], in_ref: SlotRef,
                 out_ref: SlotRef,
                 out_channels: tuple[int, int] | None) -> None:
        super().__init__(layer=layer, fused=fused)
        # A plan-owned float32 snapshot, never a view of the parameter:
        # the plan keeps the weights it was compiled with until the
        # model invalidates it.
        self.weight = np.array(weight, dtype=np.float32, order="C")
        self._init_epilogue(bias, scale, shift, relu)
        self.kernel, self.stride, self.pad = kernel, stride, pad
        self.in_shape, self.out_shape = in_shape, out_shape
        self.in_ref, self.out_ref = in_ref, out_ref
        self.out_channels = out_channels
        if (kernel, stride, pad) != ((1, 1), (1, 1), (0, 0)):
            c, h, w = in_shape
            ph, pw = pad
            pad_elements = 0
            if ph or pw:
                self.pinned_row = (c, h + 2 * ph, w + 2 * pw)
                pad_elements = int(np.prod(self.pinned_row))
            self.shared_row = (c * kernel[0] * kernel[1]
                               * out_shape[1] * out_shape[2])
            row_bytes = 4 * (pad_elements + self.shared_row)
            self.tile = max(1, TILE_BYTES // row_bytes)

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.out_ref]

    def bind(self, rt: BindContext):
        n = rt.n
        flat_w = self.weight
        dest4 = rt.dest(self.out_ref, self.out_channels)
        if not self.tile:
            c, h, w = self.in_shape
            oc, oh, ow = self.out_shape
            dest3 = _view_reshape(dest4, (n, oc, oh * ow))
            get_in = rt.reader(self.in_ref)
            epilogue = self._bind_epilogue(dest4, channels_first=True)

            def run() -> None:
                x = get_in()
                np.matmul(flat_w, x.reshape(n, c, h * w), out=dest3)
                if epilogue is not None:
                    epilogue()
            return run

        rows = min(n, self.tile)
        steps = [self._bind_tile(rt, flat_w, dest4, r0, min(n, r0 + rows))
                 for r0 in range(0, n, rows)]
        if len(steps) == 1:
            return steps[0]

        def run() -> None:
            for step in steps:
                step()
        return run

    def _bind_tile(self, rt: BindContext, flat_w: np.ndarray,
                   dest4: np.ndarray, r0: int, r1: int):
        """The im2col closure over batch rows ``[r0, r1)``."""
        k = r1 - r0
        c, h, w = self.in_shape
        oc, oh, ow = self.out_shape
        kh, kw = kernel = self.kernel
        stride = self.stride
        ph, pw = self.pad
        dest = dest4[r0:r1]
        dest3 = _view_reshape(dest, (k, oc, oh * ow))
        epilogue = self._bind_epilogue(dest, channels_first=True)
        cols = rt.shared_tile(k, (c * kh * kw, oh * ow))
        cols6 = cols.reshape(k, c, kh, kw, oh, ow)
        get_in = rt.reader(self.in_ref, (r0, r1))
        interior = window = None
        if ph or pw:
            padbuf = rt.pinned_tile(self)[:k]   # borders stay zero
            interior = padbuf[:, :, ph:ph + h, pw:pw + w]
            window = _strided_window_view(padbuf, kernel, stride, (oh, ow))
        elif self.in_ref.slot != 0:
            # Arena-resident source: the window view is fixed per binding.
            window = _strided_window_view(get_in(), kernel, stride, (oh, ow))

        def run() -> None:
            if interior is not None:
                interior[...] = get_in()
            cols6[...] = (window if window is not None   # else: raw input
                          else _strided_window_view(get_in(), kernel, stride,
                                                    (oh, ow)))
            np.matmul(flat_w, cols, out=dest3)
            if epilogue is not None:
                epilogue()
        return run


class DenseOp(_EpilogueMixin, PlanOp):
    """2-D GEMM with the same fused epilogue as :class:`ConvOp`."""

    kind = "dense"

    def __init__(self, *, layer: str, fused: tuple[str, ...],
                 weight: np.ndarray, bias, scale, shift, relu: bool,
                 in_features: int, out_features: int, in_ref: SlotRef,
                 out_ref: SlotRef,
                 out_channels: tuple[int, int] | None = None) -> None:
        super().__init__(layer=layer, fused=fused)
        self.weight = np.array(weight, dtype=np.float32, order="C")
        self._init_epilogue(bias, scale, shift, relu)
        self.in_features, self.out_features = in_features, out_features
        self.in_ref, self.out_ref = in_ref, out_ref
        self.out_channels = out_channels

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.out_ref]

    def bind(self, rt: BindContext):
        w = self.weight
        dest2 = rt.dest(self.out_ref, self.out_channels)
        get_in = rt.reader(self.in_ref)
        epilogue = self._bind_epilogue(dest2, channels_first=False)

        def run() -> None:
            np.matmul(get_in(), w, out=dest2)
            if epilogue is not None:
                epilogue()
        return run


class _PoolOpBase(PlanOp):
    def __init__(self, *, layer: str, kernel: tuple[int, int],
                 stride: tuple[int, int], pad: tuple[int, int],
                 in_shape: tuple[int, int, int],
                 out_shape: tuple[int, int, int], in_ref: SlotRef,
                 out_ref: SlotRef, out_channels: tuple[int, int] | None,
                 pad_ref: SlotRef | None) -> None:
        super().__init__(layer=layer)
        self.kernel, self.stride, self.pad = kernel, stride, pad
        self.in_shape, self.out_shape = in_shape, out_shape
        self.in_ref, self.out_ref = in_ref, out_ref
        self.out_channels = out_channels
        self.pad_ref = pad_ref

    def slot_refs(self) -> list[SlotRef]:
        refs = [self.in_ref, self.out_ref]
        if self.pad_ref is not None:
            refs.append(self.pad_ref)
        return refs

    def _bind_taps(self, rt: BindContext):
        """(acc, interior_copy_or_None, per-tap source views)."""
        _, h, w = self.in_shape
        _, oh, ow = self.out_shape
        kh, kw = self.kernel
        sh, sw = self.stride
        ph, pw = self.pad
        acc = rt.dest(self.out_ref, self.out_channels)
        get_in = rt.reader(self.in_ref)
        if ph or pw:
            padbuf = rt.view(self.pad_ref)
            interior = padbuf[:, :, ph:ph + h, pw:pw + w]

            def fill() -> None:
                interior[...] = get_in()
            src = padbuf
        elif self.in_ref.slot == 0:
            # Pool directly on the raw network input: stage it into its
            # own padless buffer so the taps stay fixed bind-time views.
            padbuf = rt.view(self.pad_ref)

            def fill() -> None:
                padbuf[...] = get_in()
            src = padbuf
        else:
            fill = None
            src = rt.view(self.in_ref)
        taps = [src[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw]
                for i in range(kh) for j in range(kw)]
        return acc, fill, taps


class MaxPoolOp(_PoolOpBase):
    kind = "maxpool"

    def bind(self, rt: BindContext):
        acc, fill, taps = self._bind_taps(rt)
        first, rest = taps[0], taps[1:]

        def run() -> None:
            if fill is not None:
                fill()
            acc[...] = first
            for tap in rest:
                np.maximum(acc, tap, out=acc)
        return run


class AvgPoolOp(_PoolOpBase):
    kind = "avgpool"

    def __init__(self, *, acc_ref: SlotRef | None = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.acc_ref = acc_ref

    def slot_refs(self) -> list[SlotRef]:
        refs = super().slot_refs()
        if self.acc_ref is not None:
            refs.append(self.acc_ref)
        return refs

    def _bind_flat(self, rt: BindContext):
        """Contiguous-tap kernel for stride-1 pooling, or None.

        At stride 1 over a C-contiguous source buffer, the tap starting
        at kernel offset ``(i, j)`` is the whole flattened buffer shifted
        by ``i * W + j`` elements — the shift is uniform across samples
        and channels because every (sample, channel) plane occupies a
        contiguous block.  Summing those shifted flat views visits each
        output element with the exact operand values and add order of the
        strided-tap loop (positions past each plane's last window start
        accumulate junk that the output view never reads), but every
        ``np.add`` runs over one long contiguous pair instead of
        kernel-width rows, which is several times faster on the small
        feature maps this network pools.
        """
        _, h, w = self.in_shape
        _, oh, ow = self.out_shape
        kh, kw = self.kernel
        ph, pw = self.pad
        get_in = rt.reader(self.in_ref)
        if self.pad_ref is not None:
            padbuf = rt.view(self.pad_ref)
            if ph or pw:
                interior = padbuf[:, :, ph:ph + h, pw:pw + w]

                def fill() -> None:
                    interior[...] = get_in()
            else:
                def fill() -> None:
                    padbuf[...] = get_in()
            src = padbuf
        else:
            fill = None
            src = rt.view(self.in_ref)
        if not src.flags["C_CONTIGUOUS"]:
            return None
        width = src.shape[3]
        flat_src = src.reshape(-1)
        span = flat_src.size - ((kh - 1) * width + (kw - 1))
        taps = [flat_src[i * width + j:i * width + j + span]
                for i in range(kh) for j in range(kw)]
        acc = rt.view(self.acc_ref)
        acc_run = acc.reshape(-1)[:span]
        pooled = acc.reshape(src.shape)[:, :, :oh, :ow]
        return fill, acc_run, taps, pooled

    def bind(self, rt: BindContext):
        kh, kw = self.kernel
        inv = np.float32(1.0 / (kh * kw))
        flat = self._bind_flat(rt) if self.acc_ref is not None else None
        if flat is not None:
            fill, acc_run, taps, pooled = flat
            dest = rt.dest(self.out_ref, self.out_channels)

            def run() -> None:
                if fill is not None:
                    fill()
                acc_run.fill(0.0)
                for tap in taps:
                    np.add(acc_run, tap, out=acc_run)
                np.multiply(pooled, inv, out=dest)
            return run

        acc, fill, taps = self._bind_taps(rt)

        def run() -> None:
            if fill is not None:
                fill()
            acc.fill(0.0)
            for tap in taps:
                np.add(acc, tap, out=acc)
            np.multiply(acc, inv, out=acc)
        return run


class GlobalAvgPoolOp(PlanOp):
    kind = "gap"

    def __init__(self, *, layer: str, in_ref: SlotRef,
                 out_ref: SlotRef) -> None:
        super().__init__(layer=layer)
        self.in_ref, self.out_ref = in_ref, out_ref

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.out_ref]

    def bind(self, rt: BindContext):
        dest = rt.view(self.out_ref)
        get_in = rt.reader(self.in_ref)

        def run() -> None:
            np.mean(get_in(), axis=(2, 3), out=dest)
        return run


class ScaleShiftOp(PlanOp):
    """Standalone eval batch-norm (one not preceded by a GEMM to fuse into)."""

    kind = "scale_shift"

    def __init__(self, *, layer: str, fused: tuple[str, ...], scale, shift,
                 relu: bool, in_ref: SlotRef, out_ref: SlotRef,
                 channels_first: bool) -> None:
        super().__init__(layer=layer, fused=fused)
        self.scale = np.asarray(scale, np.float32)
        self.shift = np.asarray(shift, np.float32)
        self.relu = bool(relu)
        self.in_ref, self.out_ref = in_ref, out_ref
        self.channels_first = channels_first

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.out_ref]

    def bind(self, rt: BindContext):
        dest = rt.view(self.out_ref)
        get_in = rt.reader(self.in_ref)
        scale = (self.scale[:, None, None] if self.channels_first
                 else self.scale)
        shift = (self.shift[:, None, None] if self.channels_first
                 else self.shift)
        relu = self.relu

        def run() -> None:
            np.multiply(get_in(), scale, out=dest)
            np.add(dest, shift, out=dest)
            if relu:
                np.maximum(dest, _ZERO, out=dest)
        return run


class ReluOp(PlanOp):
    kind = "relu"

    def __init__(self, *, layer: str, in_ref: SlotRef,
                 out_ref: SlotRef) -> None:
        super().__init__(layer=layer)
        self.in_ref, self.out_ref = in_ref, out_ref

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.out_ref]

    def bind(self, rt: BindContext):
        dest = rt.view(self.out_ref)
        get_in = rt.reader(self.in_ref)

        def run() -> None:
            np.maximum(get_in(), _ZERO, out=dest)
        return run


class CopyOp(PlanOp):
    """Stage a slot into a channel slice of another (branch-final fallback
    for lowerings that cannot write a sliced destination directly)."""

    kind = "copy"

    def __init__(self, *, layer: str, in_ref: SlotRef, out_ref: SlotRef,
                 out_channels: tuple[int, int]) -> None:
        super().__init__(layer=layer)
        self.in_ref, self.out_ref = in_ref, out_ref
        self.out_channels = out_channels

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.out_ref]

    def bind(self, rt: BindContext):
        dest = rt.dest(self.out_ref, self.out_channels)
        get_in = rt.reader(self.in_ref)

        def run() -> None:
            dest[...] = get_in()
        return run


class _BiRecurrentOp(PlanOp):
    """A bidirectional recurrence as one stacked-GEMM plan op.

    Both directions' input projections run as a single ``(n*t, 2*g)``
    GEMM against the column-concatenated kernels (``g`` is one
    direction's projection width), and each timestep runs both
    directions' recurrent matmuls at once as a ``(2, n, h) @ (2, h, .)``
    batched matmul, so the Python-level step loop runs once instead of
    twice.  Forward reads projection step ``s``, backward reads step
    ``t-1-s`` (its input runs reversed in the layer forward); with
    ``return_sequences`` the backward hidden for input index ``t-1-s``
    is written straight to that index, which is exactly the layer's
    collect-then-re-reverse result.  Subclasses supply the cell.
    """

    #: One direction's projection width, in multiples of ``hidden``.
    width = 1

    def __init__(self, *, layer: str, fused: tuple[str, ...],
                 w_x_cat: np.ndarray, bias_cat: np.ndarray, hidden: int,
                 steps: int, features: int, return_sequences: bool,
                 in_ref: SlotRef, proj_ref: SlotRef, out_ref: SlotRef,
                 **recurrent: np.ndarray) -> None:
        super().__init__(layer=layer, fused=fused)
        self.w_x_cat = np.ascontiguousarray(w_x_cat, dtype=np.float32)
        self.bias_cat = np.ascontiguousarray(bias_cat, dtype=np.float32)
        #: Recurrent kernels, each stacked ``(2, h, .)`` over directions.
        self.recurrent = {name: np.ascontiguousarray(w, dtype=np.float32)
                          for name, w in recurrent.items()}
        self.hidden, self.steps, self.features = hidden, steps, features
        self.return_sequences = bool(return_sequences)
        self.in_ref, self.proj_ref, self.out_ref = in_ref, proj_ref, out_ref

    def slot_refs(self) -> list[SlotRef]:
        return [self.in_ref, self.proj_ref, self.out_ref]

    def _bind_cell(self, n: int, p_fwd: list, p_bwd: list,
                   o_fwd: list | None, o_bwd: list | None):
        """``(h_state, recur)``: the ``(2, n, h)`` hidden state and a
        closure running every timestep from a zero state, writing each
        step's hidden into ``o_fwd``/``o_bwd`` when they are given."""
        raise NotImplementedError

    def bind(self, rt: BindContext):
        n = rt.n
        h, t, f = self.hidden, self.steps, self.features
        g = self.width * h
        proj2 = rt.view(SlotRef(self.proj_ref.slot, (t * 2 * g,))
                        ).reshape(n * t, 2 * g)
        proj3 = proj2.reshape(n, t, 2 * g)
        get_in = rt.reader(self.in_ref)
        w_x, bias = self.w_x_cat, self.bias_cat
        # Per-step projection/output views, presliced once.
        p_fwd = [proj3[:, s, :g] for s in range(t)]
        p_bwd = [proj3[:, t - 1 - s, g:] for s in range(t)]
        out = rt.view(self.out_ref)
        o_fwd = o_bwd = None
        if self.return_sequences:
            o_fwd = [out[:, s, :h] for s in range(t)]
            o_bwd = [out[:, t - 1 - s, h:] for s in range(t)]
        h_st, recur = self._bind_cell(n, p_fwd, p_bwd, o_fwd, o_bwd)
        return_sequences = self.return_sequences

        def run() -> None:
            x2 = get_in().reshape(n * t, f)
            np.matmul(x2, w_x, out=proj2)
            np.add(proj2, bias, out=proj2)
            recur()
            if not return_sequences:
                out[:, :h] = h_st[0]
                out[:, h:] = h_st[1]
        return run


class BiLstmOp(_BiRecurrentOp):
    """Bidirectional LSTM; gate layout ``[i, f, g, o]`` per direction.

    The elementwise gate math runs one sigmoid pass over the whole gate
    block, then tanh overwrites the cell-gate columns.
    """

    kind = "bilstm"
    width = 4

    def _bind_cell(self, n, p_fwd, p_bwd, o_fwd, o_bwd):
        h = self.hidden
        four_h = 4 * h
        w_h = self.recurrent["w_h_stack"]
        # Recurrent state and gate buffers: O(n*h), owned by the binding.
        h_st = np.empty((2, n, h), dtype=np.float32)
        c_st = np.empty((2, n, h), dtype=np.float32)
        z = np.empty((2, n, four_h), dtype=np.float32)
        sig = np.empty((2, n, four_h), dtype=np.float32)
        g_gate = np.empty((2, n, h), dtype=np.float32)
        tmp = np.empty((2, n, h), dtype=np.float32)
        steps = range(self.steps)
        return_sequences = o_fwd is not None

        def recur() -> None:
            h_st.fill(0.0)
            c_st.fill(0.0)
            for s in steps:
                np.matmul(h_st, w_h, out=z)
                z[0] += p_fwd[s]
                z[1] += p_bwd[s]
                # sigmoid over every gate column; [i, f, g, o] layout —
                # the cell-gate block is then overwritten by tanh.
                np.negative(z, out=sig)
                np.exp(sig, out=sig)
                np.add(sig, _ONE, out=sig)
                np.divide(_ONE, sig, out=sig)
                np.tanh(z[:, :, 2 * h:3 * h], out=g_gate)
                # c = f * c + i * g
                np.multiply(sig[:, :, h:2 * h], c_st, out=c_st)
                np.multiply(sig[:, :, :h], g_gate, out=tmp)
                np.add(c_st, tmp, out=c_st)
                # h = o * tanh(c)
                np.tanh(c_st, out=tmp)
                np.multiply(sig[:, :, 3 * h:], tmp, out=h_st)
                if return_sequences:
                    o_fwd[s][...] = h_st[0]
                    o_bwd[s][...] = h_st[1]
        return h_st, recur


class BiGruOp(_BiRecurrentOp):
    """Bidirectional GRU; projection layout ``[z, r, c]`` per direction.

    Follows :class:`~repro.nn.recurrent.gru.GRU` expression for
    expression — ``h = (1 - z) * h + z * c`` with the candidate's
    recurrent matmul over ``r * h`` — except that the sigmoid is the
    direct ``1 / (1 + exp(-x))`` form rather than the layer's
    sign-split one, which agrees to float32 rounding.
    """

    kind = "bigru"
    width = 3

    def _bind_cell(self, n, p_fwd, p_bwd, o_fwd, o_bwd):
        h = self.hidden
        u_gates = self.recurrent["u_gates_stack"]
        u_cand = self.recurrent["u_cand_stack"]
        pg_fwd = [p[:, :2 * h] for p in p_fwd]
        pg_bwd = [p[:, :2 * h] for p in p_bwd]
        pc_fwd = [p[:, 2 * h:] for p in p_fwd]
        pc_bwd = [p[:, 2 * h:] for p in p_bwd]
        h_st = np.empty((2, n, h), dtype=np.float32)
        zr = np.empty((2, n, 2 * h), dtype=np.float32)
        cand = np.empty((2, n, h), dtype=np.float32)
        tmp = np.empty((2, n, h), dtype=np.float32)
        z_gate, r_gate = zr[:, :, :h], zr[:, :, h:]
        steps = range(self.steps)
        return_sequences = o_fwd is not None

        def recur() -> None:
            h_st.fill(0.0)
            for s in steps:
                np.matmul(h_st, u_gates, out=zr)
                zr[0] += pg_fwd[s]
                zr[1] += pg_bwd[s]
                np.negative(zr, out=zr)
                np.exp(zr, out=zr)
                np.add(zr, _ONE, out=zr)
                np.divide(_ONE, zr, out=zr)
                # c = tanh(x_c + (r * h) @ U_c)
                np.multiply(r_gate, h_st, out=tmp)
                np.matmul(tmp, u_cand, out=cand)
                cand[0] += pc_fwd[s]
                cand[1] += pc_bwd[s]
                np.tanh(cand, out=cand)
                # h = (1 - z) * h + z * c
                np.subtract(_ONE, z_gate, out=tmp)
                np.multiply(tmp, h_st, out=h_st)
                np.multiply(z_gate, cand, out=cand)
                np.add(h_st, cand, out=h_st)
                if return_sequences:
                    o_fwd[s][...] = h_st[0]
                    o_bwd[s][...] = h_st[1]
        return h_st, recur
