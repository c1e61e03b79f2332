"""Plan extraction: walk a layer tree once and emit a fused flat plan.

``compile_network`` lowers an eval-mode model into the plan IR of
:mod:`repro.nn.compile.plan`:

* **Fusion** — a ``Conv2D -> BatchNorm -> ReLU`` run (the Inception
  ``conv_bn_relu`` unit) lowers to a single :class:`ConvOp` whose GEMM
  output pass applies the folded batch-norm scale/shift and the ReLU
  clamp in place.  ``Dense -> ReLU`` and the two-layer prefixes fuse the
  same way.  Eval-identity ``Dropout`` disappears entirely.
* **Concat elimination** — each :class:`ParallelBranches` branch writes
  its final output directly into a channel slice of the concat buffer,
  so the merge costs nothing at run time.
* **Reshape elision** — ``Flatten`` / ``Reshape`` become slot view
  aliases, never ops.

Layers without a lowering raise :class:`UnsupportedLayerError`; the
model treats that as "this model runs the reference forward".
"""

from __future__ import annotations

import numpy as np

from repro.nn.compile import ops
from repro.nn.compile.plan import (
    CompiledNetwork,
    PlanBuilder,
    SlotRef,
    UnsupportedLayerError,
)
from repro.nn.layers.activations import ReLU
from repro.nn.layers.base import Layer
from repro.nn.layers.batchnorm import BatchNorm
from repro.nn.layers.conv import Conv2D, conv_output_size
from repro.nn.layers.dense import Dense
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten, Reshape
from repro.nn.layers.merge import ParallelBranches
from repro.nn.layers.pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from repro.nn.layers.sequential import Sequential
from repro.nn.recurrent.bidirectional import BidirectionalLSTM
from repro.nn.recurrent.bigru import BidirectionalGRU

#: (concat slot ref, channel range) a branch-final op should write into.
Dest = tuple[SlotRef, int, int]


def _unsupported(layer: Layer) -> UnsupportedLayerError:
    return UnsupportedLayerError(
        f"no compiled lowering for {type(layer).__name__} ({layer.name!r})")


# -- pure shape inference ------------------------------------------------

def _conv_out_shape(layer, in_shape: tuple[int, ...],
                    out_channels: int) -> tuple[int, int, int]:
    c, h, w = in_shape
    kh, kw = layer.kernel_size if isinstance(layer, Conv2D) else layer.pool_size
    sh, sw = layer.stride
    ph, pw = layer.padding
    return (out_channels, conv_output_size(h, kh, sh, ph),
            conv_output_size(w, kw, sw, pw))


def infer_shape(layer: Layer, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Per-sample output shape of ``layer`` on per-sample ``in_shape``."""
    if isinstance(layer, Sequential):
        for sub in layer.layers:
            in_shape = infer_shape(sub, in_shape)
        return in_shape
    if isinstance(layer, Conv2D):
        return _conv_out_shape(layer, in_shape, layer.out_channels)
    if isinstance(layer, (MaxPool2D, AvgPool2D)):
        return _conv_out_shape(layer, in_shape, in_shape[0])
    if isinstance(layer, GlobalAvgPool2D):
        return (in_shape[0],)
    if isinstance(layer, Dense):
        return (layer.out_features,)
    if isinstance(layer, (BatchNorm, ReLU, Dropout)):
        return in_shape
    if isinstance(layer, Flatten):
        return (int(np.prod(in_shape)),)
    if isinstance(layer, Reshape):
        return layer.target_shape
    if isinstance(layer, ParallelBranches):
        shapes = [infer_shape(b, in_shape) for b in layer.branches]
        axis = layer.axis - 1          # per-sample axis
        total = sum(s[axis] for s in shapes)
        out = list(shapes[0])
        out[axis] = total
        return tuple(out)
    if isinstance(layer, (BidirectionalLSTM, BidirectionalGRU)):
        two_h = 2 * layer.hidden_size
        if layer.return_sequences:
            return (in_shape[0], two_h)
        return (two_h,)
    raise _unsupported(layer)


# -- lowering ------------------------------------------------------------

class _Extractor:
    def __init__(self, builder: PlanBuilder) -> None:
        self.builder = builder

    # Every ``_lower_*`` returns ``(out_ref, out_shape)``.  When ``dest``
    # is set the layer is branch-final: it must leave its output in the
    # dest channel slice (directly, or via the generic copy fallback).

    def lower(self, layer: Layer, in_ref: SlotRef, in_shape: tuple[int, ...],
              dest: Dest | None = None):
        if isinstance(layer, Sequential):
            return self._lower_sequential(layer, in_ref, in_shape, dest)
        if isinstance(layer, ParallelBranches):
            return self._with_copy_fallback(
                self._lower_parallel, layer, in_ref, in_shape, dest)
        if isinstance(layer, Conv2D):
            return self._lower_conv(layer, None, None, in_ref, in_shape, dest)
        if isinstance(layer, Dense):
            return self._lower_dense(layer, None, in_ref, in_shape, dest)
        if isinstance(layer, (MaxPool2D, AvgPool2D)):
            return self._lower_pool(layer, in_ref, in_shape, dest)
        if isinstance(layer, GlobalAvgPool2D):
            return self._with_copy_fallback(
                self._lower_gap, layer, in_ref, in_shape, dest)
        if isinstance(layer, BatchNorm):
            return self._with_copy_fallback(
                self._lower_batchnorm, layer, in_ref, in_shape, dest,
                relu=None)
        if isinstance(layer, ReLU):
            return self._with_copy_fallback(
                self._lower_relu, layer, in_ref, in_shape, dest)
        if isinstance(layer, (Flatten, Reshape)):
            if dest is not None:
                # A pure view cannot retarget storage; stage then copy.
                return self._with_copy_fallback(
                    self._lower_view, layer, in_ref, in_shape, dest)
            return self._lower_view(layer, in_ref, in_shape)
        if isinstance(layer, (BidirectionalLSTM, BidirectionalGRU)):
            return self._with_copy_fallback(
                self._lower_birnn, layer, in_ref, in_shape, dest)
        raise _unsupported(layer)

    def _with_copy_fallback(self, fn, layer, in_ref, in_shape,
                            dest: Dest | None, **kwargs):
        """Run a dest-unaware lowering, copying into ``dest`` if needed."""
        out_ref, out_shape = fn(layer, in_ref, in_shape, **kwargs)
        if dest is not None:
            ref, c0, c1 = dest
            self.builder.emit(ops.CopyOp(
                layer=layer.name, in_ref=out_ref, out_ref=ref,
                out_channels=(c0, c1)))
            return ref, out_shape
        return out_ref, out_shape

    # -- structural layers ------------------------------------------------

    def _lower_sequential(self, seq: Sequential, in_ref, in_shape,
                          dest: Dest | None):
        # Eval-identity dropout vanishes before the fusion peephole runs,
        # so Conv -> BN -> Dropout -> ReLU still fuses.
        layers = [sub for sub in seq.layers if not isinstance(sub, Dropout)]
        i, count = 0, len(layers)
        ref, shape = in_ref, in_shape
        while i < count:
            layer = layers[i]
            fused = 1
            final: Dest | None = None
            if i + fused == count:
                final = dest
            if isinstance(layer, Conv2D):
                bn = relu = None
                if (i + fused < count
                        and isinstance(layers[i + fused], BatchNorm)):
                    bn = layers[i + fused]
                    fused += 1
                if i + fused < count and isinstance(layers[i + fused], ReLU):
                    relu = layers[i + fused]
                    fused += 1
                final = dest if i + fused == count else None
                ref, shape = self._lower_conv(layer, bn, relu, ref, shape,
                                              final)
            elif isinstance(layer, Dense):
                relu = None
                if i + fused < count and isinstance(layers[i + fused], ReLU):
                    relu = layers[i + fused]
                    fused += 1
                final = dest if i + fused == count else None
                ref, shape = self._lower_dense(layer, relu, ref, shape, final)
            elif isinstance(layer, BatchNorm):
                relu = None
                if i + fused < count and isinstance(layers[i + fused], ReLU):
                    relu = layers[i + fused]
                    fused += 1
                final = dest if i + fused == count else None
                ref, shape = self._with_copy_fallback(
                    self._lower_batchnorm, layer, ref, shape, final,
                    relu=relu)
            else:
                ref, shape = self.lower(layer, ref, shape, final)
            i += fused
        if dest is not None and count == 0:
            raise UnsupportedLayerError(
                f"{seq.name}: empty branch cannot target a concat slice")
        return ref, shape

    def _lower_parallel(self, par: ParallelBranches, in_ref, in_shape):
        if par.axis != 1:
            raise _unsupported(par)
        shapes = [infer_shape(b, in_shape) for b in par.branches]
        ref0 = list(shapes[0])
        for s in shapes[1:]:
            if list(s[1:]) != ref0[1:]:
                raise UnsupportedLayerError(
                    f"{par.name}: branch shapes disagree off-axis: {shapes}")
        total = sum(s[0] for s in shapes)
        out_shape = (total,) + tuple(ref0[1:])
        out_ref = self.builder.new_slot(out_shape)
        c0 = 0
        for branch, shape in zip(par.branches, shapes):
            c1 = c0 + shape[0]
            self.lower(branch, in_ref, in_shape, (out_ref, c0, c1))
            c0 = c1
        return out_ref, out_shape

    def _lower_view(self, layer, in_ref, in_shape):
        if isinstance(layer, Flatten):
            shape = (int(np.prod(in_shape)),)
        else:
            shape = layer.target_shape
        return self.builder.view(in_ref, shape), shape

    # -- compute layers ---------------------------------------------------

    def _epilogue(self, bn: BatchNorm | None, relu: ReLU | None):
        scale = shift = None
        if bn is not None:
            scale, shift = bn.eval_scale_shift()
        fused = [layer.name for layer in (bn, relu) if layer is not None]
        return scale, shift, relu is not None, fused

    def _dest_or_slot(self, dest: Dest | None, shape):
        if dest is not None:
            ref, c0, c1 = dest
            return ref, (c0, c1)
        return self.builder.new_slot(shape), None

    def _lower_conv(self, conv: Conv2D, bn, relu, in_ref, in_shape,
                    dest: Dest | None):
        out_shape = _conv_out_shape(conv, in_shape, conv.out_channels)
        scale, shift, has_relu, fused = self._epilogue(bn, relu)
        out_ref, out_channels = self._dest_or_slot(dest, out_shape)
        self.builder.emit(ops.ConvOp(
            layer=conv.name, fused=tuple([conv.name] + fused),
            weight=conv.flat_weight(),
            bias=None if conv.bias is None else conv.bias.value.copy(),
            scale=scale, shift=shift, relu=has_relu,
            kernel=conv.kernel_size, stride=conv.stride, pad=conv.padding,
            in_shape=in_shape, out_shape=out_shape,
            in_ref=in_ref, out_ref=out_ref, out_channels=out_channels))
        return out_ref, out_shape

    def _lower_dense(self, dense: Dense, relu, in_ref, in_shape,
                     dest: Dest | None):
        if len(in_shape) != 1 or in_shape[0] != dense.in_features:
            raise UnsupportedLayerError(
                f"{dense.name}: expected ({dense.in_features},) input, "
                f"got {in_shape}")
        out_shape = (dense.out_features,)
        scale, shift, has_relu, fused = self._epilogue(None, relu)
        out_ref, out_channels = self._dest_or_slot(dest, out_shape)
        self.builder.emit(ops.DenseOp(
            layer=dense.name, fused=tuple([dense.name] + fused),
            weight=dense.weight.value,
            bias=None if dense.bias is None else dense.bias.value.copy(),
            scale=scale, shift=shift, relu=has_relu,
            in_features=dense.in_features, out_features=dense.out_features,
            in_ref=in_ref, out_ref=out_ref, out_channels=out_channels))
        return out_ref, out_shape

    def _lower_pool(self, pool, in_ref, in_shape, dest: Dest | None):
        out_shape = _conv_out_shape(pool, in_shape, in_shape[0])
        out_ref, out_channels = self._dest_or_slot(dest, out_shape)
        c, h, w = in_shape
        ph, pw = pool.padding
        pad_ref = None
        if ph or pw or in_ref.slot == 0:
            # Padded source buffer; also used (padless) to stage the raw
            # network input so tap views can be fixed at bind time.
            pad_ref = self.builder.new_slot(
                (c, h + 2 * ph, w + 2 * pw), pinned=bool(ph or pw))
        op_cls = ops.MaxPoolOp if isinstance(pool, MaxPool2D) else ops.AvgPoolOp
        extra = {}
        if op_cls is ops.AvgPoolOp and tuple(pool.stride) == (1, 1):
            # Stride-1 pooling sums contiguous flat-shifted views of the
            # source buffer instead of short-row strided taps; the sums
            # need a scratch accumulator the size of that buffer.
            acc_shape = ((c, h + 2 * ph, w + 2 * pw) if pad_ref is not None
                         else in_shape)
            extra["acc_ref"] = self.builder.new_slot(acc_shape)
        self.builder.emit(op_cls(
            layer=pool.name, kernel=pool.pool_size, stride=pool.stride,
            pad=pool.padding, in_shape=in_shape, out_shape=out_shape,
            in_ref=in_ref, out_ref=out_ref, out_channels=out_channels,
            pad_ref=pad_ref, **extra))
        return out_ref, out_shape

    def _lower_gap(self, gap: GlobalAvgPool2D, in_ref, in_shape):
        out_shape = (in_shape[0],)
        out_ref = self.builder.new_slot(out_shape)
        self.builder.emit(ops.GlobalAvgPoolOp(
            layer=gap.name, in_ref=in_ref, out_ref=out_ref))
        return out_ref, out_shape

    def _lower_batchnorm(self, bn: BatchNorm, in_ref, in_shape, *,
                         relu: ReLU | None):
        if len(in_shape) not in (1, 3):
            raise _unsupported(bn)
        scale, shift = bn.eval_scale_shift()
        fused = [bn.name] + ([relu.name] if relu is not None else [])
        out_ref = self.builder.new_slot(in_shape)
        self.builder.emit(ops.ScaleShiftOp(
            layer=bn.name, fused=tuple(fused), scale=scale, shift=shift,
            relu=relu is not None, in_ref=in_ref, out_ref=out_ref,
            channels_first=len(in_shape) == 3))
        return out_ref, in_shape

    def _lower_relu(self, relu: ReLU, in_ref, in_shape):
        out_ref = self.builder.new_slot(in_shape)
        self.builder.emit(ops.ReluOp(
            layer=relu.name, in_ref=in_ref, out_ref=out_ref))
        return out_ref, in_shape

    def _lower_birnn(self, layer, in_ref, in_shape):
        """A bidirectional LSTM or GRU as one stacked recurrence op."""
        if isinstance(layer, BidirectionalLSTM):
            op_cls, cells = ops.BiLstmOp, (layer.forward_lstm,
                                           layer.backward_lstm)
        else:
            op_cls, cells = ops.BiGruOp, (layer.forward_gru,
                                          layer.backward_gru)
        if len(in_shape) != 2:
            raise UnsupportedLayerError(
                f"{layer.name}: expected (time, features) input, "
                f"got {in_shape}")
        t, f = in_shape
        if f != cells[0].input_size:
            raise UnsupportedLayerError(
                f"{layer.name}: expected {cells[0].input_size} "
                f"features, got {f}")
        h = layer.hidden_size
        w_x_cat, bias_cat, recurrent = layer.stacked_weights()
        out_shape = (t, 2 * h) if layer.return_sequences else (2 * h,)
        proj_ref = self.builder.new_slot((t, 2 * op_cls.width * h))
        out_ref = self.builder.new_slot(out_shape)
        self.builder.emit(op_cls(
            layer=layer.name,
            fused=(layer.name,) + tuple(cell.name for cell in cells),
            w_x_cat=w_x_cat, bias_cat=bias_cat, hidden=h, steps=t,
            features=f, return_sequences=layer.return_sequences,
            in_ref=in_ref, proj_ref=proj_ref, out_ref=out_ref,
            **recurrent))
        return out_ref, out_shape


def compile_network(network: Layer, input_shape: tuple[int, ...], *,
                    label: str | None = None) -> CompiledNetwork:
    """Compile an eval-mode layer tree into a :class:`CompiledNetwork`.

    ``input_shape`` is the per-sample input shape (no batch dimension).
    Raises :class:`UnsupportedLayerError` when any layer has no lowering.
    """
    builder = PlanBuilder(tuple(int(d) for d in input_shape))
    extractor = _Extractor(builder)
    out_ref, _ = extractor.lower(network, builder.input_ref(),
                                 builder.slots[0].shape)
    if out_ref.slot == 0:
        raise UnsupportedLayerError(
            "plan is a pure view of the input; nothing to compile")
    return builder.finish(out_ref, label=label or network.name)
