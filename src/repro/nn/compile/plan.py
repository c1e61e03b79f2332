"""Execution-plan IR: slots, the capacity arena, and the bound-plan executor.

A compiled network is a flat list of ops over *slots*.  A slot is one
intermediate tensor with a fixed **per-sample** shape — the batch
dimension stays symbolic until :meth:`CompiledNetwork._bind` pins it.
Offsets come from a liveness-driven first-fit allocator over per-sample
float32 elements, so slots whose lifetimes do not overlap share arena
memory, and steady state a plan run performs zero buffer lookups: every
op holds its views.

**One arena per plan.**  The arena is laid out for the largest batch
seen so far, its *capacity* ``cap``: slot *s* owns the block range
``[offset·cap, (offset + elements)·cap)``.  A binding for any ``n <=
cap`` uses the leading ``n`` rows of every slot, so all batch sizes
share one block, pinned (pre-zeroed) pad borders keep their addresses
and stay zero, and two slots disjoint per sample stay disjoint for every
``n``.  Only growth past ``cap`` allocates — and page-faults — a new
block; it drops the old block and every binding made over it.

Bindings (the per-batch-size op closures over arena views) are cached
per batch size in a bounded LRU; rebinding costs view slicing only.

The arena makes a plan single-flight: **one forward per plan at a
time**.  Two concurrent runs would share scratch memory, the same rule
the layer forward's backward caches impose.  Forked executor workers
each own a copy-on-write arena.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError
from repro.nn.runtime import profiling

#: Bindings kept per compiled network (distinct batch sizes seen).
BOUND_CACHE_SIZE = 8


class UnsupportedLayerError(ReproError):
    """The graph compiler met a layer it has no lowering for.

    Backends catch this and fall back to the reference forward — an
    uncompilable model must degrade, never crash serving.
    """


@dataclass
class Slot:
    """One planned intermediate tensor (per-sample shape, arena offset)."""

    index: int
    shape: tuple[int, ...]          # per-sample shape (no batch dim)
    first_use: int = -1             # op index of first read/write
    last_use: int = -1
    pinned: bool = False            # never share memory (pre-zeroed pads)
    offset: int = -1                # per-sample float32 element offset

    @property
    def elements(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1


class SlotRef:
    """A (slot, view-shape) pair — how ops address plan tensors.

    The view shape must hold the same number of per-sample elements as
    the slot; reshapes (Flatten, the LSTM's 2-D GEMM view) are free.
    """

    __slots__ = ("slot", "shape")

    def __init__(self, slot: int, shape: tuple[int, ...]) -> None:
        self.slot = slot
        self.shape = tuple(int(d) for d in shape)

    def __repr__(self) -> str:
        return f"SlotRef(slot={self.slot}, shape={self.shape})"


class InputHolder:
    """Mutable cell the bound plan reads the current input batch from."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: np.ndarray | None = None


class BindContext:
    """What ops see while closing over one batch size's arrays."""

    def __init__(self, n: int, views: list[np.ndarray | None],
                 holder: InputHolder) -> None:
        self.n = int(n)
        self._views = views
        self.holder = holder

    def view(self, ref: SlotRef) -> np.ndarray:
        """The bound array for a non-input slot, in the ref's view shape."""
        base = self._views[ref.slot]
        if base is None:
            raise ReproError("plan bug: op reads the raw input slot via "
                             "view(); use reader()")
        if base.shape[1:] == ref.shape:
            return base
        return base.reshape((self.n,) + ref.shape)

    def reader(self, ref: SlotRef):
        """A zero-arg callable yielding the ref's array at run time.

        Arena slots resolve to a fixed view at bind time; the network
        input slot resolves through the holder so ``run(x)`` never copies
        the input into the arena.
        """
        base = self._views[ref.slot]
        if base is None:
            holder = self.holder
            shape = (self.n,) + ref.shape
            return lambda: holder.value.reshape(shape)
        view = self.view(ref)
        return lambda: view

    def dest(self, ref: SlotRef, channels: tuple[int, int] | None
             ) -> np.ndarray:
        """The output view, optionally restricted to a channel range.

        Channel-sliced destinations are how branch-final ops write
        straight into their :class:`ParallelBranches` concat buffer.
        """
        out = self.view(ref)
        if channels is None:
            return out
        c0, c1 = channels
        return out[:, c0:c1]


class PlanOp:
    """One fused operation of the flat plan."""

    kind = "op"

    def __init__(self, *, layer: str, fused: tuple[str, ...] = ()) -> None:
        #: Primary source layer name — per-layer profiling attributes the
        #: whole fused op's time here.
        self.layer = layer
        #: Every source layer folded into this op (conv + bn + relu).
        self.fused = tuple(fused) or (layer,)
        self.index = -1

    def slot_refs(self) -> list[SlotRef]:
        """Every slot this op touches (reads, writes, scratch)."""
        raise NotImplementedError

    def bind(self, rt: BindContext):
        """Return the zero-arg run closure for one batch size."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {"kind": self.kind, "layer": self.layer,
                "fused": list(self.fused)}


class PlanBuilder:
    """Accumulates slots and ops during the model walk."""

    def __init__(self, input_shape: tuple[int, ...]) -> None:
        self.slots: list[Slot] = [Slot(0, tuple(input_shape))]
        self.ops: list[PlanOp] = []

    def input_ref(self) -> SlotRef:
        return SlotRef(0, self.slots[0].shape)

    def new_slot(self, shape: tuple[int, ...], *,
                 pinned: bool = False) -> SlotRef:
        slot = Slot(len(self.slots), tuple(int(d) for d in shape),
                    pinned=pinned)
        self.slots.append(slot)
        return SlotRef(slot.index, slot.shape)

    def view(self, ref: SlotRef, shape: tuple[int, ...]) -> SlotRef:
        """A reshaped alias of an existing slot (no new storage)."""
        shape = tuple(int(d) for d in shape)
        if int(np.prod(shape)) != self.slots[ref.slot].elements:
            raise ReproError(
                f"plan bug: view {shape} does not cover slot "
                f"{self.slots[ref.slot].shape}")
        return SlotRef(ref.slot, shape)

    def emit(self, op: PlanOp) -> None:
        op.index = len(self.ops)
        self.ops.append(op)
        for ref in op.slot_refs():
            slot = self.slots[ref.slot]
            if slot.first_use < 0:
                slot.first_use = op.index
            slot.last_use = op.index

    def finish(self, output: SlotRef, *, label: str = "network"
               ) -> "CompiledNetwork":
        # The output must survive until run() copies it out.
        self.slots[output.slot].last_use = len(self.ops)
        per_sample = _assign_offsets(self.slots)
        return CompiledNetwork(label=label, ops=self.ops, slots=self.slots,
                               output=output, arena_per_sample=per_sample)


def _assign_offsets(slots: list[Slot]) -> int:
    """First-fit interval allocation over per-sample element offsets.

    Pinned slots get dedicated storage for the plan's whole lifetime
    (their pre-zeroed padding borders must survive arena reuse); every
    other slot may reuse the space of slots whose liveness has ended.
    Returns the arena size in per-sample float32 elements.
    """
    horizon = max((s.last_use for s in slots), default=0) + 1
    for slot in slots:
        if slot.pinned:
            slot.first_use, slot.last_use = 0, horizon
    live: list[Slot] = []     # allocated, sorted by offset
    top = 0
    order = sorted((s for s in slots if s.first_use >= 0),
                   key=lambda s: (s.first_use, -s.elements))
    for slot in order:
        live = [s for s in live if s.last_use >= slot.first_use]
        size = slot.elements
        cursor = 0
        for allocated in sorted(live, key=lambda s: s.offset):
            if allocated.offset - cursor >= size:
                break
            cursor = max(cursor, allocated.offset + allocated.elements)
        slot.offset = cursor
        top = max(top, cursor + size)
        live.append(slot)
    return top


@dataclass
class BoundPlan:
    """One batch size's executable form of the plan."""

    n: int
    holder: InputHolder
    funcs: list
    layers: list[str]
    output_view: np.ndarray


class CompiledNetwork:
    """An immutable execution plan plus its capacity arena and bindings."""

    def __init__(self, *, label: str, ops: list[PlanOp], slots: list[Slot],
                 output: SlotRef, arena_per_sample: int) -> None:
        self.label = label
        self.ops = ops
        self.slots = slots
        self.output = output
        #: Arena size in float32 elements per batched sample.
        self.arena_per_sample = arena_per_sample
        #: Batch rows the arena holds (0 until the first run).
        self.capacity = 0
        self.arena: np.ndarray | None = None
        self._bound: dict[int, BoundPlan] = {}
        #: Arena blocks allocated so far (first run, then each growth).
        self.arena_allocs = 0
        # Flushed to the process registry by run() only when it moved,
        # so steady state costs one compare; None until the compile
        # itself is published.
        self._published_allocs: int | None = None

    # -- introspection ---------------------------------------------------
    def describe(self) -> list[dict]:
        """The flat op list with fused source-layer attribution."""
        return [op.describe() for op in self.ops]

    @property
    def slot_elements_total(self) -> int:
        """Sum of all live slots' sizes — the no-reuse arena baseline."""
        return sum(s.elements for s in self.slots[1:] if s.first_use >= 0)

    # -- arena -----------------------------------------------------------
    def _grow(self, n: int) -> None:
        """Replace the arena with one laid out for ``n`` rows."""
        self._bound.clear()
        self.arena = np.empty(self.arena_per_sample * n, dtype=np.float32)
        self.capacity = n
        self.arena_allocs += 1
        for slot in self.slots[1:]:
            if slot.pinned and slot.first_use >= 0:
                # Pad borders are never written; zeroed once per block.
                lo = slot.offset * n
                self.arena[lo:lo + slot.elements * n].fill(0.0)

    def _bind(self, n: int) -> BoundPlan:
        cap = self.capacity
        views: list[np.ndarray | None] = [None]  # slot 0 = network input
        for slot in self.slots[1:]:
            if slot.first_use < 0:
                views.append(None)
                continue
            lo = slot.offset * cap
            views.append(self.arena[lo:lo + slot.elements * n]
                         .reshape((n,) + slot.shape))
        holder = InputHolder()
        rt = BindContext(n, views, holder)
        funcs = [op.bind(rt) for op in self.ops]
        return BoundPlan(n=n, holder=holder, funcs=funcs,
                         layers=[op.layer for op in self.ops],
                         output_view=rt.view(self.output))

    def bound_for(self, n: int) -> BoundPlan:
        if n > self.capacity:
            self._grow(n)
        bound = self._bound.pop(n, None)
        if bound is None:
            bound = self._bind(n)
            if len(self._bound) >= BOUND_CACHE_SIZE:
                # Evict the least recently used batch size.
                self._bound.pop(next(iter(self._bound)))
        self._bound[n] = bound      # (re)insert as most recently used
        return bound

    def publish_metrics(self) -> None:
        """Flush this plan's compile and arena-allocation deltas to the
        process registry.

        These first-use events are what set the serving tail; a steady
        state that still allocates shows up as a moving counter.
        """
        from repro.obs.metrics import get_registry

        registry = get_registry()
        if self._published_allocs is None:
            registry.counter("nn_plan_compiles_total",
                             "Execution plans compiled").inc()
            self._published_allocs = 0
        if self.arena_allocs > self._published_allocs:
            registry.counter("nn_plan_arena_allocs_total",
                             "Plan arena blocks allocated").inc(
                                 self.arena_allocs - self._published_allocs)
            self._published_allocs = self.arena_allocs

    # -- execution -------------------------------------------------------
    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the plan on one batch; returns a fresh output array."""
        bound = self.bound_for(x.shape[0])
        bound.holder.value = x
        try:
            if profiling.should_sample():
                for fn, layer in zip(bound.funcs, bound.layers):
                    start = time.perf_counter()
                    fn()
                    profiling.layer_timer(layer).observe(
                        time.perf_counter() - start)
            else:
                for fn in bound.funcs:
                    fn()
            return bound.output_view.copy()
        finally:
            bound.holder.value = None
            if self._published_allocs != self.arena_allocs:
                self.publish_metrics()
