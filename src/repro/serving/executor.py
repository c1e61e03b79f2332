"""Persistent-worker parallel execution of flushed micro-batches.

NumPy releases the GIL inside BLAS kernels, but the serving forward pass
is a long chain of *short* kernels stitched together with Python — layer
dispatch, reshapes, activation ufuncs — so threads serialize on the GIL
almost immediately.  Processes sidestep that, and this module keeps them
*hot*: N long-lived workers are forked once per executor, inherit the
model weights copy-on-write at spawn (never re-pickled per flush), pin
their compiled-backend plans with a probe pass before serving, and then
sit on a pair of preallocated shared-memory rings
(:class:`~repro.serving.ring.SlotRing`).  A micro-batch handoff writes
the input slab into a claimed request slot and publishes it with an
index write; the worker writes probabilities into a response slot the
same way.  Nothing large crosses a pipe, ever — the fork-per-flush pool
this replaces spent more time pickling tasks than running GEMMs and
benchmarked at 0.34x.

Sharding is deterministic: a flushed batch is split into contiguous
slices in request order, and eval-mode layers have no cross-sample
coupling, so an N-worker verdict stream matches the in-process one —
predictions exactly, probabilities to BLAS rounding (GEMM blocking
depends on the row count, so summation order shifts by ~1e-9 when the
batch is sliced).  The parallel path changes wall-clock, never verdicts.

Crash handling is part of the contract: :meth:`ParallelExecutor.collect`
detects a dead or torn-slot worker, marks it for respawn with
exponential backoff, drains the surviving shards so no stale response
lingers, and raises :class:`~repro.exceptions.WorkerCrashError` — the
server's dispatch-failure path requeues the batch exactly once.  When
every worker is down and inside its backoff window, batches fall back
to in-process execution rather than stalling.  Backpressure is never
mistaken for a crash: a submit that finds a request ring full drains
the worker's finished responses into a parent-side stash so the
pipeline keeps moving, and a ring-geometry rebuild (new modality,
oversized batch) is deferred — served in-process — while earlier
tickets still have jobs riding the rings it would tear down.

``workers=0`` bypasses this module's process machinery entirely and is
bit-exact with the plain in-process path because it *is* that path.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import struct
import time
from dataclasses import dataclass, field
from multiprocessing import get_context, shared_memory

import numpy as np

from repro.core.ensemble import DegradedPrediction
from repro.exceptions import (
    ConfigurationError,
    ServingError,
    TornSlotError,
    WorkerCrashError,
)
from repro.nn.compile.backends import (
    DEFAULT_BACKEND,
    using_backend,
    warm_plans,
)
from repro.obs.metrics import HANDOFF_BUCKETS, get_registry
from repro.serving.ring import SlotRing

#: Slots per ring: bounds how many batches may be in flight per worker
#: before submission backpressures (8 covers every realistic step).
RING_SLOTS = 8

#: ``job_id`` 0 is the shutdown sentinel — workers exit on popping it.
SHUTDOWN_JOB = 0

#: Returned by ``_publish_job`` when the worker is alive but its request
#: ring stayed full past the deadline — backpressure, not a crash.
_BUSY = object()

#: Request slot header: job_id, n_rows, has_images, has_imu, t_publish.
_REQ_HEADER = struct.Struct("<QQQQd")
#: Response slot header: job_id, n_rows, degraded, meta_len, t_pickup,
#: t_done (perf_counter is CLOCK_MONOTONIC on Linux — comparable across
#: forked processes, so the parent computes handoff latency directly).
_RESP_HEADER = struct.Struct("<QQQQdd")

#: Status block: one page of u64 flags/counters per worker, shared both
#: ways — the parent flips HOLD (chaos lever), the worker owns the rest.
STATUS_SLOTS = 8
STATUS_HEARTBEAT = 0      # incremented every idle loop — liveness probe
STATUS_PLANS_PINNED = 1   # set once the spawn-time probe pass completes
STATUS_HOLD = 2           # parent-set: park after popping the next job
STATUS_JOBS = 3           # jobs completed since spawn
STATUS_BUSY_NS = 4        # cumulative pickup-to-done nanoseconds


def _silence_resource_tracker() -> None:
    """Keep worker-side attachments out of the resource tracker.

    Workers attach segments the parent owns and will unlink; without
    this, each worker's resource tracker re-registers the segment and
    then either double-unlinks it or warns about a leak at shutdown
    (Python < 3.13 has no ``track=False``).
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype == "shared_memory":
            return
        original(name, rtype)

    resource_tracker.register = register


@dataclass(frozen=True)
class _Geometry:
    """Fixed slab layout shared by both ends of a worker's rings."""

    max_rows: int
    img_shape: tuple[int, ...]      # per-sample; () when stream absent
    img_dtype: str
    imu_shape: tuple[int, ...]
    imu_dtype: str
    classes: int
    prob_dtype: str
    meta_max: int

    @property
    def img_slab(self) -> int:
        if not self.img_shape:
            return 0
        return self.max_rows * int(np.prod(self.img_shape)) * \
            np.dtype(self.img_dtype).itemsize

    @property
    def imu_slab(self) -> int:
        if not self.imu_shape:
            return 0
        return self.max_rows * int(np.prod(self.imu_shape)) * \
            np.dtype(self.imu_dtype).itemsize

    @property
    def request_payload(self) -> int:
        return _REQ_HEADER.size + self.img_slab + self.imu_slab

    @property
    def prob_slab(self) -> int:
        return self.max_rows * self.classes * \
            np.dtype(self.prob_dtype).itemsize

    @property
    def response_payload(self) -> int:
        return _RESP_HEADER.size + self.prob_slab + self.meta_max

    def fits(self, images, imu, count: int) -> bool:
        """Whether a batch can ride the rings this geometry sized."""
        if count > self.max_rows:
            return False
        if images is not None and tuple(images.shape[1:]) != self.img_shape:
            return False
        if imu is not None and tuple(imu.shape[1:]) != self.imu_shape:
            return False
        return True


# -- worker process ----------------------------------------------------------

def _read_slab(payload, offset: int, rows: int, shape: tuple[int, ...],
               dtype: str) -> np.ndarray:
    """Copy ``rows`` samples out of a request slab into a fresh array."""
    count = rows * int(np.prod(shape))
    flat = np.frombuffer(payload, dtype=np.dtype(dtype), count=count,
                         offset=offset)
    return flat.reshape((rows, *shape)).copy()


def _encode_meta(error: str | None, result, meta_max: int) -> bytes:
    """Pickle the response meta, degrading until it fits its slab.

    Metrics go first (best-effort), then the error repr / missing tuple
    is truncated — an oversized meta must degrade the report, never
    crash the worker (the slab slice assignment would raise otherwise,
    converting a reportable model error into a crash + requeue cycle).
    """
    meta = {"error": error} if error else {
        "missing": tuple(result.missing),
        "metrics": get_registry().drain(),
    }
    blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) <= meta_max:
        return blob
    meta.pop("metrics", None)   # metrics are best-effort
    blob = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) <= meta_max:
        return blob
    # meta_max // 8 characters pickle well under meta_max bytes even if
    # every character needs four UTF-8 bytes.
    if error:
        meta = {"error": error[:meta_max // 8]}
    else:
        meta = {"missing": tuple(str(m)[:64]
                                 for m in list(result.missing)[:16])}
    return pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)


def _worker_main(model, backend: str, geometry: _Geometry, req_name: str,
                 resp_name: str, status_name: str) -> None:
    """The worker loop: pop request slots, predict, publish responses.

    Runs in a forked child: ``model`` arrived through fork-time memory
    inheritance (copy-on-write — the weights were never pickled), and
    the three names attach the parent-owned shared segments.  The first
    act is a probe pass that pins the compiled plans for this backend,
    announced through the status block so tests and respawn checks can
    assert on it.
    """
    _silence_resource_tracker()
    req_shm = shared_memory.SharedMemory(name=req_name)
    resp_shm = shared_memory.SharedMemory(name=resp_name)
    status_shm = shared_memory.SharedMemory(name=status_name)
    status = np.ndarray((STATUS_SLOTS,), dtype=np.uint64,
                        buffer=status_shm.buf)
    requests = SlotRing(req_shm.buf, capacity=RING_SLOTS,
                        slot_payload=geometry.request_payload)
    responses = SlotRing(resp_shm.buf, capacity=RING_SLOTS,
                         slot_payload=geometry.response_payload)
    warm_plans(
        model, backend,
        images=(np.zeros((1, *geometry.img_shape),
                         dtype=geometry.img_dtype)
                if geometry.img_shape else None),
        imu=(np.zeros((1, *geometry.imu_shape), dtype=geometry.imu_dtype)
             if geometry.imu_shape else None))
    status[STATUS_PLANS_PINNED] = 1
    parent = os.getppid()
    idle_sleep = 0.0
    imu_offset = _REQ_HEADER.size + geometry.img_slab
    while True:
        item = requests.try_pop()
        if item is None:
            status[STATUS_HEARTBEAT] += 1
            if os.getppid() != parent:
                break       # orphaned: the server process is gone
            # Spin hot for a moment, then back off to bounded sleeps so
            # an idle worker costs ~nothing while a busy one never adds
            # a scheduler quantum to the handoff.
            if idle_sleep:
                time.sleep(idle_sleep)
            idle_sleep = min(0.001, (idle_sleep or 0.00005) * 2)
            continue
        idle_sleep = 0.0
        t_pickup = time.perf_counter()
        job_id, n_rows, has_images, has_imu, _ = _REQ_HEADER.unpack_from(
            item.payload, 0)
        if job_id == SHUTDOWN_JOB:
            requests.release(item)
            break
        orphaned = False
        while status[STATUS_HOLD]:  # chaos lever: parked mid-flush
            if os.getppid() != parent:
                orphaned = True     # parked when the parent died hard
                break
            time.sleep(0.0005)
        if orphaned:
            break
        kwargs = {}
        if has_images:
            kwargs["images"] = _read_slab(
                item.payload, _REQ_HEADER.size, n_rows,
                geometry.img_shape, geometry.img_dtype)
        if has_imu:
            kwargs["imu"] = _read_slab(
                item.payload, imu_offset, n_rows,
                geometry.imu_shape, geometry.imu_dtype)
        # Inputs are copied out, so the request slot can go back to the
        # producer before the (slow) forward pass runs.
        requests.release(item)
        error = None
        try:
            with using_backend(backend):
                result = model.predict_degraded(**kwargs)
        except Exception as exc:  # noqa: BLE001 — report, don't die
            error, result = repr(exc), None
        t_done = time.perf_counter()
        claim = responses.claim()
        while claim is None:    # parent is behind; space frees on collect
            if os.getppid() != parent:
                orphaned = True     # a SIGKILLed parent never collects
                break
            time.sleep(0.0001)
            claim = responses.claim()
        if orphaned:
            break
        blob = _encode_meta(error, result, geometry.meta_max)
        rows = 0 if error else len(result.predictions)
        _RESP_HEADER.pack_into(
            claim.payload, 0, job_id, rows,
            0 if error else int(result.degraded), len(blob),
            t_pickup, t_done)
        meta_offset = _RESP_HEADER.size + geometry.prob_slab
        if not error:
            probs = np.ascontiguousarray(result.probabilities,
                                         dtype=geometry.prob_dtype)
            claim.payload[_RESP_HEADER.size:
                          _RESP_HEADER.size + probs.nbytes] = \
                probs.tobytes()
        claim.payload[meta_offset:meta_offset + len(blob)] = blob
        responses.publish(claim, meta_offset + len(blob))
        status[STATUS_JOBS] += 1
        status[STATUS_BUSY_NS] += int((t_done - t_pickup) * 1e9)
    requests.close()
    responses.close()
    del status
    for segment in (req_shm, resp_shm, status_shm):
        segment.close()


# -- parent-side bookkeeping -------------------------------------------------

@dataclass
class _Job:
    """One shard of one submitted batch, in flight on one worker."""

    worker: int
    job_id: int
    lo: int
    hi: int
    t_publish: float


@dataclass
class ExecutorTicket:
    """Handle for a submitted batch; redeem with ``collect``."""

    count: int
    jobs: list[_Job] = field(default_factory=list)
    #: Set when the batch ran in-process (no workers available or the
    #: batch does not fit the ring geometry) — collect returns it as-is.
    inproc: DegradedPrediction | None = None


class _WorkerHandle:
    """Parent-side state for one worker slot (survives respawns)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.req_shm = None
        self.resp_shm = None
        self.status_shm = None
        self.requests: SlotRing | None = None
        self.responses: SlotRing | None = None
        self.status: np.ndarray | None = None
        #: Responses popped ahead of their ``collect`` (the submit-side
        #: backpressure drain), keyed by job id.  Entries are decoded
        #: copies, so they stay valid across ring teardown and respawn.
        self.stash: dict[int, tuple] = {}
        self.crashes = 0
        self.next_spawn = 0.0   # monotonic instant respawn is allowed
        self.spawned_at = 0.0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def release_resources(self) -> None:
        """Drop ring views and unlink this incarnation's segments."""
        for ring in (self.requests, self.responses):
            if ring is not None:
                ring.close()
        self.requests = self.responses = None
        self.status = None
        for segment in (self.req_shm, self.resp_shm, self.status_shm):
            if segment is None:
                continue
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:   # interpreter-teardown race
                pass
        self.req_shm = self.resp_shm = self.status_shm = None


class ParallelExecutor:
    """Shard ``predict_degraded`` batches across persistent workers.

    Args:
        model: a trained ensemble (anything with ``predict_degraded``).
            Weights reach workers exactly once, by fork-time
            copy-on-write inheritance — never through a per-flush
            pickle.
        workers: persistent worker count; 0 runs in-process (bit-exact
            with the plain path because it *is* the plain path).
        backend: inference backend name shards execute under — each
            worker pins this backend's compiled plans at spawn.
        max_rows: largest batch one ring slot must hold; rings are
            preallocated for it (a larger batch triggers a one-time
            ring rebuild).
        respawn_backoff: base seconds before a crashed worker slot may
            respawn; doubles per consecutive crash up to
            ``respawn_backoff_cap`` (the streaming health-monitor
            idiom).
        metrics: registry executor telemetry lands in (ring occupancy,
            handoff latency, shard wall-clock, crash/respawn counts);
            the process default when omitted.

    The executor presents the model's own ``predict_degraded`` surface
    so the server can treat it as a drop-in model, but the real API is
    the split pair :meth:`submit` / :meth:`collect` — the server
    submits every flushed batch before collecting any, so batches
    overlap across worker sets within a step.  Workers spawn lazily on
    the first submit (input shapes size the rings) and survive until
    :meth:`close`.
    """

    def __init__(self, model, *, workers: int = 0,
                 backend: str = DEFAULT_BACKEND, max_rows: int = 128,
                 meta_max: int = 1 << 16, respawn_backoff: float = 0.05,
                 respawn_backoff_cap: float = 2.0, metrics=None) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self.model = model
        self.workers = int(workers)
        self.backend = backend
        self.max_rows = int(max_rows)
        self.meta_max = int(meta_max)
        self.respawn_backoff = float(respawn_backoff)
        self.respawn_backoff_cap = float(respawn_backoff_cap)
        #: Shard intervals of the last collected batch, as
        #: ``(lo, hi, start, end)`` perf_counter tuples; empty when the
        #: batch ran in-process.  The server turns these into trace spans.
        self.last_shards: list[tuple[int, int, float, float]] = []
        registry = metrics if metrics is not None else get_registry()
        self._registry = registry
        self._shard_hist = registry.histogram(
            "serving_executor_shard_seconds",
            "Wall-clock time of one worker shard")
        self._handoff_hist = registry.histogram(
            "serving_executor_handoff_seconds",
            "Request publish-to-pickup latency through the ring",
            buckets=HANDOFF_BUCKETS)
        self._crashes = registry.counter(
            "serving_worker_crashes_total",
            "Workers declared dead (exit, kill, torn slot, or timeout)")
        self._respawns = registry.counter(
            "serving_worker_respawns_total",
            "Worker slots respawned after a crash")
        self._fallbacks = registry.counter(
            "serving_executor_inproc_fallbacks_total",
            "Batches executed in-process because no worker was available")
        self._geometry: _Geometry | None = None
        #: Merged layout awaiting a safe rebuild (set when a batch
        #: needed new slabs while tickets were in flight; applied by
        #: ``collect`` once the last outstanding ticket drains).
        self._pending_geometry: _Geometry | None = None
        self._handles = [_WorkerHandle(i) for i in range(self.workers)]
        self._job_ids = itertools.count(1)
        self._ctx = get_context("fork")
        #: Worker-backed tickets submitted but not yet collected; a
        #: geometry rebuild is refused while any exist, because tearing
        #: the rings down would strand their in-flight jobs.
        self._inflight = 0
        #: Jobs published for tickets that were aborted mid-submit
        #: (``job_id -> worker``): their responses are dropped on
        #: arrival instead of being stashed forever.
        self._abandoned: dict[int, int] = {}

    # -- geometry --------------------------------------------------------
    def _probe(self, images, imu) -> tuple[int, str]:
        """Class count and probability dtype from a 1-row forward pass."""
        with using_backend(self.backend):
            probe = self.model.predict_degraded(
                images=None if images is None else images[:1],
                imu=None if imu is None else imu[:1])
        return (int(probe.probabilities.shape[1]),
                probe.probabilities.dtype.str)

    def _build_geometry(self, images, imu, count: int) -> _Geometry:
        classes, prob_dtype = self._probe(images, imu)
        return _Geometry(
            max_rows=max(self.max_rows, count),
            img_shape=() if images is None else tuple(images.shape[1:]),
            img_dtype="" if images is None else images.dtype.str,
            imu_shape=() if imu is None else tuple(imu.shape[1:]),
            imu_dtype="" if imu is None else imu.dtype.str,
            classes=classes, prob_dtype=prob_dtype,
            meta_max=self.meta_max)

    def _ensure_geometry(self, images, imu, count: int) -> bool:
        """Size (or re-size) the ring layout for this batch's shapes.

        Returns False when the batch cannot ride the rings right now:
        either it cannot be accommodated even after a rebuild
        (shouldn't happen — defensive), or a rebuild is needed while
        earlier tickets still have jobs in flight — tearing the rings
        down would strand those jobs, so the triggering batch runs
        in-process instead and the rebuild happens on the first submit
        after the step drains.  A modality first seen after workers
        spawned (or a batch beyond ``max_rows``) forces that one-time
        rebuild: every worker is torn down and respawns lazily with
        slabs for the new stream.
        """
        current = self._geometry
        if current is not None and current.fits(images, imu, count):
            return True
        merged = self._build_geometry(images, imu, count)
        base = self._pending_geometry or current
        if base is not None:
            # Preserve slabs for streams this batch happens not to carry.
            merged = _Geometry(
                max_rows=max(base.max_rows, merged.max_rows),
                img_shape=merged.img_shape or base.img_shape,
                img_dtype=merged.img_dtype or base.img_dtype,
                imu_shape=merged.imu_shape or base.imu_shape,
                imu_dtype=merged.imu_dtype or base.imu_dtype,
                classes=merged.classes, prob_dtype=merged.prob_dtype,
                meta_max=self.meta_max)
        if current is not None and self._inflight:
            # Rebuilding now would tear the rings down under in-flight
            # tickets: remember the merged layout and apply it when the
            # last outstanding ticket collects.  This batch (and any
            # like it until then) serves in-process.
            self._pending_geometry = merged
            return False
        if current is not None:
            self._teardown_workers()
        self._pending_geometry = None
        self._geometry = merged
        return merged.fits(images, imu, count)

    # -- worker lifecycle ------------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        geometry = self._geometry
        handle.req_shm = shared_memory.SharedMemory(
            create=True, size=SlotRing.required_bytes(
                RING_SLOTS, geometry.request_payload))
        handle.resp_shm = shared_memory.SharedMemory(
            create=True, size=SlotRing.required_bytes(
                RING_SLOTS, geometry.response_payload))
        handle.status_shm = shared_memory.SharedMemory(
            create=True, size=STATUS_SLOTS * 8)
        handle.status_shm.buf[:] = bytes(STATUS_SLOTS * 8)
        handle.requests = SlotRing(
            handle.req_shm.buf, capacity=RING_SLOTS,
            slot_payload=geometry.request_payload, reset=True)
        handle.responses = SlotRing(
            handle.resp_shm.buf, capacity=RING_SLOTS,
            slot_payload=geometry.response_payload, reset=True)
        handle.status = np.ndarray((STATUS_SLOTS,), dtype=np.uint64,
                                   buffer=handle.status_shm.buf)
        handle.process = self._ctx.Process(
            target=_worker_main,
            args=(self.model, self.backend, geometry, handle.req_shm.name,
                  handle.resp_shm.name, handle.status_shm.name),
            daemon=True)
        handle.process.start()
        handle.spawned_at = time.monotonic()

    def _available_workers(self) -> list[_WorkerHandle]:
        """Live handles, respawning any whose backoff has elapsed.

        A handle found dead here without having been declared (a chaos
        kill between steps, an OOM) is declared now — silent deaths
        must enter the same backoff-respawn path as in-flight crashes.
        """
        ready = []
        for handle in self._handles:
            if handle.alive:
                ready.append(handle)
                continue
            if handle.process is not None:
                self._declare_crashed(handle)   # died since last look
                continue
            if handle.crashes == 0:
                self._spawn(handle)     # first lazy spawn
                ready.append(handle)
            elif time.monotonic() >= handle.next_spawn:
                self._spawn(handle)
                self._respawns.inc()
                ready.append(handle)
        return ready

    def _declare_crashed(self, handle: _WorkerHandle) -> None:
        """Mark a worker dead and schedule its respawn with backoff.

        Idempotent per incarnation: the second caller (a later batch in
        the same step finding the same corpse) is a no-op, so crash
        counts and backoff windows reflect actual deaths.
        """
        if handle.process is None:
            return
        self._crashes.inc()
        handle.crashes += 1
        backoff = min(self.respawn_backoff_cap,
                      self.respawn_backoff * 2 ** (handle.crashes - 1))
        handle.next_spawn = time.monotonic() + backoff
        if handle.process.is_alive():
            handle.process.terminate()  # hung, not dead: put it down
        handle.process.join(timeout=1.0)
        handle.process = None
        handle.release_resources()
        # Abandoned jobs on this worker died with it — their responses
        # will never arrive, so stop waiting to drop them.
        self._abandoned = {job_id: worker for job_id, worker
                           in self._abandoned.items()
                           if worker != handle.index}

    def _teardown_workers(self) -> None:
        # Nothing abandoned can arrive once the rings are gone.
        self._abandoned.clear()
        for handle in self._handles:
            if handle.alive:
                self._send_shutdown(handle)
            if handle.process is not None:
                handle.process.join(timeout=1.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
                handle.process = None
            handle.release_resources()

    def _send_shutdown(self, handle: _WorkerHandle) -> None:
        claim = handle.requests.claim() if handle.requests else None
        if claim is None:
            if handle.process is not None:
                handle.process.terminate()
            return
        _REQ_HEADER.pack_into(claim.payload, 0, SHUTDOWN_JOB, 0, 0, 0, 0.0)
        handle.requests.publish(claim, _REQ_HEADER.size)

    # -- chaos / inspection levers ---------------------------------------
    def kill_worker(self, index: int) -> int | None:
        """SIGKILL a live worker (chaos lever); returns its pid."""
        handle = self._handles[index]
        if not handle.alive:
            return None
        pid = handle.process.pid
        os.kill(pid, signal.SIGKILL)
        handle.process.join(timeout=2.0)
        return pid

    def hold_worker(self, index: int, hold: bool) -> None:
        """Park (or release) a worker after its next job pickup."""
        handle = self._handles[index]
        if handle.status is not None:
            handle.status[STATUS_HOLD] = 1 if hold else 0

    def worker_status(self, index: int) -> dict:
        """Liveness and status-block counters for one worker slot."""
        handle = self._handles[index]
        status = handle.status
        block = ([int(v) for v in status] if status is not None
                 else [0] * STATUS_SLOTS)
        uptime = (time.monotonic() - handle.spawned_at
                  if handle.alive else 0.0)
        return {
            "alive": handle.alive,
            "crashes": handle.crashes,
            "heartbeat": block[STATUS_HEARTBEAT],
            "plans_pinned": bool(block[STATUS_PLANS_PINNED]),
            "jobs_done": block[STATUS_JOBS],
            "busy_seconds": block[STATUS_BUSY_NS] / 1e9,
            "utilization": (block[STATUS_BUSY_NS] / 1e9 / uptime
                            if uptime > 0 else 0.0),
        }

    def wait_until_pinned(self, index: int, timeout: float = 30.0) -> bool:
        """Block until a worker's probe pass has pinned its plans."""
        deadline = time.monotonic() + timeout
        handle = self._handles[index]
        while time.monotonic() < deadline:
            if handle.status is not None and \
                    handle.status[STATUS_PLANS_PINNED]:
                return True
            if not handle.alive:
                return False
            time.sleep(0.002)
        return False

    # -- submission ------------------------------------------------------
    def submit(self, *, images: np.ndarray | None = None,
               imu: np.ndarray | None = None) -> ExecutorTicket:
        """Shard a batch across the live workers; returns a ticket.

        The write side of the async front-end: inputs land in request
        slots and the call returns without waiting for any forward
        pass.  The batch runs in-process here instead — the ticket
        carrying the finished result — when no worker is available
        (workers=0, or every slot is crashed and inside backoff), when
        the batch needs a ring rebuild while earlier tickets are still
        in flight, or when a live worker stays saturated past the
        publish deadline.
        """
        if images is not None:
            images = np.ascontiguousarray(images)
        if imu is not None:
            imu = np.ascontiguousarray(imu)
        count = len(images if images is not None else imu)
        ticket = ExecutorTicket(count=count)
        workers = []
        if self.workers > 0 and self._ensure_geometry(images, imu, count):
            workers = self._available_workers()
        if not workers:
            if self.workers > 0:
                self._fallbacks.inc()
            with using_backend(self.backend):
                ticket.inproc = self.model.predict_degraded(
                    images=images, imu=imu)
            return ticket
        shards = min(len(workers), count)
        bounds = np.linspace(0, count, shards + 1).astype(int)
        pairs = [(int(lo), int(hi))
                 for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        for handle, (lo, hi) in zip(workers, pairs):
            job = self._publish_job(handle, images, imu, lo, hi)
            if job is None:     # worker died under us: abort the ticket
                self._abandon(ticket)
                self._declare_crashed(handle)
                raise WorkerCrashError(
                    f"worker {handle.index} died during submit")
            if job is _BUSY:
                # Alive but saturated past the publish deadline (a hung
                # or deeply backlogged worker): don't kill a live
                # process over backpressure — abandon the shards
                # already published and run the whole batch in-process.
                self._abandon(ticket)
                ticket.jobs = []
                self._fallbacks.inc()
                with using_backend(self.backend):
                    ticket.inproc = self.model.predict_degraded(
                        images=images, imu=imu)
                return ticket
            ticket.jobs.append(job)
        if ticket.jobs:
            self._inflight += 1
        return ticket

    def _abandon(self, ticket: ExecutorTicket) -> None:
        """Mark a ticket's published jobs as never-to-be-collected."""
        for job in ticket.jobs:
            if self._handles[job.worker].stash.pop(job.job_id, None) is None:
                self._abandoned[job.job_id] = job.worker

    def _drain_responses(self, handle: _WorkerHandle) -> bool:
        """Pop any completed responses into the handle's stash.

        Lets submit free response slots while the request ring is full:
        a worker can only pipeline ring-capacity jobs before it blocks
        publishing, so a parent that never pops mid-phase would turn a
        merely backpressured worker into a spurious crash verdict.
        Returns False when the ring is torn (the worker died
        mid-publish).
        """
        while handle.responses is not None:
            try:
                item = handle.responses.try_pop()
            except TornSlotError:
                return False
            if item is None:
                return True
            response = self._decode_response(handle, item)
            job_id = response[0]
            if self._abandoned.pop(job_id, None) is None:
                handle.stash[job_id] = response[1:]
        return True

    def _publish_job(self, handle: _WorkerHandle, images, imu,
                     lo: int, hi: int):
        """Write one shard into the worker's request ring.

        Returns the :class:`_Job` on success, ``None`` when the worker
        died (or tore a slot) under us, and :data:`_BUSY` when the ring
        stayed full past the deadline with the worker still alive.
        """
        geometry = self._geometry
        deadline = time.monotonic() + 10.0
        claim = handle.requests.claim()
        while claim is None:
            if not self._drain_responses(handle) or not handle.alive:
                return None
            if time.monotonic() > deadline:
                return _BUSY
            time.sleep(0.0001)
            claim = handle.requests.claim()
        rows = hi - lo
        offset = _REQ_HEADER.size
        if images is not None:
            chunk = np.ascontiguousarray(images[lo:hi])
            claim.payload[offset:offset + chunk.nbytes] = chunk.tobytes()
        offset += geometry.img_slab
        if imu is not None:
            chunk = np.ascontiguousarray(imu[lo:hi])
            claim.payload[offset:offset + chunk.nbytes] = chunk.tobytes()
        job_id = next(self._job_ids)
        t_publish = time.perf_counter()
        _REQ_HEADER.pack_into(claim.payload, 0, job_id, rows,
                              0 if images is None else 1,
                              0 if imu is None else 1, t_publish)
        handle.requests.publish(claim, geometry.request_payload)
        return _Job(worker=handle.index, job_id=job_id, lo=lo, hi=hi,
                    t_publish=t_publish)

    # -- collection ------------------------------------------------------
    def collect(self, ticket: ExecutorTicket,
                timeout: float = 60.0) -> DegradedPrediction:
        """Redeem a ticket: assemble the batch verdicts from all shards.

        Raises :class:`WorkerCrashError` when any shard's worker died
        (or went silent past ``timeout``) — after draining the
        surviving shards, so no stale response is left to confuse the
        next batch.  The server requeues the batch through its
        dispatch-failure path; by then the dead slot is already
        scheduled for a backoff respawn.
        """
        if ticket.inproc is not None:
            self.last_shards = []
            return ticket.inproc
        try:
            return self._collect_jobs(ticket, timeout)
        finally:
            if ticket.jobs:
                self._inflight = max(0, self._inflight - 1)
                if not self._inflight and \
                        self._pending_geometry is not None:
                    # The deferred rebuild, now that no ticket rides
                    # the rings: workers respawn lazily with the
                    # merged slabs on the next submit.
                    self._teardown_workers()
                    self._geometry = self._pending_geometry
                    self._pending_geometry = None

    def _collect_jobs(self, ticket: ExecutorTicket,
                      timeout: float) -> DegradedPrediction:
        geometry = self._geometry
        probabilities = np.empty((ticket.count, geometry.classes),
                                 dtype=geometry.prob_dtype)
        deadline = time.monotonic() + timeout
        shards: list[tuple[int, int, float, float]] = []
        crashed: list[int] = []
        errors: list[str] = []
        degraded = False
        missing: tuple[str, ...] = ()
        for position, job in enumerate(ticket.jobs):
            handle = self._handles[job.worker]
            response = self._await_response(handle, job, deadline)
            if response is None:
                self._declare_crashed(handle)
                crashed.append(job.worker)
                continue
            rows, is_degraded, meta, probs, t_pickup, t_done = response
            if "error" in meta and meta["error"]:
                errors.append(f"worker {job.worker}: {meta['error']}")
                continue
            probabilities[job.lo:job.hi] = probs
            shards.append((job.lo, job.hi, t_pickup, t_done))
            self._shard_hist.observe(t_done - t_pickup)
            self._handoff_hist.observe(max(0.0, t_pickup - job.t_publish))
            if position == 0:
                degraded = bool(is_degraded)
                missing = meta.get("missing", ())
            if meta.get("metrics"):
                self._registry.merge(meta["metrics"])
        if crashed:
            raise WorkerCrashError(
                f"worker(s) {crashed} died with batch in flight "
                f"({len(ticket.jobs)} shards, {ticket.count} rows)")
        if errors:
            raise ServingError("; ".join(errors))
        self.last_shards = sorted(shards)
        return DegradedPrediction(
            probabilities=probabilities,
            predictions=probabilities.argmax(axis=1),
            confidence=probabilities.max(axis=1),
            degraded=degraded,
            missing=missing,
        )

    def _await_response(self, handle: _WorkerHandle, job: _Job,
                        deadline: float):
        """Pop responses until ``job``'s arrives; None means crashed.

        The stash is checked first — submit's backpressure drain may
        already have popped this job's response.  Responses come back
        in per-worker FIFO order; one with a different job id belongs
        either to a ticket aborted mid-submit (dropped, via the
        abandoned set) or to a later ticket still awaiting its collect
        (stashed), so an aborted batch never poisons the next one.
        """
        stashed = handle.stash.pop(job.job_id, None)
        if stashed is not None:
            return stashed
        misses = 0
        while True:
            try:
                item = (handle.responses.try_pop()
                        if handle.responses is not None else None)
            except TornSlotError:
                return None     # died mid-publish
            if item is None:
                if not handle.alive:
                    misses += 1
                    if misses > 3:  # final drains: none in flight
                        return None
                elif time.monotonic() > deadline:
                    return None
                else:
                    time.sleep(0.00005)
                continue
            misses = 0
            response = self._decode_response(handle, item)
            job_id = response[0]
            if job_id == job.job_id:
                return response[1:]
            if self._abandoned.pop(job_id, None) is None:
                handle.stash[job_id] = response[1:]

    def _decode_response(self, handle: _WorkerHandle, item):
        """Copy one popped response slot out and release it.

        Returns ``(job_id, rows, degraded, meta, probs, t_pickup,
        t_done)`` with the probabilities copied, so the tuple stays
        valid after the slot returns to the worker (or the ring is torn
        down by a later rebuild).
        """
        geometry = self._geometry
        (job_id, rows, is_degraded, meta_len, t_pickup,
         t_done) = _RESP_HEADER.unpack_from(item.payload, 0)
        probs = None
        if rows:
            probs = np.frombuffer(
                item.payload, dtype=np.dtype(geometry.prob_dtype),
                count=rows * geometry.classes,
                offset=_RESP_HEADER.size
            ).reshape(rows, geometry.classes).copy()
        meta_offset = _RESP_HEADER.size + geometry.prob_slab
        meta = pickle.loads(
            bytes(item.payload[meta_offset:meta_offset + meta_len]))
        handle.responses.release(item)
        return job_id, rows, is_degraded, meta, probs, t_pickup, t_done

    # -- facade + telemetry ----------------------------------------------
    def predict_degraded(self, *, images: np.ndarray | None = None,
                         imu: np.ndarray | None = None
                         ) -> DegradedPrediction:
        """Model-compatible synchronous verdict batch (submit + collect)."""
        return self.collect(self.submit(images=images, imu=imu))

    def ring_occupancy(self) -> dict[int, tuple[int, int]]:
        """Per-worker ``(request, response)`` ring occupancy, and gauges."""
        occupancy = {}
        for handle in self._handles:
            if handle.requests is None:
                continue
            req, resp = handle.requests.occupancy, \
                handle.responses.occupancy
            occupancy[handle.index] = (req, resp)
            label = str(handle.index)
            self._registry.gauge(
                "serving_ring_occupancy",
                "Published-but-unreleased request slots",
                worker=label, ring="request").set(req)
            self._registry.gauge(
                "serving_ring_occupancy",
                "Published-but-unreleased response slots",
                worker=label, ring="response").set(resp)
            self._registry.gauge(
                "serving_worker_utilization",
                "Busy fraction of a worker's lifetime",
                worker=label).set(
                    self.worker_status(handle.index)["utilization"])
        return occupancy

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down and release the shared segments."""
        self._teardown_workers()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def default_worker_count() -> int:
    """A sensible ``--workers`` default for this machine (0 on 1 core)."""
    return max(0, (os.cpu_count() or 1) - 1)
