"""Micro-batching request scheduler.

The throughput win in multi-stream serving comes from coalescing pending
requests from many sessions into single vectorized forward passes (the
shared-model batching of the edge-analytics follow-up work): one batch-32
convolution is far cheaper than 32 batch-1 convolutions, because the BLAS
kernels amortize and the per-layer Python overhead is paid once.

The :class:`MicroBatchScheduler` holds submitted requests in per-group
queues — a group is ``(model variant, modality mask)``, the unit that can
share one forward pass — and flushes a group when it reaches the batch
size *or* its oldest request hits the flush deadline (default 25 ms), so
a lone driver still gets a bounded-latency verdict at 3 a.m.

Under overload the queue sheds lowest-priority work first, mirroring the
send-buffer policy of :mod:`repro.streaming.reliability` (frames are shed
before IMU there; cold sessions are shed before alert-adjacent ones
here).
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry, get_registry

#: Modality masks a request can carry (which streams were live).
MODALITY_BOTH = "both"
MODALITY_IMU = "imu"
MODALITY_FRAMES = "frames"


@dataclass
class InferenceRequest:
    """One session's verdict request at one grid instant."""

    session_id: str
    sequence: int
    submitted_at: float
    deadline: float
    priority: float
    model_key: str
    window: np.ndarray | None = None
    frame: np.ndarray | None = None
    #: Observability: trace id minted at admission, wall-clock enqueue
    #: time stamped by the scheduler, and the dispatch-retry count used
    #: by the server's batch-failure recovery path.
    trace_id: str | None = None
    enqueued_wall: float = 0.0
    retries: int = 0
    #: Request-level deadline in simulation time: past this instant the
    #: request must not be dispatched — it is popped via
    #: :meth:`MicroBatchScheduler.pop_expired` and handed to the server's
    #: degradation ladder instead of silently rotting in the queue.
    expires_at: float = math.inf

    @property
    def modality(self) -> str:
        """Which streams this request carries."""
        if self.window is not None and self.frame is not None:
            return MODALITY_BOTH
        if self.window is not None:
            return MODALITY_IMU
        if self.frame is not None:
            return MODALITY_FRAMES
        raise ConfigurationError("request carries no data at all")

    @property
    def group(self) -> tuple[str, str]:
        """The batching group: same variant + same modality batch together."""
        return (self.model_key, self.modality)


@dataclass
class MicroBatch:
    """A flushed group slice headed for one vectorized forward pass."""

    model_key: str
    modality: str
    requests: list[InferenceRequest]
    flushed_at: float
    #: Wall-clock flush instant — per-request queue latency is
    #: ``flushed_wall - request.enqueued_wall``.
    flushed_wall: float = 0.0

    def __len__(self) -> int:
        return len(self.requests)


#: Uniquifies the ``sched`` label so concurrent schedulers (one per
#: server, several per test process) never share counter series.
_SCHED_IDS = itertools.count(1)


class SchedulerStats:
    """Queue and batching telemetry, registry-backed.

    The PR-2 ad-hoc counter dataclass migrated onto the metrics
    registry: counts live in labelled :class:`~repro.obs.metrics.Counter`
    instruments and the batch-size distribution in a fixed-bucket
    histogram, while the original read API (``stats.shed``,
    ``stats.mean_batch_size`` …) keeps working for callers and tests.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        registry = registry or get_registry()
        label = f"s{next(_SCHED_IDS)}"
        self._counters = {
            name: registry.counter(f"serving_scheduler_{name}_total",
                                   sched=label)
            for name in ("submitted", "rejected", "shed", "requeued",
                         "batches", "dispatched", "expired")
        }
        self._batch_size = registry.histogram(
            "serving_batch_size", "Requests per flushed micro-batch",
            buckets=COUNT_BUCKETS, sched=label)
        self._depth = registry.gauge("serving_queue_depth",
                                     "Requests currently queued",
                                     sched=label)
        self._depth_peak = registry.gauge("serving_queue_depth_peak",
                                          "High-watermark of queue depth",
                                          sched=label)

    # -- write API (scheduler-internal) ----------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)

    def record_batch(self, size: int) -> None:
        self._counters["batches"].inc()
        self._counters["dispatched"].inc(size)
        self._batch_size.observe(size)

    def record_depth(self, depth: int) -> None:
        self._depth.set(depth)
        self._depth_peak.set_max(depth)

    # -- read API (unchanged shape) --------------------------------------
    def __getattr__(self, name: str) -> int:
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            return int(counters[name].value)
        raise AttributeError(name)

    @property
    def batch_size_sum(self) -> int:
        return int(self._batch_size.sum)

    @property
    def max_batch_size(self) -> int:
        return int(self._batch_size.max)

    @property
    def depth_peak(self) -> int:
        return int(self._depth_peak.value)

    @property
    def mean_batch_size(self) -> float:
        return self._batch_size.mean


class MicroBatchScheduler:
    """Deadline/size-triggered micro-batcher with priority shedding.

    Args:
        max_batch: flush a group as soon as it holds this many requests.
        max_delay: seconds a request may wait before its group is flushed
            regardless of size (the micro-batching deadline).
        capacity: total queued requests across all groups; beyond this the
            lowest-priority queued request is shed (or the incoming one is
            rejected if it *is* the lowest).

    Thread safety: queue and counter mutations are guarded by an internal
    lock, and :meth:`flush` *pops* due batches while holding it — the
    (slow) forward pass over a flushed batch happens after flush returns,
    with the lock released, so concurrent sessions can keep enqueueing
    while a batch executes.
    """

    def __init__(self, *, max_batch: int = 32, max_delay: float = 0.025,
                 capacity: int = 256,
                 registry: MetricsRegistry | None = None) -> None:
        if max_batch < 1 or capacity < 1:
            raise ConfigurationError("max_batch and capacity must be >= 1")
        if max_delay < 0:
            raise ConfigurationError("max_delay must be >= 0")
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay)
        self.capacity = int(capacity)
        self.stats = SchedulerStats(registry)
        #: Called with each shed request (the server discards its trace).
        self.on_evict = None
        self._queues: dict[tuple[str, str], list[InferenceRequest]] = {}
        # RLock so public methods can share the locked helpers below.
        self._lock = threading.RLock()

    # -- queue state -----------------------------------------------------
    @property
    def depth(self) -> int:
        """Total queued requests across all groups."""
        with self._lock:
            return sum(len(queue) for queue in self._queues.values())

    def lowest_priority(self) -> float | None:
        """Priority of the most sheddable queued request."""
        with self._lock:
            lowest: float | None = None
            for queue in self._queues.values():
                for request in queue:
                    if lowest is None or request.priority < lowest:
                        lowest = request.priority
            return lowest

    # -- submission ------------------------------------------------------
    def submit(self, request: InferenceRequest, now: float) -> bool:
        """Enqueue a request; returns False if it was rejected.

        When the queue is at capacity the lowest-priority queued request
        is shed to make room; an incoming request that does not beat the
        current lowest priority is rejected instead (shedding it would be
        pointless churn).
        """
        del now
        with self._lock:
            if self.depth >= self.capacity:
                lowest = self.lowest_priority()
                if lowest is not None and request.priority <= lowest:
                    self.stats.incr("rejected")
                    return False
                self._shed_lowest()
            request.enqueued_wall = time.perf_counter()
            self._queues.setdefault(request.group, []).append(request)
            self.stats.incr("submitted")
            self.stats.record_depth(self.depth)
            return True

    def requeue(self, requests: list[InferenceRequest]) -> None:
        """Put already-admitted requests back at the head of their queues.

        The batch-failure recovery path: a flushed batch whose execution
        raised is not silently lost — its requests go back for another
        flush.  Re-queued work bypasses the capacity check (it was
        admitted once; dropping it now would turn a transient model
        fault into silent data loss) and is *not* re-counted as
        submitted, so the accounting identity
        ``submitted == dispatched + shed + queued`` still holds.

        Head-of-line standing is preserved by ``retries``, not insert
        position: :meth:`flush` sorts retried requests ahead of fresh
        ones regardless of priority, and :meth:`_shed_lowest` victimizes
        fresh requests first — a retried request held its queue slot
        once already; a newly arrived higher-priority batch must not
        reorder (or shed) it into a second delay.
        """
        with self._lock:
            for request in requests:
                request.enqueued_wall = time.perf_counter()
                self._queues.setdefault(request.group, []).insert(0, request)
                self.stats.incr("requeued")
            self.stats.record_depth(self.depth)

    def pop_expired(self, now: float) -> list[InferenceRequest]:
        """Remove and return every queued request past its deadline.

        A request whose ``expires_at`` has passed would deliver a
        verdict about a window the driver has already left; dispatching
        it wastes a batch slot and silently dropping it loses the
        window.  The server pops expired requests each step and routes
        them down the degradation ladder (journal-and-defer) instead.
        """
        expired: list[InferenceRequest] = []
        with self._lock:
            for group in list(self._queues):
                queue = self._queues[group]
                keep = [r for r in queue if r.expires_at > now]
                if len(keep) != len(queue):
                    expired.extend(r for r in queue if r.expires_at <= now)
                    if keep:
                        self._queues[group] = keep
                    else:
                        del self._queues[group]
            if expired:
                self.stats.incr("expired", len(expired))
                self.stats.record_depth(self.depth)
        return expired

    def _shed_lowest(self) -> None:
        with self._lock:
            victim_group: tuple[str, str] | None = None
            victim_index = -1
            victim_key = (np.inf, np.inf)
            for group, queue in self._queues.items():
                for index, request in enumerate(queue):
                    # Retried requests are shed last (they were admitted
                    # once; shedding them now would silently lose work
                    # the failure-recovery path promised to retry), and
                    # strict < keeps the earliest submission among
                    # equals, so the oldest of the lowest class goes
                    # first.
                    key = (request.retries, request.priority)
                    if key < victim_key:
                        victim_group, victim_index = group, index
                        victim_key = key
            if victim_group is not None:
                victim = self._queues[victim_group].pop(victim_index)
                self.stats.incr("shed")
                if self.on_evict is not None:
                    self.on_evict(victim)

    # -- flushing --------------------------------------------------------
    def _group_due(self, queue: list[InferenceRequest], now: float) -> bool:
        if len(queue) >= self.max_batch:
            return True
        return bool(queue) and min(r.deadline for r in queue) <= now

    def due(self, now: float) -> bool:
        """Whether any group would flush at ``now``."""
        with self._lock:
            return any(self._group_due(queue, now)
                       for queue in self._queues.values())

    def flush(self, now: float, *, force: bool = False) -> list[MicroBatch]:
        """Pop every due group (all groups when ``force``) as batches.

        Within a group, retried requests dispatch first — a request
        surviving a failed batch keeps its head-of-line standing even
        against a newly arrived higher-priority batch — then
        higher-priority requests (stable for equal priorities,
        preserving submission order), so when a group spans multiple
        batches the alert-adjacent sessions ride in the first one.

        The lock is held only while due batches are popped off the
        queues; the caller runs the forward pass on the returned batches
        with the queues unlocked, so enqueues from other threads are
        never blocked behind model execution.
        """
        batches: list[MicroBatch] = []
        flushed_wall = time.perf_counter()
        with self._lock:
            for group in list(self._queues):
                queue = self._queues[group]
                while queue and (force or self._group_due(queue, now)):
                    queue.sort(key=lambda r: (-r.retries, -r.priority))
                    take, rest = queue[:self.max_batch], queue[self.max_batch:]
                    self._queues[group] = queue = rest
                    batch = MicroBatch(model_key=group[0], modality=group[1],
                                       requests=take, flushed_at=now,
                                       flushed_wall=flushed_wall)
                    batches.append(batch)
                    self.stats.record_batch(len(take))
                if not queue:
                    del self._queues[group]
            if batches:
                self.stats.record_depth(self.depth)
        return batches
