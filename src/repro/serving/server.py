"""The multi-tenant inference server facade.

Ties the serving subsystem together: :class:`~.sessions.DriverSession`
objects absorb raw readings, the
:class:`~.scheduler.MicroBatchScheduler` coalesces verdict requests from
many sessions into vectorized forward passes, the
:class:`~.registry.ServingModelRegistry` resolves each session's model
variant, and the :class:`~.admission.AdmissionController` keeps the whole
thing bounded under overload.

The server is clock-driven like the rest of the streaming stack: callers
ingest readings and request verdicts with explicit timestamps, then
:meth:`InferenceServer.step` flushes due micro-batches and delivers
verdicts.  When a session's camera stream goes stale mid-drive the
request is dispatched IMU-only and classified through
``predict_degraded`` — the driver keeps getting (flagged) verdicts, which
is the whole point of the PR-1 degraded-mode path.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.datasets.imu_synth import DEFAULT_WINDOW_STEPS
from repro.exceptions import ServingError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import Span, Tracer
from repro.serving.admission import AdmissionController, AdmissionDecision
from repro.serving.registry import ServingModelRegistry, as_registry
from repro.serving.scheduler import (
    MODALITY_BOTH,
    MODALITY_FRAMES,
    MODALITY_IMU,
    InferenceRequest,
    MicroBatch,
    MicroBatchScheduler,
)
from repro.serving.sessions import DriverSession, StreamState

#: How many times a request survives a failed batch before it is failed
#: explicitly (one retry: transient faults clear, poison pills do not).
MAX_DISPATCH_RETRIES = 1


@dataclass
class ServingVerdict:
    """One delivered classification."""

    session_id: str
    sequence: int
    timestamp: float          # the grid instant the request was made for
    predicted: int
    probabilities: np.ndarray
    confidence: float
    degraded: bool
    missing: tuple[str, ...]
    model_key: str
    model_generation: int
    batch_size: int
    latency: float            # request-to-delivery in simulation time


#: Uniquifies the ``server`` label across concurrently live servers.
_SERVER_IDS = itertools.count(1)


class ServerStats:
    """Server-level counters and latency accounting, registry-backed.

    Counts live in labelled registry instruments (one ``server=srvN``
    series per server instance); reads keep the original dataclass
    shape, and verdict latency percentiles come from a fixed-bucket
    histogram instead of an unbounded sample list.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 label: str | None = None) -> None:
        registry = registry or get_registry()
        label = label or f"srv{next(_SERVER_IDS)}"
        self.label = label
        self._counters = {
            name: registry.counter(f"serving_{name}_total", server=label)
            for name in ("requests", "verdicts", "degraded_verdicts",
                         "rejected", "unservable", "dispatch_failures",
                         "requests_failed", "requests_expired")
        }
        self._latency = registry.histogram(
            "serving_verdict_latency_seconds",
            "Request-to-delivery latency in simulation time", server=label)

    def incr(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)

    def record_latency(self, value: float) -> None:
        self._latency.observe(value)

    def latency_percentile(self, percentile: float) -> float:
        """Estimated latency percentile in seconds (0.0 before verdicts)."""
        return self._latency.percentile(percentile)

    def __getattr__(self, name: str) -> int:
        counters = object.__getattribute__(self, "_counters")
        if name in counters:
            return int(counters[name].value)
        raise AttributeError(name)


class InferenceServer:
    """Micro-batched multi-driver inference service.

    Args:
        registry: model variants (a bare ensemble may be wrapped with
            :meth:`for_model`).
        max_batch: micro-batch flush size.
        max_delay: micro-batch flush deadline in seconds.
        queue_capacity: bound on queued requests (beyond it the scheduler
            sheds lowest-priority work).
        admission: overload gatekeeper; built with defaults when omitted.
        window_steps: IMU window length for new sessions.
        observability: when False the tracer and per-stage wall-clock
            histograms are disabled (accounting counters stay on) — the
            configuration the overhead benchmark compares against.
        metrics: the registry server telemetry lands in; a private
            per-server registry by default so two servers in one process
            never mix series.
    """

    def __init__(self, registry: ServingModelRegistry, *,
                 max_batch: int = 32, max_delay: float = 0.025,
                 queue_capacity: int = 256,
                 admission: AdmissionController | None = None,
                 window_steps: int = DEFAULT_WINDOW_STEPS,
                 observability: bool = True,
                 metrics: MetricsRegistry | None = None) -> None:
        self.registry = registry
        self.observability = bool(observability)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = Tracer(enabled=self.observability)
        self.scheduler = MicroBatchScheduler(max_batch=max_batch,
                                             max_delay=max_delay,
                                             capacity=queue_capacity,
                                             registry=self.metrics)
        self.admission = admission or AdmissionController(
            registry=self.metrics)
        self.window_steps = int(window_steps)
        self.stats = ServerStats(self.metrics)
        label = self.stats.label
        self._stage = {
            stage: self.metrics.histogram(
                f"serving_stage_{stage}_seconds",
                f"Wall-clock time spent in the {stage} stage",
                server=label)
            for stage in ("admission", "queue", "forward", "combine")
        }
        self.last_dispatch_error: BaseException | None = None
        #: Called with each deadline-expired request popped from the
        #: queue (the supervisor's journal-and-defer ladder rung);
        #: expiry is still counted and traced when the hook is unset.
        self.on_expire = None
        # Shed requests must not leave orphaned active traces behind.
        self.scheduler.on_evict = \
            lambda request: self.tracer.discard(request.trace_id)
        # Session admission/eviction is check-then-act over shared dicts;
        # the lock keeps concurrent open/close callers from double
        # admitting past the cap or leaking an outbox.
        self._session_lock = threading.Lock()
        self._sessions: dict[str, DriverSession] = {}
        self._outboxes: dict[str, list[ServingVerdict]] = {}

    @classmethod
    def for_model(cls, model, **options) -> "InferenceServer":
        """A server over ``model``: a registry as given, or a bare model
        as a single-variant registry (the common case)."""
        return cls(as_registry(model), **options)

    # -- session lifecycle -----------------------------------------------
    @property
    def sessions(self) -> list[str]:
        """Open session ids."""
        return list(self._sessions)

    def session(self, session_id: str) -> DriverSession:
        """The live session object (for stats/inspection)."""
        if session_id not in self._sessions:
            raise ServingError(f"no open session {session_id!r}")
        return self._sessions[session_id]

    def open_session(self, driver_id: int, *, privacy: str | None = None,
                     session_id: str | None = None,
                     base_priority: float = 0.0) -> str:
        """Open a driver session; raises :class:`ServingError` when full."""
        session_id = session_id or f"drv-{driver_id}"
        session = DriverSession(
            session_id=session_id, driver_id=int(driver_id),
            privacy=privacy, window_steps=self.window_steps,
            base_priority=base_priority)
        self._install_session(session)
        return session_id

    def adopt_session(self, session: DriverSession) -> str:
        """Install an externally built session (checkpoint migration).

        The supervisor's failover path: a session restored from a dead
        shard's checkpoint — ring buffer, sequence and counters intact —
        joins this server subject to the same admission cap as a fresh
        open, so migration cannot stampede a survivor past its
        provisioned bound.
        """
        self._install_session(session)
        return session.session_id

    def _install_session(self, session: DriverSession) -> None:
        with self._session_lock:
            decision = self.admission.admit_session(len(self._sessions))
            if decision is not AdmissionDecision.ADMIT:
                raise ServingError(
                    f"session admission rejected: {decision.value} "
                    f"({len(self._sessions)} open)")
            if session.session_id in self._sessions:
                raise ServingError(
                    f"session {session.session_id!r} already open")
            self._sessions[session.session_id] = session
            self._outboxes[session.session_id] = []

    def close_session(self, session_id: str) -> DriverSession:
        """Close a session, returning its final state (with counters)."""
        with self._session_lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise ServingError(f"no open session {session_id!r}")
            del self._sessions[session_id]
            self._outboxes.pop(session_id, None)
        return session

    # -- ingest ----------------------------------------------------------
    def ingest_imu(self, session_id: str, timestamp: float,
                   values: np.ndarray) -> None:
        """Feed one raw 12-feature IMU sample into a session."""
        self.session(session_id).ingest_imu(timestamp, values)

    def ingest_frame(self, session_id: str, timestamp: float,
                     image: np.ndarray) -> None:
        """Feed the latest camera frame into a session."""
        self.session(session_id).ingest_frame(timestamp, image)

    # -- request path ----------------------------------------------------
    def request_verdict(self, session_id: str, now: float, *,
                        expires_at: float | None = None) -> bool:
        """Ask for a verdict at instant ``now``; True if queued.

        The request carries whatever streams are currently LIVE: a stale
        or dead camera yields an IMU-only (degraded) request and vice
        versa.  Returns False when nothing is servable or admission /
        the queue turned the request away.  ``expires_at`` sets the
        request-level deadline: past it the request is popped from the
        queue and handed to :attr:`on_expire` instead of dispatched.
        """
        session = self.session(session_id)
        self.stats.incr("requests")
        admit_start = time.perf_counter() if self.observability else 0.0
        frame = (session.latest_frame()
                 if session.frame_state(now) is StreamState.LIVE else None)
        window = (session.window()
                  if session.imu_state(now) is StreamState.LIVE else None)
        if frame is None and window is None:
            self.stats.incr("unservable")
            return False
        priority = session.priority(now)
        if (self.admission.admit_request(priority, self.scheduler)
                is not AdmissionDecision.ADMIT):
            self.stats.incr("rejected")
            return False
        trace_id = self.tracer.start(f"verdict/{session_id}")
        if self.observability:
            admitted = time.perf_counter()
            self._stage["admission"].observe(admitted - admit_start)
            self.tracer.record(trace_id, "admission", admit_start, admitted,
                               session=session_id)
        request = InferenceRequest(
            session_id=session_id, sequence=session.next_sequence(),
            submitted_at=now, deadline=now + self.scheduler.max_delay,
            priority=priority, model_key=self.registry.route(session.privacy),
            window=window, frame=frame, trace_id=trace_id,
            expires_at=(float("inf") if expires_at is None
                        else float(expires_at)))
        if not self.scheduler.submit(request, now):
            self.stats.incr("rejected")
            self.tracer.discard(trace_id)
            return False
        return True

    # -- dispatch --------------------------------------------------------
    def step(self, now: float, *, force: bool = False
             ) -> list[ServingVerdict]:
        """Flush due micro-batches and deliver their verdicts.

        A batch whose execution raises does not take the server down and
        does not vanish silently: the failure lands on a counter, fresh
        requests go back to the queue for one retry, and requests that
        already burned their retry are failed explicitly (counted, trace
        discarded).  Deadline-expired requests are popped before
        flushing and handed to :attr:`on_expire` — counted, traced,
        never silently dropped.
        """
        for request in self.scheduler.pop_expired(now):
            self.stats.incr("requests_expired")
            self.tracer.discard(request.trace_id)
            if self.on_expire is not None:
                self.on_expire(request)
        verdicts: list[ServingVerdict] = []
        for batch in self.scheduler.flush(now, force=force):
            try:
                verdicts.extend(self._dispatch(batch, now))
            except Exception as error:  # noqa: BLE001 — fault barrier
                self._on_dispatch_failure(batch, error)
        return verdicts

    def _on_dispatch_failure(self, batch: MicroBatch,
                             error: Exception) -> None:
        """Account a failed batch: retry fresh requests, fail the rest."""
        self.last_dispatch_error = error
        self.stats.incr("dispatch_failures")
        retry: list[InferenceRequest] = []
        for request in batch.requests:
            if request.retries < MAX_DISPATCH_RETRIES:
                request.retries += 1
                retry.append(request)
            else:
                self.stats.incr("requests_failed")
                self.tracer.discard(request.trace_id)
        if retry:
            self.scheduler.requeue(retry)

    def drain(self, now: float) -> list[ServingVerdict]:
        """Force-flush everything still queued (end of replay/shutdown)."""
        return self.step(now, force=True)

    def poll(self, session_id: str) -> list[ServingVerdict]:
        """Drain the delivered-verdict outbox of one session."""
        with self._session_lock:
            outbox = self._outboxes.get(session_id)
            if outbox is None:
                raise ServingError(f"no open session {session_id!r}")
            self._outboxes[session_id] = []
        return outbox

    def close(self) -> None:
        """End of service; the in-process server holds nothing to release."""

    def _batch_inputs(self, batch: MicroBatch) -> dict[str, np.ndarray]:
        """The batch's stacked inputs as ``predict_degraded`` kwargs."""
        requests = batch.requests
        if batch.modality == MODALITY_BOTH:
            return {"images": np.stack([r.frame for r in requests]),
                    "imu": np.stack([r.window for r in requests])}
        if batch.modality == MODALITY_IMU:
            return {"imu": np.stack([r.window for r in requests])}
        if batch.modality == MODALITY_FRAMES:
            return {"images": np.stack([r.frame for r in requests])}
        raise ServingError(f"unknown modality {batch.modality!r}")

    def _dispatch(self, batch: MicroBatch, now: float
                  ) -> list[ServingVerdict]:
        """Forward pass and delivery of one flushed batch."""
        model = self.registry.get(batch.model_key)
        observe = self.observability
        forward_start = time.perf_counter() if observe else 0.0
        result = model.predict_degraded(**self._batch_inputs(batch))
        combine_start = time.perf_counter() if observe else 0.0
        if observe:
            self._stage["forward"].observe(combine_start - forward_start)
        return self._deliver(batch, result, now, forward_start,
                             combine_start)

    def _deliver(self, batch: MicroBatch, result, now: float,
                 forward_start: float, combine_start: float
                 ) -> list[ServingVerdict]:
        """Turn one batch result into delivered verdicts + traces."""
        generation = self.registry.record(batch.model_key).generation
        observe = self.observability
        verdicts = []
        for index, request in enumerate(batch.requests):
            verdict = ServingVerdict(
                session_id=request.session_id,
                sequence=request.sequence,
                timestamp=request.submitted_at,
                predicted=int(result.predictions[index]),
                probabilities=result.probabilities[index],
                confidence=float(result.confidence[index]),
                degraded=result.degraded,
                missing=result.missing,
                model_key=batch.model_key,
                model_generation=generation,
                batch_size=len(batch.requests),
                latency=now - request.submitted_at,
            )
            verdicts.append(verdict)
            self.stats.incr("verdicts")
            if verdict.degraded:
                self.stats.incr("degraded_verdicts")
            self.stats.record_latency(verdict.latency)
            with self._session_lock:
                session = self._sessions.get(request.session_id)
                if session is not None:
                    session.record_verdict(verdict.predicted,
                                           verdict.degraded)
                    outbox = self._outboxes.get(request.session_id)
                    if outbox is not None:
                        outbox.append(verdict)
        if observe:
            combine_end = time.perf_counter()
            self._stage["combine"].observe(combine_end - combine_start)
            queue_hist = self._stage["queue"]
            size = len(batch.requests)
            forward_meta = {"batch_size": size, "modality": batch.modality}
            for request in batch.requests:
                queue_hist.observe(batch.flushed_wall - request.enqueued_wall)
                self.tracer.complete(request.trace_id, [
                    Span("queue", request.enqueued_wall, batch.flushed_wall),
                    Span("forward", forward_start, combine_start,
                         forward_meta),
                    Span("combine", combine_start, combine_end),
                ])
        return verdicts

    # -- observability ---------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """One merged snapshot: server series + the process registry.

        Server-scoped instruments (stage latencies, scheduler, admission)
        live on the per-server registry; nn-runtime and streaming series
        land on the process default.  The export merges both so one
        document answers for the whole serving path.
        """
        merged = MetricsRegistry()
        merged.merge(self.metrics.snapshot())
        if get_registry() is not self.metrics:
            merged.merge(get_registry().snapshot())
        return merged.snapshot()

    def traces(self) -> list[dict]:
        """JSON-safe dump of the completed-trace ring."""
        return self.tracer.snapshot()
