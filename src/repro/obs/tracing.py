"""Lightweight request tracing.

A *trace* follows one request through the pipeline's stages — for a
serving request: admission, queue, forward, combine — as a flat list of
named :class:`Span`\\ s sharing a trace id.  The id is minted where the
request enters the system (``InferenceServer.request_verdict``), rides on
the request object through the scheduler and dispatch, and every stage
appends its span with either the context-manager API (the stage wraps its
own work) or :meth:`Tracer.record` (the stage already measured the
interval, e.g. queue wait between submit and flush).

The tracer is deliberately small: no propagation contexts, no sampling
tax on the hot path beyond one dict lookup, and a bounded ring of
completed traces so a long-lived server holds recent evidence rather
than an unbounded history.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One named stage interval inside a trace (perf_counter seconds)."""

    name: str
    start: float
    end: float
    meta: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        entry = {"name": self.name, "duration_s": self.duration}
        if self.meta:
            entry["meta"] = dict(self.meta)
        return entry


@dataclass
class Trace:
    """All spans recorded for one request."""

    trace_id: str
    name: str
    spans: list[Span] = field(default_factory=list)
    complete: bool = False

    @property
    def duration(self) -> float:
        """Total of recorded span durations (stages can be disjoint)."""
        return sum(span.duration for span in self.spans)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "name": self.name,
            "complete": self.complete,
            "duration_s": self.duration,
            "spans": [span.to_dict() for span in self.spans],
        }

    def format(self) -> str:
        """Human-readable one-trace rendering."""
        lines = [f"trace {self.trace_id} ({self.name}) — "
                 f"{self.duration * 1e3:.3f} ms over {len(self.spans)} "
                 f"span(s){'' if self.complete else ' [incomplete]'}"]
        for span in self.spans:
            lines.append(f"  {span.name:<12} {span.duration * 1e6:9.1f} us"
                         + (f"  {span.meta}" if span.meta else ""))
        return "\n".join(lines)


class Tracer:
    """Mints trace ids and collects spans into bounded trace storage.

    Args:
        max_traces: completed traces retained (oldest evicted first).
        enabled: a disabled tracer turns every call into a cheap no-op,
            which is how the serving tier switches observability off for
            the overhead benchmark.
    """

    def __init__(self, *, max_traces: int = 128, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._next_id = 0
        self._active: dict[str, Trace] = {}
        self._completed: deque[Trace] = deque(maxlen=int(max_traces))

    # -- lifecycle -------------------------------------------------------
    def start(self, name: str) -> str | None:
        """Open a new trace; returns its id (``None`` when disabled)."""
        if not self.enabled:
            return None
        with self._lock:
            self._next_id += 1
            trace_id = f"t{self._next_id:06d}"
            self._active[trace_id] = Trace(trace_id=trace_id, name=name)
            return trace_id

    def record(self, trace_id: str | None, name: str, start: float,
               end: float, **meta) -> None:
        """Append an externally timed span to an active trace."""
        if trace_id is None or not self.enabled:
            return
        with self._lock:
            trace = self._active.get(trace_id)
            if trace is not None:
                trace.spans.append(Span(name, start, end, dict(meta)))

    @contextmanager
    def span(self, trace_id: str | None, name: str, **meta):
        """Time a block as one span of ``trace_id``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(trace_id, name, start, time.perf_counter(), **meta)

    def finish(self, trace_id: str | None) -> None:
        """Mark a trace complete and move it to the bounded history."""
        if trace_id is None or not self.enabled:
            return
        with self._lock:
            trace = self._active.pop(trace_id, None)
            if trace is not None:
                trace.complete = True
                self._completed.append(trace)

    def complete(self, trace_id: str | None, spans: list[Span]) -> None:
        """Append pre-built spans and finish, in one locked step.

        Hot-path helper for batch dispatch: recording queue/forward/
        shard/combine and finishing each request costs one lock
        acquisition instead of five.  Spans are appended after anything
        already recorded on the trace (e.g. admission).
        """
        if trace_id is None or not self.enabled:
            return
        with self._lock:
            trace = self._active.pop(trace_id, None)
            if trace is not None:
                trace.spans.extend(spans)
                trace.complete = True
                self._completed.append(trace)

    def discard(self, trace_id: str | None) -> None:
        """Drop an active trace without archiving (request failed early)."""
        if trace_id is None:
            return
        with self._lock:
            self._active.pop(trace_id, None)

    # -- inspection ------------------------------------------------------
    @property
    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    def completed(self) -> list[Trace]:
        """Completed traces, oldest first."""
        with self._lock:
            return list(self._completed)

    def last_completed(self) -> Trace | None:
        with self._lock:
            return self._completed[-1] if self._completed else None

    def snapshot(self) -> list[dict]:
        """JSON-safe dump of the completed-trace ring."""
        return [trace.to_dict() for trace in self.completed()]
