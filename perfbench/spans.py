"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: :meth:`Tracer.wrap`
replaces a bound method on one live object with a timing wrapper, and
:meth:`Tracer.call` times a call the benchmark makes itself.  Nothing in
the program is edited and none of its telemetry is read.

Every span records its name, start, end, parent span and the grid
instant the replayer was issuing (the id all spans of one instant
share).  A span's self time is its duration minus the time its child
spans cover; calls are synchronous and single-threaded, so children nest
strictly inside their parent.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    self_time: float
    instant: float | None
    rows: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans around wrapped calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: The grid instant being replayed; stamped on every span.
        self.instant: float | None = None
        self._stack: list[list] = []      # [span_id, name, child_time]
        self._next_id = 0

    def call(self, name: str, fn, *args, rows: int = 0, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent[2] += end - start
            self.spans.append(Span(
                span_id, parent[0] if parent is not None else None, name,
                start, end, end - start - frame[2], self.instant, rows))

    def wrap(self, owner, attr: str, name: str, *, rows=None,
             on_result=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``rows(args, kwargs)`` gives the batch size the span carries;
        ``on_result(result, args, kwargs)`` sees each return value.
        """
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            count = rows(args, kwargs) if rows is not None else 0
            result = self.call(name, inner, *args, rows=count, **kwargs)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        """Write the recorded spans out as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id, "parent": span.parent,
                    "name": span.name, "start": span.start,
                    "end": span.end, "instant": span.instant,
                    "rows": span.rows}) + "\n")


@dataclass
class LayerTotals:
    calls: int = 0
    rows: int = 0
    busy: float = 0.0    # outermost spans of this name, children included
    self_time: float = 0.0


def layer_totals(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per-name call counts, rows, busy time and self time.

    Busy time counts only the outermost span of a name, so a layer that
    calls itself (a combiner method delegating to another) is not
    counted twice.
    """
    names = {span.span_id: span.name for span in spans}
    totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for span in spans:
        entry = totals[span.name]
        entry.calls += 1
        entry.self_time += span.self_time
        if names.get(span.parent) != span.name:
            entry.busy += span.duration
            entry.rows += span.rows
    return totals


def top_level_time(spans: list[Span], start: float, end: float) -> float:
    """Wall time inside ``[start, end]`` covered by parentless spans."""
    return sum(min(span.end, end) - max(span.start, start)
               for span in spans
               if span.parent is None and span.end > start
               and span.start < end)
