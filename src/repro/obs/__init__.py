"""Unified observability: metrics registry, request tracing, exporters.

The pipeline's runtime signals — reliability counters, scheduler/queue
telemetry, per-stage serving latencies, nn plan compiles, arena
allocations and layer timings — all land in a :class:`MetricsRegistry` and come out through one
snapshot, renderable as JSON, Prometheus text, or a human table
(``repro stats``).  See DESIGN.md §11 for the design rationale.
"""

from repro.obs.export import (
    QUANTILES,
    bundle,
    histogram_percentile,
    load_snapshot,
    render_prometheus,
    render_text,
    render_traces,
    save_snapshot,
)
from repro.obs.metrics import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from repro.obs.tracing import Span, Trace, Tracer

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "reset_registry",
    "LATENCY_BUCKETS", "COUNT_BUCKETS",
    "Span", "Trace", "Tracer",
    "bundle", "save_snapshot", "load_snapshot", "histogram_percentile",
    "render_prometheus", "render_text", "render_traces", "QUANTILES",
]
