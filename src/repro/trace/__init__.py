"""End-to-end request tracing across the serving fleet.

Aggregate counters (:mod:`repro.serve.metrics`) say *how much*; traces
say *which path*.  Each telemetry chunk entering the fleet can carry a
:class:`TraceContext` through loadgen ingress → ring routing → worker
admission → micro-batch assembly → model predict → session emit →
monitor taps — across the subprocess-worker pipe boundary and through
failover-by-replay (rebuilt sessions record spans in the original
request's trace).  Completed :class:`Span` s land in a bounded
:class:`TraceSink` (optionally persisted to a torn-tail-safe
:class:`~repro.utils.persist.FramedLog`), and :class:`TraceQuery`
reconstructs per-request span trees, critical paths, and per-stage
p50/p95 self-time profiles.

The tier-1 tests pin that traced and untraced fleets emit identically
(under failover too) and that every completed request's trace forms one
connected tree; ``repro bench trace`` gates sampled tracing at <5% on
the serve hot path.
"""

from repro.trace.query import TraceQuery
from repro.trace.sink import TraceSink, load_spans
from repro.trace.span import Span, TraceContext, Tracer

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "TraceSink",
    "TraceQuery",
    "load_spans",
]
