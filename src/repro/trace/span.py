"""Spans and trace contexts: the vocabulary of fleet request tracing.

A *trace* is the causal record of one request — one telemetry chunk
entering the fleet — as it crosses subsystem boundaries: loadgen ingress
→ router ring lookup → worker admission → micro-batch assembly → model
predict → session emit → monitor taps.  Each stage records a
:class:`Span`; spans reference their parent by id, so the completed set
reassembles into a tree (:class:`~repro.trace.query.TraceQuery`) without
any global coordination — which is what lets spans recorded inside a
:class:`~repro.fleet.worker.SubprocessWorker` child ship back over the
pipe and merge with the router's spans by id alone.

Two time bases coexist on purpose:

* ``start_s`` / ``end_s`` are stamps on the component's injected clock —
  the fleet's shared :class:`~repro.serve.SimulatedClock` in benches —
  so span intervals line up with batching deadlines, lease expiries, and
  emission latencies on the *replay* timeline.
* ``wall_s`` is real ``time.perf_counter`` compute time spent inside the
  stage.  On a simulated clock every stage of a tick shares one
  timestamp, so per-stage *profiling* (the p50/p95 self-times
  :meth:`~repro.trace.query.TraceQuery.stage_summary` reports) must come
  from wall time.

Tracing is sampled at the root, deterministically (a CRC32 of the
sampling key against the tracer's ``sample`` fraction) — and the *key*
is the caller's choice of grain: the load generator samples whole job
streams (key ``"j<job>"``, one hash per job per replay, complete traces
for sampled jobs) and opens per-chunk roots with :meth:`Tracer.root`;
one-shot callers hash the trace id itself via :meth:`Tracer.begin`.
Either way every downstream instrumentation site is a single ``is
None`` test on the hot path — exactly the
:func:`~repro.resilience.faults.fault_point` discipline.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

__all__ = ["TraceContext", "Span", "Tracer"]


@dataclass(slots=True)
class TraceContext:
    """Propagated trace coordinates: where the next span should attach.

    Crossing a component boundary, the caller passes a context whose
    ``span_id`` is the parent the callee's spans hang under.  The whole
    object is three small strings — it pickles across the subprocess
    worker pipe for free.  Treat it as immutable: contexts are minted
    (``begin``/``child``), never edited — they are plain mutable slots
    only because frozen-dataclass construction costs ~7× more per
    instance, and contexts are minted on the serve hot path.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None


@dataclass(slots=True)
class Span:
    """One completed stage of one request.

    ``status`` is ``"ok"`` unless the stage observed a failure (a worker
    crash mid-request marks the route span ``"failed"``); ``annotations``
    carries stage-specific detail — admission results, batch sizes,
    failover links (``links: <original trace id>``) — and is ``None``
    rather than ``{}`` when empty so untraced-adjacent allocations stay
    off the hot path.  Spans are emitted complete and never mutated; the
    class stays unfrozen because frozen-dataclass construction routes
    every field through ``object.__setattr__`` (~7× the cost), and span
    construction is the single largest term in the tracing overhead the
    bench gates at <5%.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    worker_id: str | None
    start_s: float
    end_s: float
    wall_s: float = 0.0
    status: str = "ok"
    annotations: dict | None = None

    @property
    def duration_s(self) -> float:
        """Clock-time extent of the span (simulated seconds in benches)."""
        return self.end_s - self.start_s

    @property
    def failed(self) -> bool:
        """Whether the stage recorded a failure."""
        return self.status != "ok"


class Tracer:
    """Span factory bound to one sink, one component, one worker label.

    Parameters
    ----------
    sink:
        The :class:`~repro.trace.sink.TraceSink` completed spans append
        to.  Several tracers (load generator, router, each in-process
        worker) share one sink; subprocess workers buffer into a private
        sink whose spans ride each pipe response home.
    component:
        Id-namespace prefix.  Span ids are ``"<component>:<counter>"``,
        so ids minted by different components (including a subprocess
        child) can never collide when merged into one sink.
    worker_id:
        Default ``worker_id`` stamped on spans this tracer emits —
        worker-owned tracers set it so every serve-stage span is
        attributable without threading the id through call sites.
    sample:
        Fraction of sampling keys recorded, decided deterministically
        from a CRC32 of the key — the trace id at :meth:`begin`, or a
        coarser caller-chosen key checked via :meth:`sampled` before
        opening roots with :meth:`root` (production tracing is sampled;
        the bench's parity gates run at ``1.0``).  Unsampled requests
        cost one hash at most — no contexts, no spans.
    """

    def __init__(self, sink, *, component: str = "main",
                 worker_id: str | None = None, sample: float = 1.0):
        if not 0.0 < sample <= 1.0:
            raise ValueError(f"sample must be in (0, 1], got {sample}")
        self.sink = sink
        self.component = str(component)
        self.worker_id = worker_id
        self.sample = float(sample)
        self._threshold = int(round(sample * 0x10000))
        self._n = 0

    def _next_id(self) -> str:
        self._n += 1
        return f"{self.component}:{self._n}"

    def sampled(self, key) -> bool:
        """Deterministic sampling decision (same key → same answer).

        The raw CRC32 is *not* used directly: CRC is linear over GF(2),
        so short sequential keys ("j0", "j1", …) land in clustered
        residues and a nominal 1/32 rate can sample 3× that.  A
        murmur3-style finalizer mix restores binomial behaviour; the
        decision happens once per sampling key (once per job stream in
        the load generator), so the extra arithmetic is off the per-chunk
        path.
        """
        if self._threshold >= 0x10000:
            return True
        h = zlib.crc32(str(key).encode())
        h ^= h >> 16
        h = (h * 0x7FEB352D) & 0xFFFFFFFF
        h ^= h >> 15
        h = (h * 0x846CA68B) & 0xFFFFFFFF
        h ^= h >> 16
        return (h & 0xFFFF) < self._threshold

    def root(self, trace_id) -> TraceContext:
        """Open a root context for ``trace_id``, unconditionally.

        For callers that made the sampling decision at a coarser grain —
        the load generator samples whole *job streams* via
        :meth:`sampled` once, then opens a root per chunk — so per-chunk
        ids never re-hash (and never disagree with the job-level
        decision).  Nothing is recorded yet: the caller emits the root
        span itself (via :meth:`emit` on the returned context) once the
        request's ingress stage has finished, so the root carries real
        timings.
        """
        return TraceContext(str(trace_id), self._next_id(), None)

    def begin(self, trace_id) -> TraceContext | None:
        """Open a root context for ``trace_id``; ``None`` when unsampled.

        The per-trace-grain entry point: hashes ``trace_id`` itself.
        """
        if not self.sampled(trace_id):
            return None
        return self.root(trace_id)

    def child(self, ctx: TraceContext) -> TraceContext:
        """Mint a child context under ``ctx`` (id allocated, not recorded)."""
        return TraceContext(ctx.trace_id, self._next_id(), ctx.span_id)

    def emit(
        self,
        ctx: TraceContext,
        name: str,
        *,
        start_s: float,
        end_s: float,
        wall_s: float = 0.0,
        worker_id: str | None = None,
        status: str = "ok",
        annotations: dict | None = None,
    ) -> None:
        """Record the completed span for ``ctx`` into the sink."""
        # Positional construction: keyword-argument binding alone costs
        # ~2× on a 10-field dataclass, and this is the hot path.
        self.sink.append(Span(
            ctx.trace_id, ctx.span_id, ctx.parent_id, name,
            worker_id if worker_id is not None else self.worker_id,
            start_s, end_s, wall_s, status, annotations,
        ))
