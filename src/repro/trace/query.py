"""Reconstruction and analysis of recorded span trees.

:class:`TraceQuery` takes the flat span list a
:class:`~repro.trace.sink.TraceSink` collected — in whatever interleaved
order the fleet's components emitted — and rebuilds per-request trees by
``(trace_id, parent_id)`` alone.  Three questions drive the API and the
tracing tests:

* **Connectivity** (:meth:`is_connected`): does the trace form one tree —
  exactly one root, every other span's parent present?  A disconnected
  trace means context propagation dropped somewhere (e.g. across the
  subprocess pipe), which is the regression the connectivity tests
  exist to catch.
* **Critical path** (:meth:`critical_path`): root-to-leaf chain through
  the latest-finishing child at each step — where did this request's
  latency actually go?
* **Stage profile** (:meth:`stage_summary`): per-stage p50/p95 *self*
  wall time (own ``wall_s`` minus children's), aggregated across all
  traces — which stage burns the fleet's compute?
"""

from __future__ import annotations

from collections import defaultdict

from repro.trace.span import Span

__all__ = ["TraceQuery"]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    if q <= 0:
        return ordered[0]
    if q >= 100:
        return ordered[-1]
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without float error
    return ordered[int(rank) - 1]


class TraceQuery:
    """Index a span collection for per-trace and per-stage questions."""

    def __init__(self, spans):
        self._spans = list(spans)
        self._by_trace: dict[str, list[Span]] = defaultdict(list)
        for span in self._spans:
            self._by_trace[span.trace_id].append(span)

    def __len__(self) -> int:
        return len(self._spans)

    def trace_ids(self) -> list[str]:
        """Every distinct trace id, in first-emission order."""
        return list(self._by_trace)

    def spans_for(self, trace_id: str) -> list[Span]:
        """All spans of one trace, in emission order."""
        return list(self._by_trace.get(trace_id, ()))

    def roots(self, trace_id: str) -> list[Span]:
        """Spans of the trace whose parent is absent (or None)."""
        spans = self._by_trace.get(trace_id, ())
        ids = {s.span_id for s in spans}
        return [s for s in spans if s.parent_id is None or s.parent_id not in ids]

    def is_connected(self, trace_id: str) -> bool:
        """True when the trace forms exactly one tree.

        One root, and every other span's ``parent_id`` resolves within
        the trace.  An orphan span (its parent lost, e.g. in a killed
        subprocess) makes the trace disconnected.
        """
        spans = self._by_trace.get(trace_id, ())
        if not spans:
            return False
        return len(self.roots(trace_id)) == 1

    def children(self, trace_id: str, span_id: str) -> list[Span]:
        """Direct children of one span, in emission order."""
        return [s for s in self._by_trace.get(trace_id, ())
                if s.parent_id == span_id]

    def failed_spans(self, trace_id: str) -> list[Span]:
        """Spans of the trace with a non-ok status."""
        return [s for s in self._by_trace.get(trace_id, ()) if s.failed]

    def critical_path(self, trace_id: str) -> list[Span]:
        """Root-to-leaf chain through the latest-ending child at each step.

        On the fleet's simulated clock many children share an ``end_s``;
        ties break toward larger ``wall_s`` (the computationally heavier
        branch), then emission order, so the path is deterministic.
        """
        roots = self.roots(trace_id)
        if not roots:
            return []
        path = [max(roots, key=lambda s: s.end_s)]
        while True:
            kids = self.children(trace_id, path[-1].span_id)
            if not kids:
                return path
            path.append(max(enumerate(kids),
                            key=lambda ik: (ik[1].end_s, ik[1].wall_s, ik[0]))[1])

    def stage_summary(self) -> dict[str, dict[str, float]]:
        """Per-stage self-time profile across every trace.

        Self time is a span's ``wall_s`` minus its direct children's
        (clamped at zero — children measured on their own perf counters
        can slightly exceed the parent's window), so stages don't
        double-count nested work.  Returns, per span name::

            {"count": n, "p50_self_s": ..., "p95_self_s": ..., "total_self_s": ...}
        """
        child_wall: dict[tuple[str, str], float] = defaultdict(float)
        for span in self._spans:
            if span.parent_id is not None:
                child_wall[(span.trace_id, span.parent_id)] += span.wall_s
        selfs: dict[str, list[float]] = defaultdict(list)
        for span in self._spans:
            nested = child_wall.get((span.trace_id, span.span_id), 0.0)
            selfs[span.name].append(max(0.0, span.wall_s - nested))
        return {
            name: {
                "count": float(len(values)),
                "p50_self_s": _percentile(values, 50),
                "p95_self_s": _percentile(values, 95),
                "total_self_s": sum(values),
            }
            for name, values in sorted(selfs.items())
        }

    def format_trace(self, trace_id: str) -> str:
        """Render one trace as an indented tree (critical path starred)."""
        crit = {s.span_id for s in self.critical_path(trace_id)}
        lines = [f"trace {trace_id}"]

        def walk(span: Span, depth: int) -> None:
            mark = "*" if span.span_id in crit else " "
            status = "" if span.status == "ok" else f" [{span.status}]"
            where = f" @{span.worker_id}" if span.worker_id else ""
            lines.append(
                f"{mark} {'  ' * depth}{span.name}{where}"
                f" t=[{span.start_s:.3f},{span.end_s:.3f}]"
                f" wall={span.wall_s * 1e6:.1f}us{status}"
            )
            for kid in self.children(trace_id, span.span_id):
                walk(kid, depth + 1)

        for root in self.roots(trace_id):
            walk(root, 1)
        return "\n".join(lines)

    def format_summary(self) -> str:
        """Render the stage profile as an aligned table."""
        rows = self.stage_summary()
        lines = [f"{'stage':<18} {'count':>7} {'p50 self':>10} {'p95 self':>10}"]
        for name, stats in rows.items():
            lines.append(
                f"{name:<18} {int(stats['count']):>7}"
                f" {stats['p50_self_s'] * 1e6:>8.1f}us"
                f" {stats['p95_self_s'] * 1e6:>8.1f}us"
            )
        return "\n".join(lines)
