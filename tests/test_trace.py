"""Tracing subsystem tests: spans, sampling, sink/WAL, query, threading.

The end-to-end serve/fleet paths run tiny replays (few jobs, few ticks)
at ``sample=1.0`` so every request is traced; crash-path tracing with a
real SIGKILL lives in ``tests/test_fleet_crash.py``.
"""

import time

import numpy as np
import pytest

from repro.fleet import FleetRouter, FleetWorker
from repro.fleet.health import HeartbeatMonitor
from repro.perf.benches import ThresholdModel
from repro.resilience.faults import FaultSpec, InjectedFault, inject
from repro.serve import FleetLoadGenerator, ServeConfig, SimulatedClock
from repro.serve.server import InferenceServer
from repro.trace import Span, TraceContext, TraceQuery, TraceSink, Tracer, load_spans


def _span(trace_id, span_id, parent_id=None, name="stage", *, start=0.0,
          end=1.0, wall=0.0, status="ok", worker_id=None, annotations=None):
    return Span(trace_id, span_id, parent_id, name, worker_id,
                start, end, wall, status, annotations)


class TestTracer:
    def test_span_ids_are_component_namespaced_and_unique(self):
        sink = TraceSink()
        a = Tracer(sink, component="router")
        b = Tracer(sink, component="w0")
        ids = [a.root("t").span_id, a.root("t").span_id, b.root("t").span_id]
        assert len(set(ids)) == 3
        assert ids[0].startswith("router:") and ids[2].startswith("w0:")

    def test_child_links_to_parent_same_trace(self):
        tracer = Tracer(TraceSink())
        root = tracer.root("t1")
        child = tracer.child(root)
        assert child.trace_id == "t1"
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_emit_uses_tracer_worker_id_unless_overridden(self):
        sink = TraceSink()
        tracer = Tracer(sink, component="w3", worker_id="w3")
        ctx = tracer.root("t")
        tracer.emit(ctx, "a", start_s=0.0, end_s=1.0)
        tracer.emit(ctx, "b", start_s=0.0, end_s=1.0, worker_id="other")
        assert [s.worker_id for s in sink.spans()] == ["w3", "other"]

    def test_sample_validation(self):
        with pytest.raises(ValueError, match="sample"):
            Tracer(TraceSink(), sample=0.0)
        with pytest.raises(ValueError, match="sample"):
            Tracer(TraceSink(), sample=1.5)

    def test_begin_sampling_is_deterministic(self):
        a = Tracer(TraceSink(), sample=0.25)
        b = Tracer(TraceSink(), sample=0.25)
        keys = [f"j{i}.t{j}" for i in range(32) for j in range(4)]
        assert [a.sampled(k) for k in keys] == [b.sampled(k) for k in keys]
        for k in keys:
            ctx = a.begin(k)
            assert (ctx is not None) == a.sampled(k)
            if ctx is not None:
                assert ctx.trace_id == k and ctx.parent_id is None

    def test_sampled_fraction_tracks_nominal_rate(self):
        # CRC32 alone clusters short sequential keys (it is GF(2)-linear);
        # the finalizer mix must keep observed rates near nominal.
        for sample in (1.0 / 8.0, 1.0 / 16.0):
            tracer = Tracer(TraceSink(), sample=sample)
            got = sum(tracer.sampled(f"j{i}") for i in range(4096)) / 4096
            assert got == pytest.approx(sample, rel=0.35)

    def test_root_ignores_sampling(self):
        tracer = Tracer(TraceSink(), sample=1.0 / 65536.0)
        assert all(tracer.root(f"k{i}") is not None for i in range(16))

    def test_full_sample_skips_hashing(self):
        tracer = Tracer(TraceSink(), sample=1.0)
        assert tracer.sampled("anything")


class TestTraceSink:
    def test_capacity_evicts_oldest_and_counts_dropped(self):
        sink = TraceSink(capacity=8)
        for i in range(20):
            sink.append(_span("t", f"s:{i}"))
        assert len(sink) == 8
        assert sink.dropped == 12
        assert [s.span_id for s in sink.spans()] == [
            f"s:{i}" for i in range(12, 20)]

    def test_drain_empties_and_extend_merges(self):
        sink = TraceSink()
        sink.append(_span("t", "s:1"))
        shipped = sink.drain()
        assert len(sink) == 0 and [s.span_id for s in shipped] == ["s:1"]
        other = TraceSink()
        other.extend(shipped)
        assert [s.span_id for s in other.spans()] == ["s:1"]

    def test_wal_round_trip_preserves_every_field(self, tmp_path):
        sink = TraceSink(wal_dir=tmp_path, fsync=False)
        spans = [
            _span("t1", "a:1", None, "request", wall=1e-5,
                  annotations={"job": 3}),
            _span("t1", "a:2", "a:1", "route", status="failed",
                  worker_id="w0"),
        ]
        sink.extend(spans)
        assert sink.flush() == 2
        assert load_spans(tmp_path) == spans
        assert sink.n_staged == 0

    def test_auto_flush_at_threshold(self, tmp_path):
        sink = TraceSink(wal_dir=tmp_path, flush_every=4, fsync=False)
        for i in range(9):
            sink.append(_span("t", f"s:{i}"))
        # two automatic flushes of 4; one span still staged
        assert sink.n_staged == 1
        assert len(load_spans(tmp_path)) == 8

    def test_crash_mid_flush_keeps_earlier_batches_and_retries(self, tmp_path):
        sink = TraceSink(wal_dir=tmp_path, flush_every=1 << 30, fsync=False)
        first = [_span("t", f"a:{i}") for i in range(5)]
        second = [_span("t", f"b:{i}") for i in range(5)]
        sink.extend(first)
        sink.flush()
        sink.extend(second)
        with inject(FaultSpec("trace.sink.flush", mode="raise")):
            with pytest.raises(InjectedFault):
                sink.flush()
        # torn tail is invisible to recovery; the batch stayed staged
        assert load_spans(tmp_path) == first
        assert sink.n_staged == len(second)
        sink.flush()
        assert load_spans(tmp_path) == first + second

    def test_new_sink_over_torn_log_trims_then_appends(self, tmp_path):
        crashed = TraceSink(wal_dir=tmp_path, fsync=False)
        crashed.extend([_span("t", f"a:{i}") for i in range(3)])
        crashed.flush()
        crashed.extend([_span("t", "lost:1")])
        with inject(FaultSpec("trace.sink.flush", mode="raise")):
            with pytest.raises(InjectedFault):
                crashed.flush()
        # a fresh process opens the same dir: the torn frame is trimmed
        # on its first flush and never resurfaces
        fresh = TraceSink(wal_dir=tmp_path, fsync=False)
        fresh.extend([_span("t", "c:1")])
        fresh.flush()
        got = [s.span_id for s in load_spans(tmp_path)]
        assert got == ["a:0", "a:1", "a:2", "c:1"]


class TestTraceQuery:
    def _tree(self):
        return [
            _span("t", "g:1", None, "request", start=0.0, end=4.0, wall=2e-6),
            _span("t", "s:1", "g:1", "ingest", start=0.0, end=0.0, wall=9e-6),
            _span("t", "s:2", "g:1", "batch.wait", start=0.0, end=3.0),
            _span("t", "s:3", "g:1", "emit", start=3.0, end=4.0, wall=4e-6),
        ]

    def test_connectivity(self):
        query = TraceQuery(self._tree())
        assert query.is_connected("t")
        orphaned = self._tree() + [_span("t", "x:9", "missing", "route")]
        assert not TraceQuery(orphaned).is_connected("t")
        two_roots = self._tree() + [_span("t", "x:9", None, "request")]
        assert not TraceQuery(two_roots).is_connected("t")
        assert not TraceQuery([]).is_connected("t")

    def test_critical_path_follows_latest_ending_child(self):
        query = TraceQuery(self._tree())
        assert [s.span_id for s in query.critical_path("t")] == ["g:1", "s:3"]

    def test_stage_summary_self_time(self):
        # request's self wall time excludes its children's wall time
        summary = TraceQuery(self._tree()).stage_summary()
        assert summary["ingest"]["count"] == 1
        assert summary["ingest"]["p50_self_s"] == pytest.approx(9e-6)
        assert summary["request"]["total_self_s"] == pytest.approx(0.0)

    def test_failed_spans_and_formatting(self):
        spans = self._tree() + [
            _span("t", "s:4", "g:1", "route", status="failed",
                  worker_id="w0"),
        ]
        query = TraceQuery(spans)
        assert [s.span_id for s in query.failed_spans("t")] == ["s:4"]
        rendered = query.format_trace("t")
        assert "request" in rendered and "[failed]" in rendered
        assert "@w0" in rendered
        table = query.format_summary()
        assert "batch.wait" in table


class TestServeTracing:
    def _replay(self, *, traced):
        clock = SimulatedClock()
        series = [np.full((270, 7), 80.0), np.full((270, 7), 20.0)]
        gen = FleetLoadGenerator(series, n_jobs=3, samples_per_tick=90,
                                 max_samples_per_job=270, seed=3, clock=clock)
        sink = TraceSink() if traced else None
        server = InferenceServer(
            ThresholdModel(),
            ServeConfig(window=90, hop=90, flush_deadline_s=0.0),
            clock=clock,
            tracer=Tracer(sink, component="srv", worker_id="srv")
            if traced else None,
        )
        tracer = Tracer(sink, component="gen") if traced else None
        report = gen.run(server, tracer=tracer)
        return report, sink

    def test_traced_replay_emits_identically_and_connects(self):
        traced_report, sink = self._replay(traced=True)
        untraced_report, _ = self._replay(traced=False)

        def key(report):
            return [(e.job_id, e.prediction.sample_index,
                     e.prediction.label) for e in report.emissions]

        assert key(traced_report) == key(untraced_report)
        query = TraceQuery(sink.spans())
        trace_ids = query.trace_ids()
        assert len(trace_ids) == 9           # 3 jobs x 3 chunks
        assert all(query.is_connected(t) for t in trace_ids)
        names = {s.name for s in sink.spans()}
        assert {"request", "ingest", "batch.wait", "predict", "emit"} <= names
        ingest = next(s for s in sink.spans() if s.name == "ingest")
        assert ingest.annotations["rows"] == 90

    def test_server_without_tracer_accepts_trace_contexts(self):
        clock = SimulatedClock()
        server = InferenceServer(
            ThresholdModel(),
            ServeConfig(window=90, hop=90, flush_deadline_s=0.0),
            clock=clock,
        )
        ctx = Tracer(TraceSink()).root("t")
        assert server.submit(0, np.ones((90, 7)), trace=ctx)
        assert server.step() != [] or True   # processes without error

    def test_untraced_submit_records_no_spans(self):
        sink = TraceSink()
        clock = SimulatedClock()
        server = InferenceServer(
            ThresholdModel(),
            ServeConfig(window=90, hop=90, flush_deadline_s=0.0),
            clock=clock, tracer=Tracer(sink, component="srv"),
        )
        server.submit(0, np.ones((90, 7)))
        server.step()
        assert sink.spans() == []


class TestTracedFailover:
    """A 4-worker fleet with w0 killed mid-step, traced vs untraced."""

    def _killed_replay(self, *, traced):
        clock = SimulatedClock()
        rng = np.random.default_rng(2022)
        series = [rng.random((900, 7)) * 100.0 for _ in range(8)]
        gen = FleetLoadGenerator(series, n_jobs=16, samples_per_tick=90,
                                 max_samples_per_job=900, seed=2022,
                                 clock=clock)
        sink = TraceSink() if traced else None
        workers = [
            FleetWorker(
                f"w{i}", ThresholdModel(),
                ServeConfig(window=90, hop=90, flush_deadline_s=0.0),
                clock=clock,
                tracer=(Tracer(sink, component=f"w{i}", worker_id=f"w{i}")
                        if traced else None))
            for i in range(4)
        ]
        router = FleetRouter(
            workers, history=gen.job_stream,
            tracer=Tracer(sink, component="router") if traced else None)
        # each router.step() trips the crash point once per live worker in
        # sorted-id order: hit 3 * 4 + 1 is w0 at the top of tick 3
        with inject(FaultSpec("fleet.worker.crash", at_hit=3 * 4 + 1,
                              mode="raise")):
            report = gen.run(
                router,
                tracer=Tracer(sink, component="gen") if traced else None)
        return report, router, sink

    def test_tracing_never_steers_and_every_trace_connects(self):
        traced, router, sink = self._killed_replay(traced=True)
        untraced, _, _ = self._killed_replay(traced=False)

        def keys(report):
            return [(e.job_id, e.prediction.sample_index, e.prediction.label,
                     e.prediction.smoothed_label, e.prediction.confidence)
                    for e in report.emissions]

        assert keys(traced) and keys(traced) == keys(untraced)  # order too
        spans = sink.spans()
        query = TraceQuery(spans)
        trace_ids = query.trace_ids()
        assert trace_ids and all(query.is_connected(t) for t in trace_ids)
        # the in-flight request on the killed worker carries a failed
        # worker.lost span, and the failover spans link its trace id
        [event] = [e for e in router.events if e.kind == "failover"]
        assert any(s.name == "worker.lost" and s.worker_id == event.worker_id
                   for t in trace_ids for s in query.failed_spans(t))
        links = [(s.trace_id, s.annotations.get("links")) for s in spans
                 if s.name in ("failover.rebuild", "failover.replay")
                 and s.annotations]
        assert links and all(t == link for t, link in links)


class TestFleetClockPropagation:
    """Satellite: one injected clock must reach every component."""

    def _worker(self, wid, clock):
        return FleetWorker(
            wid, ThresholdModel(),
            ServeConfig(window=90, hop=90, flush_deadline_s=0.0),
            clock=clock,
        )

    def test_router_propagates_one_shared_clock_everywhere(self):
        clock = SimulatedClock()
        health = HeartbeatMonitor(lease_s=5.0)      # defaults to monotonic
        assert health.clock is time.monotonic
        router = FleetRouter(
            [self._worker("w0", clock), self._worker("w1", clock)],
            clock=clock, health=health,
        )
        holders = [router.clock, health.clock]
        for wid in router.worker_ids:
            worker = router.worker(wid)
            holders += [worker.clock, worker.server.clock,
                        worker.server.batcher.clock]
        assert all(h is clock for h in holders)
        assert time.monotonic not in holders

    def test_router_adopts_first_workers_clock_when_unset(self):
        clock = SimulatedClock()
        router = FleetRouter([self._worker("w0", clock)])
        assert router.clock is clock

    def test_added_worker_is_rebound_to_router_clock(self):
        clock = SimulatedClock()
        router = FleetRouter([self._worker("w0", clock)], clock=clock)
        stray = self._worker("w2", SimulatedClock())
        router.add_worker(stray)
        assert stray.clock is clock
        assert stray.server.clock is clock
        assert stray.server.batcher.clock is clock
