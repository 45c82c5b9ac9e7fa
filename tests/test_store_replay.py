"""Tests for deterministic replay from the telemetry store: emission-trace
bit-identity across shard counts and rate multipliers, zero-copy loadgen
streams, drift injection on archived telemetry, and the simulate→store
archive path."""

import numpy as np
import pytest

from repro.monitor.inject import DriftInjection
from repro.perf.benches import MeanSignModel
from repro.serve.loadgen import FleetLoadGenerator
from repro.serve.server import InferenceServer, ServeConfig
from repro.simcluster.workload import DEFAULT_DT_S
from repro.store import TelemetryStore


def _filled_store(root, n_shards=2, n_jobs=6, n=700):
    store = TelemetryStore(root, n_shards=n_shards)
    for job_id in range(n_jobs):
        rng = np.random.default_rng(100 + job_id)
        series = rng.normal((-1.0) ** job_id, 0.3,
                            size=(n, 7)).astype(np.float32)
        store.append(job_id, series, label=job_id % 2,
                     model_name=f"m{job_id % 2}")
    store.flush()
    return store


_SERVE = ServeConfig(window=540, hop=90, vote_window=3)


def _replay(store, rate=1.0, drift=None, seed=3):
    gen = FleetLoadGenerator.from_store(store, n_jobs=6, seed=seed,
                                        rate=rate, drift=drift)
    return gen.run(InferenceServer(MeanSignModel(), _SERVE, clock=gen.clock))


def _trace(store, rate=1.0, drift=None):
    report = _replay(store, rate=rate, drift=drift)
    return [
        (e.job_id, int(e.prediction.label), int(e.prediction.smoothed_label))
        for e in report.emissions
    ]


class TestReplayDeterminism:
    def test_identical_across_shard_counts_and_rates(self, tmp_path):
        traces = []
        for n_shards in (1, 3):
            store = _filled_store(tmp_path / f"s{n_shards}", n_shards=n_shards)
            for rate in (1.0, 4.0):
                traces.append(_trace(store, rate=rate))
            store.close()
        assert len(traces[0]) > 0
        for other in traces[1:]:
            assert other == traces[0]

    def test_identical_after_reopen(self, tmp_path):
        store = _filled_store(tmp_path / "s")
        fresh = _trace(store)
        store.close()
        with TelemetryStore(tmp_path / "s") as reopened:
            assert _trace(reopened) == fresh

    def test_rate_rescales_simulated_time_only(self, tmp_path):
        with _filled_store(tmp_path / "s") as store:
            gen = FleetLoadGenerator.from_store(store, n_jobs=6, rate=4.0)
            assert gen.tick_s == pytest.approx(90 * DEFAULT_DT_S / 4.0)
            report = _replay(store, rate=4.0, seed=0)
            base = _replay(store, rate=1.0, seed=0)
            assert report.n_predictions == base.n_predictions
            assert report.sim_seconds == pytest.approx(base.sim_seconds / 4.0)

    def test_invalid_rate_rejected(self, tmp_path):
        with _filled_store(tmp_path / "s") as store:
            with pytest.raises(ValueError, match="rate"):
                FleetLoadGenerator.from_store(store, rate=0.0)


class TestFromStoreLoadgen:
    def test_streams_are_zero_copy_float32(self, tmp_path):
        with _filled_store(tmp_path / "s") as store:
            gen = FleetLoadGenerator.from_store(store, n_jobs=6,
                                                min_samples=540, seed=0)
            assert gen.n_jobs == 6
            shared = 0
            for series in gen.series:
                assert series.dtype == np.float32
                shared += any(
                    np.shares_memory(series, store.series(job_id))
                    for job_id in range(6)
                )
            # keep_dtype=True means the archived mmap rows are streamed
            # directly — no per-job copy was taken.
            assert shared == len(gen.series)

    def test_short_trials_filtered(self, tmp_path):
        with TelemetryStore(tmp_path / "s") as store:
            store.append(0, np.zeros((700, 7), dtype=np.float32))
            store.append(1, np.zeros((100, 7), dtype=np.float32))
            store.flush()
            gen = FleetLoadGenerator.from_store(store, n_jobs=8,
                                                min_samples=540)
            # The short trial is dropped from the donor stream pool.
            assert len(gen.series) == 1

    def test_empty_store_rejected(self, tmp_path):
        with TelemetryStore(tmp_path / "s") as store:
            with pytest.raises(ValueError):
                FleetLoadGenerator.from_store(store)


class TestReplayWithDrift:
    def test_drift_perturbs_archived_streams(self, tmp_path):
        with _filled_store(tmp_path / "s") as store:
            # A large positive offset flips every negative-mean stream.
            drift = DriftInjection(start_sample=0, ramp_samples=1,
                                   offset=50.0, clip=False)
            clean = _trace(store)
            drifted = _trace(store, drift=drift)
            assert len(drifted) == len(clean)
            assert drifted != clean
            # The archive itself is untouched by the injection.
            assert _trace(store) == clean


class TestSimulateIntoStore:
    def test_generate_archives_bit_identical_series(self, tmp_path,
                                                    tiny_sim_config):
        from repro.simcluster.cluster import ClusterSimulator

        with TelemetryStore(tmp_path / "s", n_shards=4) as store:
            jobs, _ = ClusterSimulator(tiny_sim_config).generate(store=store)
            for job in jobs:
                for gs in job.gpu_series:
                    got = store.series(job.record.job_id, gs.gpu_index)
                    np.testing.assert_array_equal(
                        got, np.asarray(gs.data, dtype=np.float32)
                    )
            # Already sealed: the ingest flushed before generate returned.
            assert store.stats()["wal_resident_trials"] == 0

    def test_replayed_windows_and_compacted_moments_match_raw_rows(
            self, tmp_path, tiny_sim_config):
        from repro.data.fulltrace import full_trace_covariance
        from repro.serve.session import StreamSession
        from repro.simcluster.cluster import ClusterSimulator
        from repro.store.compact import compact_store

        jobs, _ = ClusterSimulator(tiny_sim_config).generate()
        raw = {(job.record.job_id, gs.gpu_index):
               np.asarray(gs.data, dtype=np.float32)
               for job in jobs for gs in job.gpu_series}
        window, hop = 540, 90
        mean, scale = np.zeros(7), np.ones(7)
        features = {key: full_trace_covariance(rows, mean, scale)
                    for key, rows in raw.items()}

        def assert_moments_match(store):
            for key, want in features.items():
                np.testing.assert_allclose(
                    store.moments(*key).standardized_covariance(mean, scale),
                    want, rtol=1e-8, atol=1e-10)

        with TelemetryStore(tmp_path / "s", n_shards=2) as store:
            store.ingest(jobs)
            # every window a session cuts from the stored rows is the
            # matching raw slice of the simulator's series
            long_keys = [k for k, rows in raw.items() if len(rows) >= window]
            assert long_keys
            for key in long_keys[:8]:
                stream = store.series(*key)
                session = StreamSession(session_id=key, window=window, hop=hop)
                for start in range(0, len(stream), hop):
                    for req in session.push(stream[start:start + hop]):
                        end = req.sample_index
                        np.testing.assert_array_equal(
                            req.window, raw[key][end - window:end])
            # compaction drops rows but keeps full-trace features exact
            rows_before = store.total_rows()
            assert compact_store(store, bucket=10,
                                 keep_segments=0).segments_compacted > 0
            assert store.total_rows() < rows_before
            assert_moments_match(store)
        with TelemetryStore(tmp_path / "s") as store:
            assert_moments_match(store)
